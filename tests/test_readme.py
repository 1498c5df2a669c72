"""Every ``python`` block of README.md runs as written, warnings as errors,
and every ``yaml`` block is a config that ``gyrocal simulate`` accepts."""

import pytest

from builders import readme_blocks, run_python
from gyrocal import simulator

BLOCKS = readme_blocks("python")
YAML_BLOCKS = readme_blocks("yaml")


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    # A fresh interpreter, so a block sees only what it imports itself.
    proc = run_python("-W", "error", "-c", BLOCKS[index])
    assert proc.returncode == 0, proc.stderr


def test_readme_has_yaml_blocks():
    assert YAML_BLOCKS


@pytest.mark.parametrize("index", range(len(YAML_BLOCKS)))
def test_yaml_block_is_a_config(tmp_path, index):
    # Loaded only: the documented campaign is too large to run here.
    config = tmp_path / "campaign.yaml"
    config.write_text(YAML_BLOCKS[index], encoding="utf-8")
    assert simulator.load_configs(str(config), None)
