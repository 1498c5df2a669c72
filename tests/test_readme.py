"""Every ``python`` block of README.md runs as written, warnings as errors."""

import re
from pathlib import Path

import pytest

from builders import run_python

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    # A fresh interpreter, so a block sees only what it imports itself.
    proc = run_python("-W", "error", "-c", BLOCKS[index])
    assert proc.returncode == 0, proc.stderr
