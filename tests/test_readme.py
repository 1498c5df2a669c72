"""Every ``python`` block of README.md runs as written, warnings as errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gyrocal

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)
SRC = os.path.dirname(os.path.dirname(gyrocal.__file__))


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    # A fresh interpreter, so a block sees only what it imports itself.
    proc = subprocess.run([sys.executable, "-W", "error", "-c", BLOCKS[index]],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
