"""The warning filters in pyproject.toml, checked by running pytest on a
small test file in a fresh process under the same configuration."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_pytest(tmp_path, source, *options):
    path = tmp_path / "test_probe.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), *options, str(path)],
        cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=120)


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    # On a failure hypothesis's plugin imports its patch writer, whose
    # libcst import warns through mypy_extensions.
    proc = run_pytest(tmp_path, """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0
    """)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout
    assert "1 failed" in proc.stdout


#: (module, message, whether it fails the test), each raised in its own test.
WARNINGS = [
    ("libcst.metadata.type_inference_provider", "mypy_extensions.TypedDict is deprecated", False),
    ("gyrocal.model", "mypy_extensions.TypedDict is deprecated", True),
    ("gyrocal.model", "a deprecated call", True),
    ("libcst.metadata.type_inference_provider", "a deprecated call", True),
]


def test_only_the_libcst_typeddict_deprecation_is_ignored(tmp_path):
    source = "import warnings\n"
    for index, (module, message, _) in enumerate(WARNINGS):
        source += textwrap.dedent(f"""
            def test_warns_{index}():
                warnings.warn_explicit({message!r}, DeprecationWarning, "probe.py", 1,
                                       module={module!r})
        """)
    proc = run_pytest(tmp_path, source, "-rA")
    assert proc.returncode == 1, proc.stdout
    lines = proc.stdout.splitlines()
    for index, (_, _, fails) in enumerate(WARNINGS):
        outcome = (f"FAILED test_probe.py::test_warns_{index} - DeprecationWarning: "
                   if fails else f"PASSED test_probe.py::test_warns_{index}")
        assert any(line.startswith(outcome) for line in lines), proc.stdout
