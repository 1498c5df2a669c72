"""The process entry ``gyrocal.cli.run`` against the in-process ``main``.

``run`` freezes the collector's view of every object built at import,
which is process-wide state, so it is only ever called in a fresh
interpreter here, never in the test process.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap

import pytest

from builders import IDENTITY, SRC, run_python, simulated_log
from gyrocal.cli import main


@pytest.fixture
def log_path(tmp_path):
    path = tmp_path / "session.csv"
    simulated_log(21, path, device="bench", noise_sigma=0.15)
    return path


def in_process(argv, capsys):
    """``main(argv)``'s exit status, stdout and stderr, an argparse exit
    included."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_in_process_main_freezes_nothing(log_path, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(IDENTITY), encoding="utf-8")
    before = gc.get_freeze_count()
    assert main(["calibrate", str(log_path)]) == 0
    assert main(["compare", str(params), str(params)]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_module_entry_freezes_before_main_runs(log_path):
    code = textwrap.dedent("""
        import gc, json, runpy, sys
        import gyrocal.cli

        counts = []
        command = gyrocal.cli.main

        def wrapped(argv=None):
            counts.append(gc.get_freeze_count())
            return command(argv)

        gyrocal.cli.main = wrapped
        before = gc.get_freeze_count()
        sys.argv = ["gyrocal", "calibrate", sys.argv[1]]
        try:
            runpy.run_module("gyrocal", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            status = exc.code
        print(json.dumps({"before": before, "counts": counts, "status": status}))
    """)
    proc = run_python("-c", code, str(log_path), COLUMNS="80")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    assert result["before"] == 0
    assert len(result["counts"]) == 1
    # numpy and gyrocal build tens of thousands of objects at import.
    assert result["counts"][0] >= 1000


@pytest.mark.parametrize("case", ["good_log", "missing_log", "bad_arguments"])
def test_module_process_matches_in_process_main(case, log_path, tmp_path, capsys,
                                                monkeypatch):
    argv = {"good_log": ["calibrate", str(log_path)],
            "missing_log": ["calibrate", str(tmp_path / "missing.csv")],
            "bad_arguments": ["calibrate", str(log_path), "--noise-sigma", "quiet"]}[case]
    monkeypatch.setenv("COLUMNS", "80")
    status, out, err = in_process(argv, capsys)
    assert status == {"good_log": 0, "missing_log": 1, "bad_arguments": 2}[case]
    proc = run_python("-m", "gyrocal", *argv, COLUMNS="80")  # argparse wraps as in-process
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)


@pytest.mark.parametrize("entry", [
    ["-m", "gyrocal.cli"],
    # What the installed ``gyrocal`` script runs: ``sys.exit(run())``.
    ["-c", "import sys; from gyrocal.cli import run; sys.exit(run())"],
])
def test_every_process_entry_prints_the_same_calibration(entry, log_path, capsys):
    status, out, err = in_process(["calibrate", str(log_path)], capsys)
    proc = run_python(*entry, "calibrate", str(log_path), COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err) == (0, out, "")


def test_closed_stdout_pipe_ends_the_process_without_a_traceback(log_path):
    # The read end is closed before the child starts, so its first write
    # to stdout meets a pipe without a reader, on every run.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "gyrocal", "calibrate", str(log_path)],
                              env=dict(os.environ, PYTHONPATH=SRC), stdout=write_end,
                              stderr=subprocess.PIPE, encoding="utf-8", timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")  # no traceback
