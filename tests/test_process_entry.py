"""The process entry ``gyrocal.cli.run`` against the in-process ``main``.

``run`` freezes the collector's view of every object built at import,
which is process-wide state, and ends the process itself, so it is only
ever called in a fresh interpreter here, never in the test process.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap

import pytest

from builders import IDENTITY, python_env, run_python, simulated_log
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
    # The entry ends the process itself, so the record is printed by an
    # exit hook, and the status is the process's.
    code = textwrap.dedent("""
        import atexit, gc, json, runpy, sys
        import gyrocal.cli

        counts = []
        command = gyrocal.cli.main

        def wrapped(argv=None):
            counts.append(gc.get_freeze_count())
            return command(argv)

        gyrocal.cli.main = wrapped
        before = gc.get_freeze_count()
        atexit.register(lambda: print(json.dumps({"before": before, "counts": counts})))
        sys.argv = ["gyrocal", "calibrate", sys.argv[1]]
        runpy.run_module("gyrocal", run_name="__main__", alter_sys=True)
    """)
    proc = run_python("-c", code, str(log_path), COLUMNS="80")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["before"] == 0
    assert len(result["counts"]) == 1
    # numpy and gyrocal build tens of thousands of objects at import.
    assert result["counts"][0] >= 1000


def written(directory):
    """The bytes of each file in ``directory``, none when it is absent."""
    if not directory.exists():
        return {}
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("case", ["good_log", "missing_log", "bad_arguments", "simulate",
                                  "compare", "verify"])
def test_module_process_matches_in_process_main(case, log_path, tmp_path, capsys,
                                                monkeypatch):
    config = tmp_path / "campaign.yaml"
    config.write_text("n_param_sets: 3\nn_sims_per_set: 2\n", encoding="utf-8")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(IDENTITY), encoding="utf-8")
    second.write_text(json.dumps(dict(IDENTITY, k_x=1.05)), encoding="utf-8")

    def argv(out):
        return {"good_log": ["calibrate", str(log_path)],
                "missing_log": ["calibrate", str(tmp_path / "missing.csv")],
                "bad_arguments": ["calibrate", str(log_path), "--noise-sigma", "quiet"],
                "simulate": ["simulate", "--config", str(config), "--out", str(out)],
                "compare": ["compare", str(first), str(second)],
                "verify": ["verify", "--suite", "doe"]}[case]

    monkeypatch.setenv("COLUMNS", "80")
    status, out, err = in_process(argv(tmp_path / "in_process"), capsys)
    assert status == {"missing_log": 1, "bad_arguments": 2}.get(case, 0)
    # COLUMNS: argparse wraps as in-process.
    proc = run_python("-m", "gyrocal", *argv(tmp_path / "process"), COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)
    files = written(tmp_path / "in_process")
    assert bool(files) == (case == "simulate")
    assert written(tmp_path / "process") == files


def run_to_file(args, stdout):
    """``python *args`` in a new interpreter that imports gyrocal from this
    checkout, its block-buffered stdout written to the file ``stdout``."""
    with open(stdout, "w", encoding="utf-8") as handle:
        return subprocess.run([sys.executable, *args],
                              env=python_env(),
                              stdout=handle, stderr=subprocess.PIPE, encoding="utf-8",
                              timeout=120)


def test_exit_hooks_run_once_after_the_answer_is_out(log_path, tmp_path, capsys):
    status, out, err = in_process(["calibrate", str(log_path)], capsys)
    stdout, record = tmp_path / "stdout.json", tmp_path / "record.txt"
    # The hook appends what stdout's file holds when it runs, a line a call.
    code = textwrap.dedent("""
        import atexit, json, sys
        from gyrocal.cli import run

        _, stdout, record, log = sys.argv

        def hook():
            with open(stdout, encoding="utf-8") as handle:
                text = handle.read()
            with open(record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(text) + "\\n")

        atexit.register(hook)
        sys.argv = ["gyrocal", "calibrate", log]
        run()
    """)
    proc = run_to_file(["-c", code, str(stdout), str(record), str(log_path)], stdout)
    assert (proc.returncode, proc.stderr) == (status, err) == (0, "")
    seen = [json.loads(line) for line in record.read_text(encoding="utf-8").splitlines()]
    assert seen == [out]
    assert stdout.read_text(encoding="utf-8") == out


def test_calibrate_out_and_redirected_stdout_are_whole(log_path, tmp_path, capsys):
    status, out, err = in_process(["calibrate", str(log_path)], capsys)
    stdout, params = tmp_path / "stdout.json", tmp_path / "params.json"
    proc = run_to_file(["-m", "gyrocal", "calibrate", str(log_path), "--out", str(params)],
                       stdout)
    assert (proc.returncode, proc.stderr) == (status, err) == (0, "")
    assert stdout.read_text(encoding="utf-8") == params.read_text(encoding="utf-8") == out
    assert "diagnostics" in json.loads(out)


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
                              env=python_env(), stdout=write_end,
                              stderr=subprocess.PIPE, encoding="utf-8", timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")  # no traceback
