#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Runs every workload at a tiny size, traced and untraced, and plants wrong
results that the output checks must flag: a flipped summary.json byte, a
campaign summary outside the acceptance bounds, a parameter JSON one ulp
off, a defective log accepted, and CLI output that differs. It also runs
``bench/run.py`` once and checks its result line, and checks that the
benchmark refuses to run without the package sources.

Usage, from the root of a source checkout:

    python3 bench/selftest.py

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {message}")
    if not ok:
        FAILURES.append(message)


def bound_names() -> list[tuple[str, object]]:
    """Every gyrocal attribute that holds a function or method the tracer wraps."""
    import spans

    wrapped = [getattr(sys.modules[m], a) for _, m, a in spans.FUNCTIONS]
    found = [(f"{name}.{key}", value) for name, module in sorted(sys.modules.items())
             if name == "gyrocal" or name.startswith("gyrocal.")
             for key, value in vars(module).items()
             if any(value is w for w in wrapped)]
    found += [(f"{c}.{a}", getattr(sys.modules[m], c).__dict__[a])
              for _, m, c, a in spans.METHODS]
    return found


def check_campaign(workdir) -> None:
    from workloads import Campaign, check_campaign as check

    campaign = Campaign(workdir, seed=3, n_sims_per_set=1)
    campaign.setup()
    result = campaign.run_op(0, None)
    expect(not result.problems and result.units == 60 and result.floor > 0.0,
           f"tiny campaign passes its checks ({result.problems})")

    summary_path = campaign.out_dir / "summary.json"
    data = bytearray(summary_path.read_bytes())
    digit = next(i for i, c in enumerate(data) if chr(c) in "123456789")
    data[digit] = ord("1") if chr(data[digit]) != "1" else ord("2")
    summary_path.write_bytes(bytes(data))
    expect(bool(check(campaign.out_dir, campaign.replicates_per_level, campaign.reference)),
           "a flipped summary.json byte is flagged")

    summary = json.loads(campaign.reference)
    summary["campaigns"]["0.03"]["parameter_errors"]["k_x"]["median"] = 2e-3
    summary_path.write_text(json.dumps(summary))
    expect(bool(check(campaign.out_dir, campaign.replicates_per_level, None)),
           "a low-noise median error above criterion 2 is flagged")


def check_device_logs(workdir) -> None:
    import spans
    from workloads import DeviceLogs, check_log_result

    logs = DeviceLogs(workdir, seed=3, n_100hz=1, n_400hz=1)
    logs.setup()
    before = bound_names()
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(bound_names() != before, "install rebinds the wrapped names")
        traced = [logs.run_op(i, tracer) for i in range(logs.ops_per_pass)]
    finally:
        tracer.uninstall()
    expect(bound_names() == before, "uninstall restores every rebound name")
    metrics = spans.layer_metrics(tracer, units=logs.ops_per_pass, passes=1)
    expect(metrics["session_io.read_session_log_ms"][0] > 0.0
           and metrics["estimator.calibrate.calls_per_unit"][0] == 1.0
           and metrics["estimator.calibrate.rejected_per_pass"][0] >= 2
           and metrics["session_io.log_bytes"][0] > 0,
           "traced device_logs pass records session_io and estimator spans")

    untraced = [logs.run_op(i, None) for i in range(logs.ops_per_pass)]
    expect(all(r.floor > 0.0 for r in untraced), "every untraced device log has a floor")
    for case, result in [*zip(logs.cases, traced), *zip(logs.cases, untraced)]:
        if case.kind == "good":
            expect(not result.problems, f"good {case.log.sample_rate:g} Hz log passes ({result.problems})")
        elif case.kind in ("moved_still", "no_turn"):
            expect(not result.problems, f"{case.kind} log is rejected with no --out file")
        elif case.kind == "clipped_turns":
            expect(bool(result.problems) and result.known_defect,
                   "accepted clipped_turns log counts as a known-defect failure")

    good = logs.cases[0]
    logs.run_op(0, None)
    payload = json.loads(logs.out_path.read_text())
    payload["k_x"] = math.nextafter(payload["k_x"], math.inf)
    logs.out_path.write_text(json.dumps(payload))
    problems, known = check_log_result(good, 0, logs.out_path)
    expect(bool(problems) and not known, "a parameter JSON one ulp off is flagged")

    moved = next(c for c in logs.cases if c.kind == "moved_still")
    problems, known = check_log_result(moved, 0, logs.out_path)
    expect(bool(problems) and not known, "an accepted moved_still log is an unexpected failure")


def check_cli(workdir) -> None:
    import spans
    from workloads import CliCalibrate, check_cli_output

    cli = CliCalibrate(workdir, seed=3, n_logs=1)
    cli.setup()
    result = cli.run_op(0, None)
    expect(not result.problems and result.floor > 0.0,
           f"python -m gyrocal calibrate matches the in-process result ({result.problems})")
    tracer = spans.Tracer()
    tracer.op = 7
    traced = cli.run_op(0, tracer)
    names = {span[spans.NAME] for span in tracer.spans}
    expect(not traced.problems and "session_io.read_session_log" in names
           and all(span[spans.OP] == 7 for span in tracer.spans),
           "traced child passes and returns its spans")

    _, expected, truth = cli.cases[0]
    wrong = dict(expected, k_y=expected["k_y"] + 1e-12)
    expect(bool(check_cli_output(0, json.dumps(expected), wrong, truth)),
           "CLI output that differs from the in-process result is flagged")
    off = dict(expected, k_z=expected["k_z"] * 1.05)
    expect(bool(check_cli_output(0, json.dumps(off), off, truth)),
           "CLI parameters 5% off the truth are flagged")
    expect(bool(check_cli_output(1, "", expected, truth)), "a failing CLI run is flagged")


def check_result_line(workdir) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "device_logs",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = {}
    expected = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
           and set(result["metrics"]) == expected and result["correct"]
           and result["failed"] == 0 and "known-defect logs accepted" in proc.stdout,
           "run.py prints the result line with every end-to-end metric, known defects apart")

    bare = workdir / "bare"
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark fails and prints no result")


def main() -> int:
    error = run.use_checkout_sources()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workdir = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for check in (check_campaign, check_device_logs, check_cli, check_result_line):
            part = workdir / check.__name__
            part.mkdir(parents=True)
            check(part)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
