#!/usr/bin/env python3
"""gyrocal benchmark: one workload, one seed, one timed run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes over the same inputs
and prints the per-layer metrics from the traced ones, plus the tracing
overhead. The last line of stdout is the JSON result; a fuller record,
with machine facts, goes to .bench_out/ and the spans of a traced run
next to it. See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is first imported, here and in
# every child process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up runs once before the first pass. On an untraced run it is then
# repeated between passes until the repeats fill this share of the run, so
# that setup_s, their median, samples the same stretch of time as the
# operations and not only the first second or two.
SETUP_SHARE = 0.15
IMPORTTIME_RUNS = 3
PYTHON_START_RUNS = 5

# The workload-specific names of the figures (see bench/README.md).
ALIASES = {
    "campaign": {"throughput_per_s": "campaign_replicates_per_s",
                 "floor_ratio": "campaign_floor_ratio"},
    "device_logs": {"latency_p50_ms": "log_calibrate_p50_ms",
                    "latency_p90_ms": "log_calibrate_p90_ms"},
    "cli_calibrate": {"latency_p50_ms": "cli_calibrate_p50_ms",
                      "latency_p90_ms": "cli_calibrate_p90_ms"},
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="gyrocal benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "device_logs", "cli_calibrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gyrocal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_setup(workload) -> float:
    """CPU time of one set-up; it starts no child process."""
    start = time.process_time()
    workload.setup()
    return time.process_time() - start


def run_passes(workload, seconds: float, tracer, setup_times: list[float]):
    """Whole passes over the workload's inputs until ``seconds`` have gone.

    Returns the untraced and the traced passes, each a list of operation
    results. With a tracer, passes alternate untraced and traced (ending on
    a traced one) and the spans of each operation carry its id. Without
    one, set-up is repeated between passes and timed into ``setup_times``.
    """
    passes = {False: [], True: []}
    start = time.perf_counter()
    n_pass = 0
    op_id = 0
    while True:
        traced = tracer is not None and n_pass % 2 == 1
        ops = []
        if traced:
            tracer.install()
        try:
            for index in range(workload.ops_per_pass):
                if tracer is not None:
                    tracer.op = op_id
                ops.append(run_op(workload, index, tracer if traced else None))
                op_id += 1
        finally:
            if traced:
                tracer.uninstall()
        passes[traced].append(ops)
        n_pass += 1
        if tracer is None:
            while sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start):
                setup_times.append(timed_setup(workload))
        if time.perf_counter() - start >= seconds and (tracer is None or n_pass % 2 == 0):
            return passes[False], passes[True]


def run_op(workload, index: int, tracer):
    from workloads import OpResult

    try:
        return workload.run_op(index, tracer)
    except Exception:
        # An operation that crashes is a failed operation; the run goes on.
        text = traceback.format_exc()
        print(text, file=sys.stderr)
        return OpResult(0.0, 1, None, [text.strip().splitlines()[-1]])


def end_to_end_metrics(workload, passes, setup_times: list[float]) -> dict:
    """The ``BENCHMARK.json`` metrics, all from CPU time, which leaves out
    the time the process waited for a processor. Each operation's CPU time
    is divided by that of its floor, timed right after it in the same
    process, so that a change of the machine's speed between runs moves the
    ratio far less than the times themselves (see bench/README.md)."""
    ops = [op for pass_ops in passes for op in pass_ops]
    ratios = [op.cpu / op.floor for op in ops if op.floor and op.cpu > 0.0]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_calibrate" else resource.RUSAGE_SELF
    return {
        "floor_ratio": (statistics.median(ratios), "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def wall_time_figures(passes) -> dict:
    """Throughput and latencies in wall time. They are printed and
    recorded, but they follow the machine's speed from run to run too
    closely to bound a change, so they are not ``BENCHMARK.json`` metrics."""
    ops = [op for pass_ops in passes for op in pass_ops]
    latencies = [op.seconds / op.units for op in ops if op.seconds > 0.0]
    return {
        "throughput_per_s": (sum(op.units for op in ops) / sum(op.seconds for op in ops), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
    }


def import_metrics(cwd: Path) -> dict:
    """Import costs of ``gyrocal.cli`` and bare interpreter start, medians."""
    from workloads import CHILD_TIMEOUT_S, python_start

    runs = {"numpy": [], "yaml": [], "gyrocal": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gyrocal.cli"],
                              capture_output=True, text=True, cwd=cwd, check=True,
                              timeout=CHILD_TIMEOUT_S)
        found = {"numpy": 0.0, "yaml": 0.0, "gyrocal": 0.0}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)", line)
            if match is None:
                continue
            own, cumulative, module = int(match[1]), int(match[2]), match[3]
            if module in ("numpy", "yaml"):
                found[module] = cumulative / 1e3
            elif module == "gyrocal" or module.startswith("gyrocal."):
                found["gyrocal"] += own / 1e3
        for key, value in found.items():
            runs[key].append(value)
    starts = [python_start(cwd)[0] for _ in range(PYTHON_START_RUNS)]
    metrics = {f"cli.import.{key}_ms": (statistics.median(v), "ms") for key, v in runs.items()}
    metrics["cli.python_start_ms"] = (1e3 * statistics.median(starts), "ms")
    return metrics


def use_checkout_sources() -> str | None:
    """Import gyrocal from this checkout's src/, here and in children.

    Returns an error message when the checkout holds no gyrocal sources.
    """
    if not (SRC / "gyrocal" / "__init__.py").is_file():
        return f"no gyrocal sources under {SRC}; run from a source checkout"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import gyrocal

    if Path(gyrocal.__file__).resolve().parent != SRC / "gyrocal":
        return f"imported gyrocal from {gyrocal.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = use_checkout_sources()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    facts = machine_facts()
    import spans
    from workloads import WORKLOADS

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        setup_times = [timed_setup(workload)]
        tracer = spans.Tracer() if args.trace else None
        untraced, traced = run_passes(workload, args.seconds, tracer, setup_times)
        ops = [op for pass_ops in untraced + traced for op in pass_ops]
        if args.trace:
            metrics = spans.layer_metrics(
                tracer, sum(op.units for p in traced for op in p), len(traced))
            metrics.update(import_metrics(workdir))
            overhead = (statistics.median(op.cpu / op.units for p in traced for op in p)
                        / statistics.median(op.cpu / op.units for p in untraced for op in p)
                        - 1.0)
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
            tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
            figures = {}
        else:
            metrics = end_to_end_metrics(workload, untraced, setup_times)
            figures = wall_time_figures(untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # error_rate counts every operation whose output failed a check. An
    # accepted known-defect log is one of them, but it is not a failed
    # operation of the result line, which counts only unexpected wrong
    # outputs and crashes: the defects are the same on every run.
    flagged = [op for op in ops if op.problems]
    failed = [op for op in flagged if not op.known_defect]
    problems = sorted({p for op in flagged for p in op.problems})
    aliases = ALIASES[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  operations {len(ops)}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<50} {value:>14.6g} {unit}{alias}")
    for name, (value, unit) in figures.items():
        alias = f", {aliases[name]}" if name in aliases else ""
        print(f"  {name:<50} {value:>14.6g} {unit}  (wall time, not bounded{alias})")
    print(f"  {'error_rate':<50} {len(flagged) / len(ops):>14.6g} ratio  "
          f"({len(flagged)} of {len(ops)} failed a check: "
          f"{len(flagged) - len(failed)} known-defect logs accepted, {len(failed)} unexpected)")
    for problem in problems:
        print(f"  problem: {problem}")

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, facts=facts, problems=problems,
                  error_rate=len(flagged) / len(ops), known_defects=len(flagged) - len(failed),
                  setup_times_s=setup_times,
                  wall_time={name: value for name, (value, _) in figures.items()})
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
