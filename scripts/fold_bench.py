#!/usr/bin/env python3
"""Fold paired benchmark result records into one committed BENCH_*.json.

Each ``bench/run.py`` run leaves a result record (its last stdout line,
also written to ``.bench_out/result-<workload>-seed<n>-trace<t>.json``).
Give the records of the parent commit and of the change in pair order:
the i-th parent record of a workload is paired with its i-th change
record. A traced record or one with ``correct: false`` is refused. The
output holds, per workload and per end-to-end metric of
``BENCHMARK.json``, each side's runs, median and quartiles and the
number of pairs the change won, plus the pair count, the seeds, the
machine facts and both sides' git SHA and source digest. A side run
outside a git checkout has a null ``git_sha``; its ``src_sha256``
still names the source it ran.

Usage:
    python scripts/fold_bench.py --title "..." --order "..." --out BENCH_<n>.json \\
        --parent parent-*.json --change change-*.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_MACHINE_FACTS = ("nproc", "usable_cpus", "python", "numpy", "platform", "blas_threads")


def _load(path: str) -> dict:
    """One result record, refused when it cannot be folded."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("trace"):
        raise SystemExit(f"{path}: a traced run (trace: 1) has no end-to-end metrics to fold")
    if record.get("correct") is False:
        raise SystemExit(f"{path}: the run failed its checks (correct: false)")
    return record


def _side(records: list[dict]) -> dict:
    identities = {(r["facts"]["git_sha"], r["facts"]["src_sha256"]) for r in records}
    if len(identities) != 1:
        raise SystemExit(f"records of one side come from {len(identities)} source trees")
    git_sha, src_sha256 = identities.pop()
    return {"git_sha": git_sha, "src_sha256": src_sha256}


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def fold(parent: list[dict], change: list[dict], title: str, order: str) -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {}
    for name in sorted({r["workload"] for r in parent + change}):
        pairs = list(zip([r for r in parent if r["workload"] == name],
                         [r for r in change if r["workload"] == name], strict=True))
        metrics = {}
        for metric in benchmark["end_to_end"]:
            key, lower = metric["name"], metric["better"] == "lower"
            runs = [(p["metrics"][key]["value"], c["metrics"][key]["value"]) for p, c in pairs]
            metrics[key] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": _stats([p for p, _ in runs]),
                "change": _stats([c for _, c in runs]),
                "change_wins": sum((c < p) if lower else (c > p) for p, c in runs),
            }
        workloads[name] = {
            "pairs": len(pairs),
            "seeds": sorted({r["seed"] for pair in pairs for r in pair}),
            "seconds": sorted({r["seconds"] for pair in pairs for r in pair}),
            "attempted": {"parent": sum(p["attempted"] for p, _ in pairs),
                          "change": sum(c["attempted"] for _, c in pairs)},
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "metrics": metrics,
        }
    return {
        "title": title,
        "command": " ".join(benchmark["command"])
                   + " --workload <workload> --seed <seed> --seconds <seconds> --trace 0",
        "order": order,
        "parent": _side(parent),
        "change": _side(change),
        "machine": {key: parent[0]["facts"][key] for key in _MACHINE_FACTS},
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent result records")
    parser.add_argument("--change", nargs="+", required=True, help="change result records")
    parser.add_argument("--title", required=True, help="what the change does")
    parser.add_argument("--order", required=True, help="which side ran first in each pair")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    args = parser.parse_args(argv)
    parent, change = ([_load(p) for p in paths] for paths in (args.parent, args.change))
    folded = fold(parent, change, args.title, args.order)
    Path(args.out).write_text(json.dumps(folded, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
