"""Every committed ``BENCH_*.json`` trajectory record parses and carries
the medians, spreads, pair counts, seeds, machine facts and source
identities that make it comparable with the next one."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
SHA1 = re.compile(r"[0-9a-f]{40}")
SHA256 = re.compile(r"[0-9a-f]{64}")

_spec = importlib.util.spec_from_file_location("fold_bench", ROOT / "scripts" / "fold_bench.py")
fold_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fold_bench)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_carries_trajectory_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert SHA1.fullmatch(record["parent"]["git_sha"])
    # The change's commit is the one that adds the record, so it may be null.
    change_sha = record["change"]["git_sha"]
    assert change_sha is None or SHA1.fullmatch(change_sha)
    for side in ("parent", "change"):
        assert SHA256.fullmatch(record[side]["src_sha256"])
    for fact in ("nproc", "usable_cpus", "python", "numpy", "platform", "blas_threads"):
        assert record["machine"][fact]
    assert record["workloads"]
    for workload in record["workloads"].values():
        pairs = workload["pairs"]
        assert pairs >= 1
        assert workload["seeds"] and all(isinstance(s, int) for s in workload["seeds"])
        assert set(workload["metrics"]) >= set(END_TO_END)
        for name in END_TO_END:
            metric = workload["metrics"][name]
            assert 0 <= metric["change_wins"] <= pairs
            for side in ("parent", "change"):
                stats = metric[side]
                assert len(stats["runs"]) == pairs
                assert stats["q1"] <= stats["median"] <= stats["q3"]
                assert stats["iqr"] == pytest.approx(stats["q3"] - stats["q1"])


def result_record(floor_ratio, src, **overrides):
    """A ``bench/run.py`` result record with only the fields fold_bench reads."""
    record = {
        "workload": "device_logs", "seed": 5, "seconds": 1.0, "trace": 0, "correct": True,
        "attempted": 40, "failed": 0,
        "metrics": {name: {"value": 1.0} for name in END_TO_END},
        "facts": {"git_sha": None, "src_sha256": src, "nproc": 2, "usable_cpus": 2,
                  "python": "3", "numpy": "2", "platform": "linux", "blas_threads": {"X": "1"}},
    }
    record["metrics"]["floor_ratio"] = {"value": floor_ratio}
    record.update(overrides)
    return record


def fold_files(tmp_path, parent, change):
    paths = {}
    for side, records in (("parent", parent), ("change", change)):
        paths[side] = []
        for i, record in enumerate(records):
            path = tmp_path / f"{side}-{i}.json"
            path.write_text(json.dumps(record), encoding="utf-8")
            paths[side].append(str(path))
    out = tmp_path / "BENCH_test.json"
    fold_bench.main(["--title", "t", "--order", "o", "--out", str(out),
                     "--parent", *paths["parent"], "--change", *paths["change"]])
    return json.loads(out.read_text(encoding="utf-8"))


def test_fold_counts_pairs_won(tmp_path):
    folded = fold_files(tmp_path, [result_record(r, "a" * 64) for r in (2.0, 2.0, 1.0)],
                        [result_record(r, "b" * 64) for r in (1.5, 1.5, 1.5)])
    metric = folded["workloads"]["device_logs"]["metrics"]["floor_ratio"]
    assert metric["change_wins"] == 2
    assert metric["parent"]["median"] == 2.0 and metric["change"]["median"] == 1.5


@pytest.mark.parametrize("overrides, reason", [
    ({"trace": 1, "metrics": {}}, "trace: 1"),
    ({"correct": False}, "correct: false"),
])
def test_fold_refuses_unfoldable_record(tmp_path, overrides, reason):
    bad = result_record(1.0, "b" * 64, **overrides)
    with pytest.raises(SystemExit) as info:
        fold_files(tmp_path, [result_record(2.0, "a" * 64)] * 2,
                   [result_record(1.0, "b" * 64), bad])
    message = str(info.value)
    assert "change-1.json" in message and reason in message
