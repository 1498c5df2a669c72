"""Every committed ``BENCH_*.json`` trajectory record parses and carries
the medians, spreads, pair counts, seeds, machine facts and source
identities that make it comparable with the next one."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
SHA1 = re.compile(r"[0-9a-f]{40}")
SHA256 = re.compile(r"[0-9a-f]{64}")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_carries_trajectory_keys(path):
    record = json.loads(path.read_text())
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
