"""Every committed benchmark summary (`BENCH_*.json`, written by
scripts/bench_pairs.py) rests on clean runs: no op failed on either side,
and both sides of every pair wrote the same outputs."""

import json
from pathlib import Path

import pytest

BENCH_FILES = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_a_summary_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_no_failed_op_and_the_same_outputs_on_every_pair(path):
    workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    assert workloads
    for name, summary in workloads.items():
        assert summary["ops_failed"] == {"parent": 0, "change": 0}, name
        assert len(summary["seeds"]) == summary["pairs"] > 0, name
        assert sorted(summary["same_outputs"]) == sorted(map(str, summary["seeds"])), name
        for seed, verdict in summary["same_outputs"].items():
            assert verdict.startswith("same outputs"), (name, seed, verdict)
