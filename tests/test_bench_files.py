"""Every committed benchmark summary (`BENCH_*.json`, written by
scripts/bench_pairs.py) rests on clean runs: no op failed on either side,
and both sides of every pair wrote the same outputs. A summary's gain
verdicts agree with its own pair counts and quartiles."""

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


def test_a_summary_carries_gain_verdicts():
    """Summaries written since `gain_holds` was added carry one per metric."""
    assert any("gain_holds" in metric
               for path in BENCH_FILES
               for summary in json.loads(path.read_text(encoding="utf-8"))["workloads"].values()
               for metric in summary["metrics"].values())


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_gain_verdicts_follow_the_pairs_and_quartiles(path):
    """A gain holds only with ten or more pairs, the change better in nine
    tenths of them, and a median drop wider than the parent's IQR."""
    for name, summary in json.loads(path.read_text(encoding="utf-8"))["workloads"].items():
        for metric, m in summary["metrics"].items():
            if "gain_holds" not in m:  # written before the verdict existed
                continue
            parent, change = m["parent"], m["change"]
            expected = (m["pairs"] >= 10 and 10 * m["change_wins"] >= 9 * m["pairs"]
                        and parent["median"] - change["median"] > parent["q3"] - parent["q1"])
            assert m["gain_holds"] is expected, (name, metric)
