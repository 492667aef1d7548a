"""Every committed benchmark summary (`BENCH_*.json`, written by
scripts/bench_pairs.py) rests on clean runs: no op failed on either side,
and both sides of every pair wrote the same outputs. A summary's gain
verdicts agree with its own pair counts and quartiles, and its regression
verdicts with its runs and the bounds of BENCHMARK.json."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BOUNDS = {metric["name"]: metric["bound"] for metric in
          json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


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


def test_a_summary_carries_regression_verdicts():
    """Summaries written since `regression` was added carry one per
    end-to-end metric."""
    assert any(set(BOUNDS) <= {name for name, metric in summary["metrics"].items()
                               if "regression" in metric}
               for path in BENCH_FILES
               for summary in json.loads(path.read_text(encoding="utf-8"))["workloads"].values())


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_regression_verdicts_follow_the_runs_and_bounds(path):
    """"worse" when the change's median is above the parent's by more than
    the bound times the parent's median; else "unresolved" when the parent's
    IQR is wider than the bound times its median and the sides' runs
    overlap; else "none"."""
    for name, summary in json.loads(path.read_text(encoding="utf-8"))["workloads"].items():
        for metric, m in summary["metrics"].items():
            if "regression" not in m:  # written before the verdict existed, or not end to end
                continue
            parent, change, runs, bound = m["parent"], m["change"], m["runs"], BOUNDS[metric]
            if change["median"] - parent["median"] > bound * parent["median"]:
                expected = "worse"
            elif (parent["q3"] - parent["q1"] > bound * parent["median"]
                  and max(runs["change"]) >= min(runs["parent"])):
                expected = "unresolved"
            else:
                expected = "none"
            assert m["regression"] == expected, (name, metric)
