#!/usr/bin/env python3
"""Summarise paired benchmark runs of a parent commit and a change.

    python scripts/bench_pairs.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR [--out BENCH.json]
        [--declared NAME ...]

Each directory holds the untraced results files (`*-trace0.json`) that
`perfbench/run.py` wrote in one checkout's `.perfbench/results/`. A run of
the parent and a run of the change on the same workload and seed form a
pair; run the two of a pair back to back, alternating which goes first, so
that the host's slow and fast spells fall on both sides.

For every workload and metric the summary gives each side's median and
quartiles over its runs, the change's median relative to the parent's, in
how many pairs the change was better (lower), and `gain_holds`: whether a
gain may be claimed. It holds when at least ten pairs ran, the change was
better in at least nine tenths of them (ties count for neither side), and
the change's median is below the parent's by more than the parent's
interquartile range. For each end-to-end metric of `BENCHMARK.json` (read
for its bounds only) it also gives `regression`: "worse" when the change's
median exceeds the parent's by more than the metric's bound times the
parent's median; else "unresolved" when the parent's interquartile range
exceeds the bound times its median, unless every change run beat every
parent run; else "none". Each metric keeps its runs' values in seed order.
It also gives the verdict of
`perfbench/same_outputs.py` on every pair, the failed ops of each side, the
environment the runs reported (`nproc` included) and their load averages.

A change may alter some artifacts on purpose. Each `--declared NAME` names
one, as an artifact path with its dataset id written `<id>`
(`grids/<id>.meta.json`); the summary lists them under `declared`, and for
every pair (`differ`) the names whose digests differ between the two
results files, masked the same way. Written as JSON to `--out`, or printed.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_OUTPUTS = ROOT / "perfbench" / "same_outputs.py"
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_FIELDS = ("seed", "loadavg_at_start", "git_commit")


def load_runs(directory: Path) -> dict[tuple[str, int], tuple[Path, dict]]:
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        runs[(doc["workload"], doc["environment"]["seed"])] = (path, doc)
    return runs


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def gain_holds(parent: dict, change: dict, wins: int, pairs: int) -> bool:
    """A claimed gain stands: ten or more pairs, the change better in nine
    tenths of them, and a median drop wider than the parent's IQR."""
    return (pairs >= 10 and 10 * wins >= 9 * pairs
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"])


def end_to_end_bounds() -> dict[str, float]:
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in doc["end_to_end"]}


def regression(parent: dict, change: dict, bound: float, runs: dict) -> str:
    """Whether the change made a lower-is-better metric worse than its bound
    allows: "worse", "unresolved" (the parent's runs spread too widely to
    tell, and the two sides' runs overlap) or "none"."""
    if change["median"] - parent["median"] > bound * parent["median"]:
        return "worse"
    if (parent["q3"] - parent["q1"] > bound * parent["median"]
            and not max(runs["change"]) < min(runs["parent"])):
        return "unresolved"
    return "none"


def same_outputs(parent: Path, change: Path) -> str:
    done = subprocess.run([sys.executable, str(SAME_OUTPUTS), str(parent), str(change)],
                          capture_output=True, text=True, check=False)
    return (done.stdout or done.stderr).strip()


# a dataset's file under datasets/ or grids/ (its grid, skips, meta file and marker)
_DATASET_FILE = re.compile(r"(?:datasets|grids)/([^/]+?)(?:\.skips)?\.csv")


def differing_names(parent: dict, change: dict) -> list[str]:
    """The artifacts whose digests differ between two results files of one
    workload and seed, over their common input batches, with dataset ids
    masked as `<id>`."""
    a, b = parent["digests"], change["digests"]
    names, ids = set(), set()
    for batch in set(a) & set(b):
        for x, y in zip(a[batch], b[batch]):
            names |= {name for name in set(x) | set(y) if x.get(name) != y.get(name)}
            ids |= {m.group(1) for name in set(x) | set(y) if (m := _DATASET_FILE.fullmatch(name))}
    masked = set()
    for name in names:
        head, _, tail = name.partition("/")
        ds_id = max((i for i in ids if tail.startswith(i + ".")), key=len, default=None)
        masked.add(f"{head}/<id>{tail[len(ds_id):]}" if ds_id else name)
    return sorted(masked)


def summarise(parent_runs: dict, change_runs: dict, bounds: dict[str, float]) -> dict:
    pairs = sorted(set(parent_runs) & set(change_runs))
    workloads = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [seed for w, seed in pairs if w == workload]
        docs = [(parent_runs[(workload, s)], change_runs[(workload, s)]) for s in seeds]
        metrics = {}
        for name, first in docs[0][0][1]["detail"].items():
            if not isinstance(first, dict) or "value" not in first or name.startswith("ops"):
                continue
            values = [(p["detail"][name]["value"], c["detail"][name]["value"])
                      for (_, p), (_, c) in docs]
            runs = {"parent": [p for p, _ in values], "change": [c for _, c in values]}
            parent, change = quartiles(runs["parent"]), quartiles(runs["change"])
            wins = sum(c < p for p, c in values)  # lower is better
            metrics[name] = {
                "unit": first["unit"],
                "parent": parent,
                "change": change,
                "runs": runs,
                "median_change": change["median"] / parent["median"] - 1.0,
                "change_wins": wins,
                "pairs": len(values),
                "gain_holds": gain_holds(parent, change, wins, len(values)),
            }
            if name in bounds:
                metrics[name]["regression"] = regression(parent, change, bounds[name], runs)
        workloads[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "metrics": metrics,
            "ops_failed": {side: sum(doc[i][1]["detail"]["ops_failed"]["value"] for doc in docs)
                           for i, side in enumerate(("parent", "change"))},
            "same_outputs": {str(s): same_outputs(p_path, c_path)
                             for s, ((p_path, _), (c_path, _)) in zip(seeds, docs)},
            "differ": {str(s): differing_names(p, c) for s, ((_, p), (_, c)) in zip(seeds, docs)},
            "loadavg_at_start": {str(s): [p["environment"]["loadavg_at_start"],
                                          c["environment"]["loadavg_at_start"]]
                                 for s, ((_, p), (_, c)) in zip(seeds, docs)},
        }
    environment = {}
    if pairs:
        env = change_runs[pairs[0]][1]["environment"]
        environment = {k: v for k, v in env.items() if k not in RUN_FIELDS}
    return {"environment": environment, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="the parent checkout's results directory")
    parser.add_argument("change", type=Path, help="the change's results directory")
    parser.add_argument("--out", type=Path, help="write the summary here")
    parser.add_argument("--declared", action="append", default=[], metavar="NAME",
                        help="an artifact the change alters on purpose, e.g. grids/<id>.meta.json")
    args = parser.parse_args(argv)
    summary = summarise(load_runs(args.parent), load_runs(args.change), end_to_end_bounds())
    summary["declared"] = sorted(set(args.declared))
    if not summary["workloads"]:
        print("no workload and seed was run on both sides", file=sys.stderr)
        return 1
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
