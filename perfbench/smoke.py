#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py [--seed N]

Runs each workload four times at `--size tiny` (criterion-8-sized inputs,
a few seconds a run): untraced with 1 worker, then traced with 1, 2 and
again 2 workers. It asserts that

- every metric declared in BENCHMARK.json is printed with its unit;
- every run is correct and `ops_failed` is 0, which includes the artifact
  digests matching the seed's reference across runs and worker counts,
  and the trace cross-checks;
- per-layer counts repeat exactly across two runs and across 1 and 2
  workers.

Exits 0 and prints `smoke: ok` when all hold.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, workers: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny",
            "--workers", str(workers)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} workers={workers} trace={trace}"
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
             1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    for stale in (ROOT / ".perfbench" / "reference").glob(f"*-tiny-seed{args.seed}-*.json"):
        stale.unlink()  # the first run below sets the reference afresh

    for workload in [w["name"] for w in declared["workloads"]]:
        counts = []
        for workers, trace in ((1, 0), (1, 1), (2, 1), (2, 1)):
            detail, result = run(workload, args.seed, workers, trace)
            label = f"{workload} workers={workers} trace={trace}"
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == units[trace], f"{label}: metrics {sorted(printed)} != declared"
            assert detail["detail"]["ops_failed"]["value"] == 0, f"{label}: failed ops"
            bad = {k: c for k, c in detail["checks"].items() if not c["ok"]}
            assert not bad, f"{label}: checks failed {bad}"
            assert result["correct"] and result["failed"] == 0, f"{label}: not correct"
            if trace:
                counts.append({k: m["value"] for k, m in result["metrics"].items()
                               if m["unit"] == "count"})
        assert counts[1] == counts[2], f"{workload}: counts differ between two runs"
        assert counts[0] == counts[1], f"{workload}: counts differ between 1 and 2 workers"
        print(f"smoke: {workload} ok ({len(counts[0])} counts repeat)")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
