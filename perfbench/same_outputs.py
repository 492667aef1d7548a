#!/usr/bin/env python3
"""Check that two runs of one workload and seed wrote the same outputs.

    python3 perfbench/same_outputs.py PARENT_RESULTS.json CHANGE_RESULTS.json

Takes two results files written by run.py (`.perfbench/results/...`), for
example one from the parent commit's checkout and one from a change's, and
compares the artifact digests of every input batch both runs covered.
Exits 1 and names the first differing artifacts when any differ.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    if (a["workload"], a["environment"]["seed"], a["environment"]["size"]) != \
            (b["workload"], b["environment"]["seed"], b["environment"]["size"]):
        print("results are for different workloads, seeds or sizes", file=sys.stderr)
        return 2
    common = sorted(set(a["digests"]) & set(b["digests"]), key=int)
    differ = []
    for batch in common:
        for i, (x, y) in enumerate(zip(a["digests"][batch], b["digests"][batch])):
            differ += [f"batch {batch} op {i}: {k}" for k in sorted(set(x) | set(y))
                       if x.get(k) != y.get(k)]
    if not common:
        print("no input batch in common")
        return 1
    if differ:
        print(f"{len(differ)} artifacts differ, e.g. " + "; ".join(differ[:5]))
        return 1
    print(f"same outputs on {len(common)} batches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
