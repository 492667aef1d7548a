#!/usr/bin/env python3
"""Desk-scale experiment: 60 synthetic datasets, decision-tree learner.

Runs the whole pipeline through the CLI entry points into ./desk_out and
prints the mean-RA table comparing both recommenders against the static
strategies. Workers default to the machine's CPU count; the outputs do not
depend on it.

    python scripts/run_desk_scale.py [--out DIR] [--seed N] [--workers W]
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from resamplerec.cli import main as cli_main

DESK_CONFIG = {
    "seed": 11,
    "learner": {"kind": "decision_tree"},
    "methods": ["ros", "rus", "smote5"],
    "multipliers": {"min": 1.5, "max": 4.0, "step": 0.5},
    "k": 10,
    "k_prime": 5,
    "alpha": 0.05,
    "epsilon": 0.75,
    "count": 60,
    "presets": {"a1": "rs1-dtree", "a2": "rs2-dtree"},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="desk_out")
    parser.add_argument("--seed", type=int, default=DESK_CONFIG["seed"])
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    config = dict(DESK_CONFIG)
    config["seed"] = args.seed
    config["out"] = args.out
    config["workers"] = args.workers
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(config, fh)
        cfg_path = fh.name

    try:
        for command in ("gen", "grid", "meta", "train", "assess"):
            code = cli_main([command, "--config", cfg_path])
            if code != 0:
                return code
    finally:
        os.remove(cfg_path)
    print(f"\nartifacts in {Path(args.out).resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
