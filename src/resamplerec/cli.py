"""Command-line front end.

    resamplerec gen     --config cfg.json [--count N] [--seed S] [--out DIR]
    resamplerec grid    --config cfg.json [--workers W]
    resamplerec meta    --config cfg.json
    resamplerec train   --config cfg.json
    resamplerec recommend --model models/a1.json --data d.csv
    resamplerec assess  --config cfg.json [--workers W]
    resamplerec report  --config cfg.json

Every command exits non-zero on failure after printing a single line
`error <CODE>: <message>` to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import ConfigError, load_config
from .evaluation import GridFileError
from .pipeline import (PipelineError, cmd_assess, cmd_gen, cmd_grid, cmd_meta,
                       cmd_recommend, cmd_report, cmd_train)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: `parse_args` returns a fresh
    namespace on every call and keeps no state in the parser."""
    parser = argparse.ArgumentParser(prog="resamplerec",
                                     description="resampling recommendation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
        p.add_argument("--out", default=None, help="output directory override")

    p_gen = sub.add_parser("gen", help="generate synthetic datasets")
    add_common(p_gen)
    p_gen.add_argument("--count", type=int, default=None, help="number of datasets")

    for name, help_text in (("grid", "evaluate quality grids"),
                            ("meta", "build the meta-dataset"),
                            ("train", "train recommenders"),
                            ("assess", "run the meta-level CV assessment"),
                            ("report", "print the mean-RA table")):
        add_common(sub.add_parser(name, help=help_text))

    p_rec = sub.add_parser("recommend", help="recommend resampling for one dataset")
    add_common(p_rec)
    p_rec.add_argument("--model", required=True, help="trained recommender JSON")
    p_rec.add_argument("--data", required=True, help="dataset CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "workers": args.workers, "out": args.out}
    if getattr(args, "count", None) is not None:
        overrides["count"] = args.count
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "gen":
            cmd_gen(cfg)
        elif args.command == "grid":
            cmd_grid(cfg)
        elif args.command == "meta":
            cmd_meta(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "recommend":
            cmd_recommend(cfg, args.model, args.data)
        elif args.command == "assess":
            cmd_assess(cfg)
        else:
            cmd_report(cfg)
    except (PipelineError, ConfigError, GridFileError) as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error E_FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
