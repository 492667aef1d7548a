"""Pipeline commands: gen -> grid -> meta -> train -> recommend / assess -> report.

Artifacts live under the configured output directory:

    datasets/<id>.csv + manifest.json
    grids/<id>.csv (+ .skips.csv, .meta.json, .cache.json)
    meta.csv + meta.meta.json
    models/<approach>.json
    report/ra.csv, ecdf_<strategy>.csv, summary.json, ecdf.svg

The meta-dataset has one build path: `meta`, `train` and `assess` each
compute it from the datasets and their grids (`build_meta_dataset`).
`meta.csv` is an export of it that no command reads back.

One rule decides whether a saved grid is the config's grid, for `grid`
(which resumes from it) and for `meta`, `train` and `assess` (which read
it): `_trusted_grid`. The grid's `.cache.json` marker, written after the
grid files, holds a content hash of the dataset file's bytes, the full
learner spec, methods, multipliers, `k` and `seed`. A grid without its
marker is no grid: `grid` computes it afresh and the other commands stop
with E_MISSING_INPUT. A marker that is unreadable or holds no hash is
E_GRID_CORRUPT, and a hash that differs from the config's is
E_CACHE_MISMATCH, so a stale grid never reaches a result.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .assessment import assess_bank, format_ara_table, write_report
from .config import RunConfig
from .data import (Dataset, csv_text, generate_mixture, ingest_csv, read_columns, write_csv,
                   write_files_atomically)
from .evaluation import GridFileError, QualityGrid, load_grid, quality_grid, save_grid
from .jsondoc import read_array, read_json, read_key
from .parallel import parallel_map
from .qualityvars import binarize_targets, format_multiplier, quality_row
from .recommender import (PRESETS, MetaRecord, build_meta_dataset, load_recommender,
                          recommend, save_recommender, train)


class PipelineError(Exception):
    """Command failure with a machine-parseable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # both arguments, so an error raised in a pool worker unpickles in the parent
        return type(self), (self.code, str(self))


APPROACH_LABELS = {"a1": "rec1", "a2": "rec2"}


def _manifest_path(cfg: RunConfig) -> Path:
    return cfg.out_dir() / "datasets" / "manifest.json"


def _hash_bytes(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _gen_config_doc(cfg: RunConfig) -> dict:
    mix = cfg.mixture
    return {
        "seed": cfg.seed,
        "count": cfg.count,
        "mixture": {
            "dim_range": list(mix.dim_range),
            "size_range": list(mix.size_range),
            "minor_fraction_range": list(mix.minor_fraction_range),
            "components_range": list(mix.components_range),
            "mean_range": list(mix.mean_range),
            "cov_scale_range": list(mix.cov_scale_range),
            "seed": mix.seed,
        },
    }


def cmd_gen(cfg: RunConfig) -> None:
    """Write `count` synthetic datasets plus a manifest."""
    ds_dir = cfg.out_dir() / "datasets"
    ds_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for index in range(cfg.count):
        s = generate_mixture(cfg.mixture, index)
        fname = f"{s.id}.csv"
        write_csv(s, ds_dir / fname, label_column=cfg.label_column)
        entries.append({"id": s.id, "file": fname, "rows": s.n, "dim": s.dim,
                        "n_minor": s.n_minor})
    manifest = {
        "format": "resamplerec-manifest",
        "config": _gen_config_doc(cfg),
        "config_hash": _hash_bytes(json.dumps(_gen_config_doc(cfg), sort_keys=True).encode()),
        "datasets": entries,
    }
    write_files_atomically({_manifest_path(cfg): json.dumps(manifest, sort_keys=True, indent=2)
                            + "\n"})
    print(f"gen: wrote {len(entries)} datasets to {ds_dir}")


def _bank_files(cfg: RunConfig) -> list[tuple[str, Path]]:
    """(dataset id, CSV file) of every dataset: the manifest's, then csv_dir's."""
    files: list[tuple[str, Path]] = []
    manifest = _manifest_path(cfg)
    if manifest.exists():
        where = f"manifest {manifest}"
        doc = read_json(manifest, "manifest", ValueError)
        for i, entry in enumerate(read_array(doc, "datasets", "an object", where)):
            ds_id, name = (read_key(entry, key, "a non-empty string", where,
                                    prefix=f"datasets[{i}].") for key in ("id", "file"))
            path = manifest.parent / name
            if not path.exists():
                raise PipelineError("E_MISSING_INPUT", f"dataset file missing: {path}")
            files.append((ds_id, path))
    if cfg.csv_dir:
        files += [(path.stem, path) for path in sorted(Path(cfg.csv_dir).glob("*.csv"))]
    if not files:
        raise PipelineError("E_MISSING_INPUT",
                            "no datasets: run `gen` first or set csv_dir")
    return files


def load_bank(cfg: RunConfig) -> list[Dataset]:
    """Datasets from the manifest and/or a user-provided CSV directory."""
    return [ingest_csv(path, label_column=cfg.label_column, dataset_id=ds_id)
            for ds_id, path in _bank_files(cfg)]


def _grid_def_doc(cfg: RunConfig) -> dict:
    return {
        "learner": cfg.learner.to_dict(),
        "methods": list(cfg.methods),
        "multipliers": [repr(m) for m in cfg.multiplier_values()],
        "k": cfg.k,
        "seed": cfg.seed,
    }


def _grid_input_hash(cfg: RunConfig, dataset_csv_bytes: bytes) -> str:
    return _hash_bytes(dataset_csv_bytes,
                       json.dumps(_grid_def_doc(cfg), sort_keys=True).encode())


def _grid_paths(cfg: RunConfig, dataset_id: str) -> tuple[Path, Path]:
    grid_dir = cfg.out_dir() / "grids"
    return grid_dir / f"{dataset_id}.csv", grid_dir / f"{dataset_id}.cache.json"


def _trusted_grid(cfg: RunConfig, dataset_id: str, input_hash: str) -> QualityGrid | None:
    """The saved grid of a dataset when its marker vouches that it is the config's
    grid; None when the grid file or its marker is missing.

    `input_hash` is `_grid_input_hash` of the config and the dataset's file.
    A marker that is unreadable or holds no hash raises GridFileError; one
    whose hash differs raises E_CACHE_MISMATCH, naming the grid-definition
    fields that differ.
    """
    csv_path, cache_path = _grid_paths(cfg, dataset_id)
    if not (csv_path.exists() and cache_path.exists()):
        return None
    saved_hash = read_key(read_json(cache_path, "grid marker", GridFileError), "input_hash",
                          "a string", f"grid marker {cache_path}", GridFileError)
    grid = load_grid(csv_path)
    if saved_hash != input_hash:
        want = {"learner": cfg.learner.token(), "k": cfg.k,
                "methods": [m for m in cfg.methods if m != "none"],
                "multipliers": cfg.multiplier_values(), "seed": cfg.seed}
        have = {"learner": grid.learner_id, "k": grid.k, "methods": grid.methods,
                "multipliers": grid.multipliers, "seed": grid.seed}
        differ = [name for name in want if want[name] != have[name]]
        cause = (f"was computed with another {', '.join(differ)} than the config" if differ
                 else "was computed before the dataset file or a learner setting changed")
        raise PipelineError("E_CACHE_MISMATCH", f"grid for {dataset_id} {cause}; "
                                                f"delete {csv_path.parent} and rerun `grid`")
    return grid


def _grid_pool_task(context, s: Dataset) -> tuple[str, int, int]:
    """Compute (or resume) one dataset's grid; returns (id, computed, cached)."""
    cfg, workers, files = context
    csv_path, cache_path = _grid_paths(cfg, s.id)
    input_hash = _grid_input_hash(cfg, files[s.id].read_bytes())
    old = _trusted_grid(cfg, s.id, input_hash)
    precomputed = {**old.cells, **old.skips} if old else {}
    cached = len(precomputed)
    grid = quality_grid(s, cfg.learner, list(cfg.methods), cfg.multiplier_values(),
                        cfg.k, cfg.seed, workers=workers, precomputed=precomputed)
    save_grid(grid, csv_path)
    # the cache marker goes last: a grid is resumed only when all its files are whole
    write_files_atomically({cache_path: json.dumps({"input_hash": input_hash}, sort_keys=True)})
    return s.id, len(grid.cells) + len(grid.skips) - cached, cached


def cmd_grid(cfg: RunConfig) -> None:
    """Evaluate one quality grid per dataset, reusing cached cells."""
    bank = load_bank(cfg)
    # several datasets run one per worker, each grid serially; a lone
    # dataset's cells share the workers instead
    inner = cfg.workers if len(bank) == 1 else 1
    results = parallel_map(_grid_pool_task, bank, cfg.workers,
                           (cfg, inner, dict(_bank_files(cfg))))
    computed = sum(r[1] for r in results)
    cached = sum(r[2] for r in results)
    total = computed + cached
    for ds_id, comp, cach in results:
        print(f"grid {ds_id}: {comp} computed, {cach} cached")
    pct = 100.0 * cached / total if total else 0.0
    print(f"grid: {computed} cells computed, {cached} cached ({pct:.1f}% cache hits)")


def load_grids(cfg: RunConfig, bank: list[Dataset]) -> list[QualityGrid]:
    """The grid of every dataset, each one the config's grid (`_trusted_grid`)."""
    files = dict(_bank_files(cfg))
    grids = []
    for s in bank:
        grid = _trusted_grid(cfg, s.id, _grid_input_hash(cfg, files[s.id].read_bytes()))
        if grid is None:
            raise PipelineError("E_MISSING_INPUT", f"grid missing for {s.id}: run `grid` first")
        grids.append(grid)
    return grids


def _meta_records(cfg: RunConfig) -> list[MetaRecord]:
    """The meta-dataset, built from the datasets and their grids."""
    bank = load_bank(cfg)
    return build_meta_dataset(list(zip(bank, load_grids(cfg, bank))), cfg.epsilon)


def cmd_meta(cfg: RunConfig) -> None:
    """Export the meta-dataset (one wide CSV row per dataset)."""
    records = _meta_records(cfg)
    rows = [{"dataset_id": rec.dataset_id,
             **{name: repr(v) for name, v in rec.features.as_dict().items()},
             **quality_row(rec.qv, binarize_targets(rec.qv, cfg.alpha,
                                                    cfg.use_windowed_pval_for_targets))}
            for rec in records]
    sidecar = {
        "epsilon": cfg.epsilon,
        "alpha": cfg.alpha,
        "methods": list(cfg.methods),
        "multipliers": [repr(m) for m in cfg.multiplier_values()],
        "k": cfg.k,
        "learner": cfg.learner.token(),
    }
    meta_path = cfg.out_dir() / "meta.csv"
    # every grid has the config's definition, so every row has the same columns
    write_files_atomically({meta_path: csv_text(list(rows[0]), [list(r.values()) for r in rows]),
                            cfg.out_dir() / "meta.meta.json": json.dumps(sidecar, sort_keys=True)})
    print(f"meta: wrote {len(records)} meta-examples to {meta_path}")


def cmd_train(cfg: RunConfig) -> None:
    """Train one recommender per configured approach on the full meta-dataset."""
    records = _meta_records(cfg)
    model_dir = cfg.out_dir() / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    for approach in cfg.approaches:
        preset = PRESETS[cfg.preset_for(approach)]
        model = train(records, preset,
                      use_windowed_pval_for_targets=cfg.use_windowed_pval_for_targets)
        path = model_dir / f"{approach}.json"
        save_recommender(model, path)
        print(f"train: {approach} ({preset.name}) -> {path}")


def cmd_recommend(cfg: RunConfig, model_path: str, data_path: str) -> None:
    """Print `method,multiplier` plus a JSON detail record for one dataset."""
    if not Path(model_path).exists():
        raise PipelineError("E_MISSING_INPUT", f"model file missing: {model_path}")
    if not Path(data_path).exists():
        raise PipelineError("E_MISSING_INPUT", f"data file missing: {data_path}")
    model = load_recommender(model_path)
    s = ingest_csv(data_path, label_column=cfg.label_column)
    rec = recommend(model, s)
    print(f"{rec.spec.method},{format_multiplier(rec.spec.multiplier)}")
    print(json.dumps({"method": rec.spec.method,
                      "multiplier": rec.spec.multiplier,
                      "provenance": rec.provenance,
                      "details": rec.details}, sort_keys=True))


def cmd_assess(cfg: RunConfig) -> None:
    """Meta-level k'-fold CV of the recommenders against the static strategies."""
    bank = load_bank(cfg)
    grids = load_grids(cfg, bank)
    recommender_cfgs = [(APPROACH_LABELS[a], PRESETS[cfg.preset_for(a)])
                        for a in cfg.approaches]
    report = assess_bank(list(zip(bank, grids)), recommender_cfgs,
                         cfg.k_prime, cfg.seed, cfg.learner, cfg.epsilon, workers=cfg.workers,
                         use_windowed_pval_for_targets=cfg.use_windowed_pval_for_targets)
    report_dir = cfg.out_dir() / "report"
    write_report(report, report_dir)
    print(format_ara_table(report.ara))
    print(f"assess: report written to {report_dir}")


def cmd_report(cfg: RunConfig) -> None:
    """Re-render the mean-RA table from an existing report."""
    ra_path = cfg.out_dir() / "report" / "ra.csv"
    if not ra_path.exists():
        raise PipelineError("E_MISSING_INPUT", "report/ra.csv missing: run `assess` first")
    try:
        strategies, values = read_columns(ra_path, ("strategy", "ra"))
        ras = list(map(float, values))
    except ValueError as exc:
        raise ValueError(f"cannot read {ra_path}: {exc}; rerun `assess`") from None
    if not ras:
        raise ValueError(f"cannot read {ra_path}: ra.csv has no rows; rerun `assess`")
    by_strategy: dict[str, list[float]] = {}
    for name, ra in zip(strategies, ras):
        by_strategy.setdefault(name, []).append(ra)
    ara = {name: float(np.mean(vals)) for name, vals in by_strategy.items()}
    print(format_ara_table(ara))
