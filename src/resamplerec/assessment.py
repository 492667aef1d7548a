"""Recommendation-accuracy assessment.

RA normalizes the mean CV quality of a chosen cell between the worst and
best cells evaluated for that dataset; ARA averages it over a bank. The
bank-level harness trains recommenders under k'-fold cross-validation over
datasets and compares them against static balance-to-IR-1 strategies, all
normalized on one shared per-dataset pool that includes any cells evaluated
on demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, csv_text, imbalance_ratio, write_files_atomically
from .evaluation import BASELINE_KEY, CellInfeasible, FoldSplits, QualityGrid, cv_quality
from .learners import LearnerSpec
from .parallel import parallel_map
from .recommender import RecommenderPreset, build_meta_dataset, recommend, train
from .resampling import ResamplingSpec
from .rng import derive_rng, derive_seed


# each static strategy's method, applied until the classes balance (IR 1)
STATIC_STRATEGIES = {"no-resample": "none", "ros-eqs": "ros", "rus-eqs": "rus",
                     "smote5-eqs": "smote5"}


def recommendation_accuracies(grid: QualityGrid, extra: dict[tuple[str, float], float]
                              ) -> dict[tuple[str, float], float]:
    """The RA of every cell in the pool: its mean quality, min-max normalised.

    The pool is every evaluated grid cell (baseline included) plus the
    `extra` means, such as the static cells scored off the grid, which
    replace a grid cell's mean under the same key. Every RA is 1.0 when the
    pool has no spread.
    """
    pool = {cell: float(v.mean()) for cell, v in grid.cells.items()}
    pool.update(extra)
    lo = min(pool.values())
    hi = max(pool.values())
    return {cell: 1.0 if hi == lo else (mean - lo) / (hi - lo) for cell, mean in pool.items()}


def _static_cells_task(learner, item):
    """Each static strategy's cell and mean on the grid's folds: {strategy: (key, mean)}.

    A cell off the grid gets an RNG stream of its own method and multiplier,
    whatever asks for it. RUS-to-balance is capped at the largest multiplier
    feasible on every training split (fold rounding can push IR(train)
    slightly below IR(S)). A cell that still cannot be applied falls back to
    the baseline cell.
    """
    s, grid = item
    splits = FoldSplits(s, grid.k, grid.definition.seed)
    rus_cap = min(splits.train(j).n_major / splits.train(j).n_minor for j in range(grid.k))
    out: dict[str, tuple[tuple[str, float], float]] = {}
    for strategy, method in STATIC_STRATEGIES.items():
        out[strategy] = (BASELINE_KEY, float(grid.baseline.mean()))
        if method == "none":
            continue
        m = min(imbalance_ratio(s), rus_cap) if method == "rus" else imbalance_ratio(s)
        seed = derive_seed(grid.definition.seed, s.id, method, "on-demand", repr(m))
        try:
            scores = cv_quality(splits, learner, ResamplingSpec(method, m), seed)
        except CellInfeasible:
            continue
        out[strategy] = ((method, m), float(scores.mean()))
    return out


@dataclass
class AssessmentReport:
    ra: dict[tuple[str, str], float]          # (dataset_id, strategy) -> RA
    ara: dict[str, float]                     # strategy -> mean RA
    ecdf_points: dict[str, list[tuple[float, float]]]
    metadata: dict = field(default_factory=dict)


def ecdf(values: np.ndarray) -> list[tuple[float, float]]:
    """Point list of y(x) = share of values strictly below x.

    Each distinct value contributes its step as two points; the list starts
    at (0, 0) and ends at y = 1.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty input")
    n = values.size
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    for v in np.unique(values):
        below = float((values < v).sum()) / n
        at_or_below = float((values <= v).sum()) / n
        for pt in ((float(v), below), (float(v), at_or_below)):
            if points[-1] != pt:
                points.append(pt)
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def assess_bank(bank: list[tuple[Dataset, QualityGrid]],
                recommender_cfgs: list[tuple[str, RecommenderPreset]],
                k_prime: int, seed: int, learner: LearnerSpec,
                epsilon: float,
                workers: int = 1,
                use_windowed_pval_for_targets: bool = False) -> AssessmentReport:
    """k'-fold cross-validation over datasets.

    Each recommender is trained on the meta-records of all datasets outside
    the fold and produces one out-of-fold recommendation per dataset; static
    strategies need no training and are applied to every dataset. All RA
    values for one dataset come from one pool, built once. A recommended cell
    that the grid skipped (infeasible on some training split, though feasible
    on the whole dataset) scores as the baseline cell, like a static cell
    that cannot be applied.
    """
    if k_prime < 2:
        raise ValueError("k_prime must be >= 2")
    if len(bank) < k_prime:
        raise ValueError("bank too small for k_prime folds")
    datasets = {s.id: s for s, _ in bank}
    grids = {s.id: g for s, g in bank}
    ids = [s.id for s, _ in bank]

    records_by_id = {rec.dataset_id: rec for rec in build_meta_dataset(bank, epsilon)}

    rng = derive_rng(seed, "meta-cv")
    order = [ids[i] for i in rng.permutation(len(ids))]
    fold_ids = [list(chunk) for chunk in np.array_split(np.array(order, dtype=object), k_prime)]

    recommended: dict[tuple[str, str], tuple[str, float]] = {}  # the cell of each answer
    fold_train_ids: list[dict] = []
    for j, test_ids in enumerate(fold_ids):
        train_ids = [i for i in order if i not in set(test_ids)]
        train_records = [records_by_id[i] for i in train_ids]
        fold_train_ids.append({"fold": j, "train_ids": sorted(train_ids),
                               "test_ids": sorted(test_ids)})
        for name, preset in recommender_cfgs:
            model = train(train_records, preset,
                          use_windowed_pval_for_targets=use_windowed_pval_for_targets)
            for ds_id in test_ids:
                spec = recommend(model, datasets[ds_id]).spec
                recommended[(ds_id, name)] = (spec.method, spec.multiplier)

    static_cells = dict(zip(ids, parallel_map(_static_cells_task, bank, workers, learner)))

    strategy_names = [name for name, _ in recommender_cfgs] + list(STATIC_STRATEGIES)

    ra: dict[tuple[str, str], float] = {}
    for ds_id in ids:
        accuracies = recommendation_accuracies(grids[ds_id], dict(static_cells[ds_id].values()))
        for name, _ in recommender_cfgs:
            key = recommended[(ds_id, name)]
            if key not in accuracies and key in grids[ds_id].skips:
                key = BASELINE_KEY
            ra[(ds_id, name)] = accuracies[key]
        for strategy, (key, _) in static_cells[ds_id].items():
            ra[(ds_id, strategy)] = accuracies[key]

    ara = {name: float(np.mean([ra[(ds_id, name)] for ds_id in ids]))
           for name in strategy_names}
    ecdf_points = {name: ecdf(np.array([ra[(ds_id, name)] for ds_id in ids]))
                   for name in strategy_names}
    metadata = {
        "k_prime": k_prime,
        "seed": seed,
        "learner": learner.token(),
        "n_datasets": len(ids),
        "strategies": strategy_names,
        "meta_cv_folds": fold_train_ids,
        "grid_k": bank[0][1].k if bank else None,
    }
    return AssessmentReport(ra=ra, ara=ara, ecdf_points=ecdf_points, metadata=metadata)


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
               "#17becf", "#7f7f7f"]


def ecdf_svg(ecdf_points: dict[str, list[tuple[float, float]]]) -> str:
    """Minimal self-contained SVG line plot of the RA distribution functions."""
    width, height, margin = 640, 440, 60
    px = width - 2 * margin
    py = height - 2 * margin - 20

    def sx(x):
        return margin + x * px

    def sy(y):
        return height - margin - y * py

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{margin}" y="{sy(1.0):.1f}" width="{px}" height="{py}" '
        'fill="none" stroke="#000"/>',
        f'<text x="{margin + px / 2:.1f}" y="{height - 18}" text-anchor="middle" '
        'font-size="13">RA</text>',
        f'<text x="18" y="{sy(0.5):.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {sy(0.5):.1f})">share of datasets below</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        lines.append(f'<text x="{sx(tick):.1f}" y="{height - margin + 16}" '
                     f'text-anchor="middle" font-size="11">{tick:g}</text>')
        lines.append(f'<text x="{margin - 8}" y="{sy(tick) + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{tick:g}</text>')
    for i, (name, points) in enumerate(sorted(ecdf_points.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        lines.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = margin + 14 * i
        lines.append(f'<line x1="{margin + 6}" y1="{ly}" x2="{margin + 26}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        lines.append(f'<text x="{margin + 30}" y="{ly + 4}" font-size="11">{name}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_report(report: AssessmentReport, out_dir: str | Path) -> None:
    """report/ra.csv, report/ecdf_<strategy>.csv, report/ecdf.svg, report/summary.json.

    The files are written atomically, summary.json last.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {out_dir / "ra.csv": csv_text(
        ["dataset_id", "strategy", "ra"],
        [[ds_id, strategy, repr(value)] for (ds_id, strategy), value in sorted(report.ra.items())])}
    for name, points in sorted(report.ecdf_points.items()):
        files[out_dir / f"ecdf_{name}.csv"] = csv_text(
            ["x", "y"], [[repr(x), repr(y)] for x, y in points])
    files[out_dir / "ecdf.svg"] = ecdf_svg(report.ecdf_points)
    summary = {
        "ara": {name: report.ara[name] for name in sorted(report.ara)},
        "metadata": report.metadata,
    }
    files[out_dir / "summary.json"] = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    write_files_atomically(files)


def format_ara_table(ara: dict[str, float]) -> str:
    """Plain-text mean-RA table in the layout of the headline figures."""
    rows = sorted(ara.items(), key=lambda kv: -kv[1])
    width = max(len(name) for name, _ in rows)
    lines = [f"{'strategy':<{width}}  mean RA", f"{'-' * width}  -------"]
    for name, value in rows:
        lines.append(f"{name:<{width}}  {value:.4f}")
    return "\n".join(lines)
