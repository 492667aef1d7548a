"""PR-AUC scoring and the cross-validated quality grid.

The protocol rule that everything downstream depends on: resampling is
applied to the training split only, never to the held-out fold. All cells
of one grid share a single fold assignment so per-fold scores are paired
across cells.

A grid's definition is one value, `GridDef`: the config builds it once
(`config.RunConfig.grid`), a grid holds it, and its `.meta.json` stores it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, csv_text, read_columns, stratified_folds, write_files_atomically
from .jsondoc import read_array, read_json, read_key
from .learners import LearnerSpec, fit_arrays, predict_scores
from .parallel import parallel_map
from .resampling import ResamplingSpec, feasible, resample, smote_neighbor_order
from .rng import derive_seed

BASELINE_KEY = ("none", 1.0)


class CellInfeasible(Exception):
    """Raised when a resampling spec cannot be applied to some training split."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def pr_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Average precision with pooled tie groups.

    Rows are ranked by score descending; precision is computed at the end of
    each group of tied scores and assigned to every positive in the group,
    which makes the value invariant to permutations within ties.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be equal-length vectors")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("PR-AUC undefined: no positive labels")
    order = np.argsort(-scores, kind="stable")
    ys = labels[order]
    ss = scores[order]
    group_end = np.ones(ss.shape[0], dtype=bool)
    group_end[:-1] = ss[:-1] != ss[1:]
    ends = np.flatnonzero(group_end)
    cum_pos = np.cumsum(ys)[ends]
    precision = cum_pos / (ends + 1.0)
    pos_per_group = np.diff(np.concatenate([[0], cum_pos]))
    return float((precision * pos_per_group).sum() / n_pos)


class FoldSplits:
    """One dataset's grid folds: each fold's training split and held-out rows, built on first use.

    The fold assignment of a grid on `s` with `k` folds and master seed
    `seed` is derived here and nowhere else, so every cell scored on it, a
    grid cell or an assessment's static cell, is paired fold for fold. A grid
    builds each training `Dataset` (a derived one: its rows come from the
    validated `s`), each held-out block, and for SMOTE cells each neighbour
    order once, and hands them to every cell.
    """

    def __init__(self, s: Dataset, k: int, seed: int):
        self.s = s
        self.folds = stratified_folds(s, k, derive_seed(seed, s.id, "folds"))
        self._train: dict[int, Dataset] = {}
        self._test: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._order: dict[int, np.ndarray] = {}

    def train(self, j: int) -> Dataset:
        if j not in self._train:
            keep = ~self.folds.test_mask(j)
            self._train[j] = Dataset._derived(f"{self.s.id}#train{j}", self.s.features[keep],
                                              self.s.labels[keep])
        return self._train[j]

    def test(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels) of held-out fold j, read-only."""
        if j not in self._test:
            mask = self.folds.test_mask(j)
            block = (self.s.features[mask], self.s.labels[mask])
            for a in block:
                a.setflags(write=False)
            self._test[j] = block
        return self._test[j]

    def neighbor_order(self, j: int) -> np.ndarray:
        if j not in self._order:
            self._order[j] = smote_neighbor_order(self.train(j))
        return self._order[j]


def cv_quality(splits: FoldSplits, learner: LearnerSpec, spec: ResamplingSpec,
               seed: int) -> np.ndarray:
    """One PR-AUC per fold: resample the training split, fit, score the held-out fold.

    Raises CellInfeasible when the spec cannot be applied to every training
    split; callers building grids record that as a skipped cell.
    """
    k = splits.folds.k
    for j in range(k):
        train = splits.train(j)
        reason = feasible(spec, train.n_major, train.n_minor)
        if reason is not None:
            raise CellInfeasible(f"fold {j}: {reason}")
    scores = np.empty(k)
    for j in range(k):
        fold_seed = derive_seed(seed, "fold", j)
        order = splits.neighbor_order(j) if spec.smote_k is not None else None
        resampled = resample(splits.train(j), spec, fold_seed, neighbor_order=order)
        model = fit_arrays(learner, resampled.features, resampled.labels)
        x_test, y_test = splits.test(j)
        scores[j] = pr_auc(y_test, predict_scores(model, x_test))
    return scores


@dataclass(frozen=True)
class GridDef:
    """What a grid's `.meta.json` stores and two grids are compared by: learner token,
    methods but "none" (the baseline every grid scores), multipliers, `k`, `seed`.
    One built by `of` also holds, uncompared, the learner spec and methods as given."""

    learner: str
    k: int
    methods: tuple[str, ...]
    multipliers: tuple[float, ...]
    seed: int
    learner_spec: LearnerSpec | None = field(default=None, compare=False)
    given_methods: tuple[str, ...] = field(default=(), compare=False)

    @classmethod
    def of(cls, learner: LearnerSpec, methods, multipliers, k: int, seed: int) -> GridDef:
        """`learner`'s grid over `methods` x `multipliers`, `k` folds, master seed `seed`."""
        return cls(learner.token(), k, tuple(m for m in methods if m != "none"),
                   tuple(float(m) for m in multipliers), seed, learner, tuple(methods))

    def to_dict(self) -> dict:
        """The compared fields, in the order a mismatch names them; multipliers by repr."""
        return {"learner": self.learner, "k": self.k, "methods": list(self.methods),
                "multipliers": [repr(m) for m in self.multipliers], "seed": self.seed}


@dataclass
class QualityGrid:
    """Per-(method, multiplier) fold-score vectors for one dataset and grid definition."""

    dataset_id: str
    definition: GridDef
    cells: dict[tuple[str, float], np.ndarray] = field(default_factory=dict)
    skips: dict[tuple[str, float], str] = field(default_factory=dict)

    def __post_init__(self):
        if BASELINE_KEY not in self.cells and self.cells:
            raise ValueError("grid must contain the no-resampling cell")

    @property
    def k(self) -> int:
        return self.definition.k

    @property
    def baseline(self) -> np.ndarray:
        return self.cells[BASELINE_KEY]

    def cell_keys(self) -> list[tuple[str, float]]:
        """Canonical cell order: baseline first, then methods x multipliers."""
        d = self.definition
        return [BASELINE_KEY] + [(method, m) for method in d.methods for m in d.multipliers]


def cell_seed(master_seed: int, dataset_id: str, method: str, mult_index: int) -> int:
    return derive_seed(master_seed, dataset_id, method, mult_index)


# pool tasks per worker for one grid: enough that the workers finish close together, few
# enough that sending each task and its result costs little next to the fits it runs
_RUNS_PER_WORKER = 8


def _grid_cell_task(context, run):
    """For each grid cell of a run, its fold scores or the reason it is skipped."""
    splits, learner, master_seed = context
    out = []
    for method, multiplier, mult_index in run:
        try:
            out.append(cv_quality(splits, learner, ResamplingSpec(method, multiplier),
                                  cell_seed(master_seed, splits.s.id, method, mult_index)))
        except CellInfeasible as exc:
            out.append(exc.reason)
    return out


def quality_grid(s: Dataset, definition: GridDef, workers: int = 1,
                 precomputed: dict[tuple[str, float], np.ndarray | str] | None = None
                 ) -> QualityGrid:
    """Evaluate every (method, multiplier) cell of `definition` plus the no-resampling cell.

    All cells share one fold assignment. Each cell derives its own RNG
    stream, so results are identical for any worker count or evaluation
    order. The pending cells go to `parallel_map` as a few strided runs per
    worker, each run one task, so cheap and costly methods mix in every run.
    `precomputed` entries (cached fold vectors, or skip-reason strings) are
    trusted and not rerun.
    """
    grid = QualityGrid(s.id, definition)
    tasks = [("none", 1.0, -1)] + [(method, m, i) for method in definition.methods
                                   for i, m in enumerate(definition.multipliers)]
    results = dict(precomputed or {})
    pending = [t for t in tasks if t[:2] not in results]
    n_runs = min(len(pending), _RUNS_PER_WORKER * max(workers, 1))
    runs = [pending[i::n_runs] for i in range(n_runs)]
    context = (FoldSplits(s, definition.k, definition.seed), definition.learner_spec,
               definition.seed)
    for run, values in zip(runs, parallel_map(_grid_cell_task, runs, workers, context)):
        results.update(zip([t[:2] for t in run], values))

    for method, m, _ in tasks:
        value = results[(method, m)]
        if isinstance(value, str):
            grid.skips[(method, m)] = value
        else:
            grid.cells[(method, m)] = np.asarray(value, dtype=np.float64)
    return grid


def save_grid(grid: QualityGrid, csv_path: str | Path) -> None:
    """Long-format CSV plus a skip sidecar and a JSON meta file; reload is bit-exact.

    Each file is written atomically (`write_files_atomically`).
    """
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    scores = [[grid.dataset_id, grid.definition.learner, method, repr(m), j, repr(float(score))]
              for method, m in grid.cell_keys() if (method, m) in grid.cells
              for j, score in enumerate(grid.cells[(method, m)])]
    skips = [[grid.dataset_id, grid.definition.learner, key[0], repr(key[1]), grid.skips[key]]
             for key in grid.cell_keys() if key in grid.skips]
    meta = {"dataset_id": grid.dataset_id, **grid.definition.to_dict()}
    write_files_atomically({
        csv_path: csv_text(["dataset_id", "learner", "method", "multiplier", "fold", "score"],
                            scores),
        _skips_path(csv_path): csv_text(
            ["dataset_id", "learner", "method", "multiplier", "reason"], skips),
        _meta_path(csv_path): json.dumps(meta, sort_keys=True),
    })


def _skips_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".skips.csv")


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".meta.json")


class GridFileError(ValueError):
    """A saved grid that is unreadable, truncated or disagrees with its meta file."""

    code = "E_GRID_CORRUPT"


def load_grid(csv_path: str | Path) -> QualityGrid:
    """Read a grid written by `save_grid`; raise GridFileError unless it is whole.

    Every cell the meta file defines must be either scored, with one finite
    score in [0, 1] for each fold 0..k-1, or skipped, and no row may name a
    cell, dataset or learner outside that definition.
    """
    csv_path = Path(csv_path)
    meta_path = _meta_path(csv_path)
    meta = read_json(meta_path, "grid meta", GridFileError)
    where = f"grid meta {meta_path}"
    grid = QualityGrid(read_key(meta, "dataset_id", "a string", where, GridFileError), GridDef(
        learner=read_key(meta, "learner", "a string", where, GridFileError),
        k=read_key(meta, "k", "an integer", where, GridFileError, low=2),
        seed=read_key(meta, "seed", "an integer", where, GridFileError),
        methods=tuple(read_array(meta, "methods", "a string", where, GridFileError)),
        multipliers=tuple(float(m) for m in read_array(meta, "multipliers", "a float string",
                                                       where, GridFileError))))
    try:
        ds_ids, learners, methods, mults, folds, scores = read_columns(
            csv_path, ("dataset_id", "learner", "method", "multiplier", "fold", "score"))
        mult_of = {text: float(text) for text in set(mults)}
        keys = list(zip(methods, map(mult_of.__getitem__, mults)))
        fold = np.array(list(map(int, folds)), dtype=np.int64)
        scores = np.array(list(map(float, scores)), dtype=np.float64)
        methods, mults, reasons = read_columns(_skips_path(csv_path),
                                               ("method", "multiplier", "reason"))
        skips = {(method, float(m)): reason for method, m, reason in zip(methods, mults, reasons)}
    except (OSError, ValueError, OverflowError) as exc:
        raise GridFileError(f"cannot read grid {csv_path}: {exc}") from exc

    if set(zip(ds_ids, learners)) - {(grid.dataset_id, grid.definition.learner)}:
        raise GridFileError(f"grid {csv_path}: a row names another dataset or learner")
    defined = grid.cell_keys()
    index = {key: i for i, key in enumerate(defined)}
    for key in list(dict.fromkeys(keys)) + list(skips):
        if key not in index:
            raise GridFileError(f"grid {csv_path}: cell {key} is not in its definition")
    # one (cell, fold) slot per row: a whole cell has k rows filling its k slots once each
    cell = np.array(list(map(index.__getitem__, keys)), dtype=np.intp)
    slot = (fold >= 0) & (fold < grid.k)
    filled = np.zeros((len(defined), grid.k), dtype=np.intp)
    np.add.at(filled, (cell[slot], fold[slot]), 1)
    values = np.full((len(defined), grid.k), np.nan)
    values[cell[slot], fold[slot]] = scores[slot]
    n_rows = np.bincount(cell, minlength=len(defined)).tolist()
    whole = ((filled == 1).all(axis=1) & (np.asarray(n_rows) == grid.k)).tolist()
    in_range = ((values >= 0.0) & (values <= 1.0)).all(axis=1).tolist()  # False for NaN
    for i, key in enumerate(defined):
        if key in skips:
            if n_rows[i] or key == BASELINE_KEY:
                raise GridFileError(f"grid {csv_path}: cell {key} cannot be skipped")
            continue
        if not whole[i]:
            raise GridFileError(f"grid {csv_path}: cell {key} has {n_rows[i]} fold rows "
                                f"(expected folds 0..{grid.k - 1}, each once)")
        if not in_range[i]:
            raise GridFileError(f"grid {csv_path}: cell {key} has a score outside [0, 1]")
        grid.cells[key] = values[i]
    grid.skips = skips
    return grid
