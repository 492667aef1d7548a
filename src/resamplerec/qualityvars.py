"""Quality variables: per-cell means, paired one-sided t-test p-values against
the no-resampling baseline, windowed p-values, per-method best multipliers,
and the binarized meta-learning targets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluation import BASELINE_KEY, QualityGrid
from .stats import student_t_sf


def paired_ttest_pvalues(resampled: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """One-sided paired t-test of each row of `resampled` against `baseline`:
    small p means the row's scores are higher.

    Rows and baseline must come from the same fold assignment. Zero-variance
    differences use the limit conventions 0 / 1 / 0.5 for positive /
    negative / zero mean difference.
    """
    resampled = np.asarray(resampled, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if resampled.ndim != 2 or baseline.ndim != 1 or resampled.shape[1] != baseline.shape[0]:
        raise ValueError("fold vectors must have equal length")
    k = baseline.shape[0]
    if k < 2:
        raise ValueError("need at least 2 folds")
    d = resampled - baseline
    mean = d.mean(axis=1)
    sd = d.std(axis=1, ddof=1)
    p = np.where(mean > 0.0, 0.0, np.where(mean < 0.0, 1.0, 0.5))
    varying = sd != 0.0
    if varying.any():
        p[varying] = student_t_sf(mean[varying] / (sd[varying] / math.sqrt(k)), k - 1)
    return p


@dataclass(frozen=True)
class CellVars:
    q_mean: float
    q_pval: float
    q_pvalw: float


@dataclass(frozen=True)
class MethodVars:
    m_star: float
    q_mean_at_star: float
    q_pval_at_star: float


@dataclass(frozen=True)
class QualityVariables:
    q0_mean: float
    epsilon: float
    methods: tuple[str, ...]
    multipliers: tuple[float, ...]
    cells: dict[tuple[str, float], CellVars] = field(default_factory=dict)
    per_method: dict[str, MethodVars] = field(default_factory=dict)

    def method_cells(self, method: str) -> list[tuple[float, CellVars]]:
        return [(m, self.cells[(method, m)]) for m in self.multipliers
                if (method, m) in self.cells]


def compute_quality_variables(grid: QualityGrid, epsilon: float) -> QualityVariables:
    """Fold vectors -> quality variables. Skipped cells are excluded everywhere:
    they never enter windows or argmins."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if BASELINE_KEY not in grid.cells:
        raise ValueError("grid is missing the no-resampling cell")
    baseline = grid.baseline
    q0_mean = float(baseline.mean())

    methods, multipliers = grid.definition.methods, grid.definition.multipliers
    keys = [(method, m) for method in methods for m in multipliers if (method, m) in grid.cells]
    scores = np.array([grid.cells[key] for key in keys], dtype=np.float64)
    scores = scores.reshape(len(keys), baseline.shape[0])
    means = dict(zip(keys, scores.mean(axis=1).tolist()))
    pvals = dict(zip(keys, paired_ttest_pvalues(scores, baseline).tolist()))

    cells: dict[tuple[str, float], CellVars] = {}
    per_method: dict[str, MethodVars] = {}
    for method in methods:
        present = [m for m in multipliers if (method, m) in means]
        if not present:
            continue  # every multiplier skipped: method omitted
        m_arr = np.array(present)
        p_arr = np.array([pvals[(method, m)] for m in present])
        in_window = np.abs(m_arr[None, :] - m_arr[:, None]) < epsilon
        windowed = np.where(in_window, p_arr[None, :], -np.inf).max(axis=1).tolist()
        for m, q_pvalw in zip(present, windowed):
            cells[(method, m)] = CellVars(
                q_mean=means[(method, m)],
                q_pval=pvals[(method, m)],
                q_pvalw=q_pvalw,
            )
        m_star = min(present, key=lambda m: (cells[(method, m)].q_pvalw, m))
        per_method[method] = MethodVars(
            m_star=m_star,
            q_mean_at_star=cells[(method, m_star)].q_mean,
            q_pval_at_star=cells[(method, m_star)].q_pval,
        )
    return QualityVariables(
        q0_mean=q0_mean, epsilon=epsilon, methods=methods, multipliers=multipliers,
        cells=cells, per_method=per_method)


@dataclass(frozen=True)
class MetaTargets:
    alpha: float
    y_rm: dict[tuple[str, float], int]
    y_r: dict[str, int]
    z_r: dict[str, float]


def binarize_targets(qv: QualityVariables, alpha: float,
                     use_windowed_pval_for_targets: bool = False) -> MetaTargets:
    """Per-cell and per-method indicators of beating the baseline at level alpha.

    One rule for every target: a cell helps when its p-value is below alpha,
    a method when its best cell does, and the best multiplier is the argmin
    of the p-value (ties: the smaller multiplier). By default the p-value is
    the plain per-cell one, matching the literal target formulas; the
    windowed switch uses the eps-window maximum instead (whose argmin is
    `m_star`), which suppresses single-cell false positives from testing
    many cells.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    pval = "q_pvalw" if use_windowed_pval_for_targets else "q_pval"
    y_rm: dict[tuple[str, float], int] = {}
    y_r: dict[str, int] = {}
    z_r: dict[str, float] = {}
    for method in qv.methods:
        present = [(getattr(cv, pval), m) for m, cv in qv.method_cells(method)]
        if not present:
            continue
        for p, m in present:
            y_rm[(method, m)] = int(p < alpha)
        p_best, z_r[method] = min(present)
        y_r[method] = int(p_best < alpha)
    return MetaTargets(alpha=alpha, y_rm=y_rm, y_r=y_r, z_r=z_r)


def format_multiplier(m: float) -> str:
    return format(float(m), ".10g")


def quality_row(qv: QualityVariables, targets: MetaTargets) -> dict[str, str]:
    """Wide one-row serialization: qmean[r][m], qpval[r][m], qpvalw[r][m],
    y[r][m], yr[r], zr[r], mstar[r] plus the stats at the best multiplier."""
    row: dict[str, str] = {"q0mean": repr(qv.q0_mean)}
    for method in qv.methods:
        for m in qv.multipliers:
            key = (method, m)
            suffix = f"[{method}][{format_multiplier(m)}]"
            if key in qv.cells:
                cv = qv.cells[key]
                row[f"qmean{suffix}"] = repr(cv.q_mean)
                row[f"qpval{suffix}"] = repr(cv.q_pval)
                row[f"qpvalw{suffix}"] = repr(cv.q_pvalw)
                row[f"y{suffix}"] = str(targets.y_rm[key])
            else:
                for prefix in ("qmean", "qpval", "qpvalw", "y"):
                    row[f"{prefix}{suffix}"] = ""
        if method in qv.per_method:
            mv = qv.per_method[method]
            row[f"yr[{method}]"] = str(targets.y_r[method])
            row[f"zr[{method}]"] = repr(targets.z_r[method])
            row[f"mstar[{method}]"] = repr(mv.m_star)
            row[f"qmeanstar[{method}]"] = repr(mv.q_mean_at_star)
            row[f"qpvalstar[{method}]"] = repr(mv.q_pval_at_star)
        else:
            for prefix in ("yr", "zr", "mstar", "qmeanstar", "qpvalstar"):
                row[f"{prefix}[{method}]"] = ""
    return row
