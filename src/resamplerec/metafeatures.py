"""Dataset-level descriptors fed to the meta-models.

The registry is a fixed, ordered list of 25 base statistics plus a signed-log
companion for each (50 values total); meta-model feature subsets are selected
by these names. See docs/metafeatures.md for the full table.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset
from .stats import normal_two_sided_pvalue

_MOMENT_NAMES = ("abs_cov_eig", "skewness", "skew_pval", "kurtosis", "kurt_pval")

BASE_META_FEATURE_NAMES: tuple[str, ...] = (
    "n_objects",
    "n_features",
    "objects_features_ratio",
    "reversed_ir",
    "center_distance",
) + tuple(
    f"{agg}_{stat}_{cls}"
    for stat in _MOMENT_NAMES
    for cls in ("major", "minor")
    for agg in ("min", "max")
)

META_FEATURE_NAMES: tuple[str, ...] = BASE_META_FEATURE_NAMES + tuple(
    f"slog_{name}" for name in BASE_META_FEATURE_NAMES
)

# below this sample size the normality tests are skipped and p = 1.0 is used
MIN_TEST_SAMPLE = 8


def slog(x: float) -> float:
    """Signed log transform sign(x) * ln(1 + |x|); odd, increasing, slog(0) = 0."""
    return math.copysign(math.log1p(abs(x)), x) if x != 0.0 else 0.0


@dataclass(frozen=True)
class MetaFeatures:
    values: np.ndarray  # aligned with names
    names: tuple[str, ...] = META_FEATURE_NAMES

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.names),):
            raise ValueError(f"expected {len(self.names)} values, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("meta-features must be finite")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def select(self, names: list[str]) -> np.ndarray:
        return np.array([self[name] for name in names])

    def as_dict(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.names, self.values)}


def _column_moments(x: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """Central moments m2, m3, m4 of every column of the (n, d) matrix x.

    Each column is reduced along a contiguous row of the transposed copy, the
    same pairwise summation numpy applies to a single 1-D column. A column
    whose m2 ** 2 is not finite (m2 above ~1.3e154, or itself overflowed) has
    no finite kurtosis and is rejected with a ValueError that names it.
    """
    xt = np.ascontiguousarray(x.T)
    with np.errstate(all="ignore"):  # an overflowing column is reported below
        dev = xt - xt.mean(axis=1)[:, None]
        m2, m3, m4 = ((dev ** p).mean(axis=1).tolist() for p in (2, 3, 4))
    for f, v in enumerate(m2):
        try:
            finite = math.isfinite(v ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"feature column {f}: variance {v:.3g} is too large for "
                             "its moments to be finite")
    return m2, m3, m4


# Each statistic is written once, over a column's (n, m2, m3, m4), in scalar
# `math`: numpy's vectorised log/asinh/power are not bit-equal to libm. A
# denominator m2 ** 1.5 or m2 ** 2 that is zero, because m2 is or because the
# power underflows (m2 below ~1e-216 or ~1e-162), counts as zero variance.


def _skewness(n: int, m2: float, m3: float, m4: float) -> float:
    """Adjusted Fisher-Pearson skewness; 0.0 for n < 3 or zero variance."""
    scale = m2 ** 1.5
    if n < 3 or scale <= 0.0:
        return 0.0
    g1 = m3 / scale
    return math.sqrt(n * (n - 1)) / (n - 2) * g1


def _kurtosis(n: int, m2: float, m3: float, m4: float) -> float:
    """Excess kurtosis m4/m2^2 - 3; 0.0 for zero variance."""
    scale = m2 ** 2
    if scale <= 0.0:
        return 0.0
    return m4 / scale - 3.0


class _DegenerateSample(ValueError):
    """A test statistic that is undefined for the sample; its p-value is 1.0."""


def _skew_zstat(n: int, m2: float, m3: float, m4: float) -> float:
    """D'Agostino's normality Z for sample skewness."""
    if n < MIN_TEST_SAMPLE:
        raise ValueError(f"skewness test needs n >= {MIN_TEST_SAMPLE}")
    scale = m2 ** 1.5
    if scale <= 0.0:
        raise _DegenerateSample("zero-variance sample")
    g1 = m3 / scale
    y = g1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = 3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0) \
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return delta * math.asinh(y / alpha)


def _kurt_zstat(n: int, m2: float, m3: float, m4: float) -> float:
    """Anscombe-Glynn normality Z for sample kurtosis."""
    if n < MIN_TEST_SAMPLE:
        raise ValueError(f"kurtosis test needs n >= {MIN_TEST_SAMPLE}")
    scale = m2 ** 2
    if scale <= 0.0:
        raise _DegenerateSample("zero-variance sample")
    b2 = m4 / scale
    mean_b2 = 3.0 * (n - 1.0) / (n + 1.0)
    var_b2 = 24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))
    x = (b2 - mean_b2) / math.sqrt(var_b2)
    sqrt_beta1 = 6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0)) \
        * math.sqrt(6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0)))
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1 ** 2))
    term1 = 1.0 - 2.0 / (9.0 * a)
    denom = 1.0 + x * math.sqrt(2.0 / (a - 4.0))
    if denom == 0.0:
        raise _DegenerateSample("degenerate kurtosis statistic")
    term2 = math.copysign(abs((1.0 - 2.0 / a) / denom) ** (1.0 / 3.0), denom)
    return (term1 - term2) / math.sqrt(2.0 / (9.0 * a))


def _pvalue(zstat, n: int, m2: float, m3: float, m4: float) -> float:
    """Two-sided normal p-value of zstat; 1.0 where the statistic is degenerate."""
    try:
        return normal_two_sided_pvalue(zstat(n, m2, m3, m4))
    except _DegenerateSample:
        return 1.0


_skew_pvalue = partial(_pvalue, _skew_zstat)
_kurt_pvalue = partial(_pvalue, _kurt_zstat)


_COLUMN_STATS = {"skewness": _skewness, "skew_pval": _skew_pvalue,
                 "kurtosis": _kurtosis, "kurt_pval": _kurt_pvalue}


def _abs_cov_eigs(x: np.ndarray) -> tuple[float, float]:
    with np.errstate(all="ignore"):  # an overflowed covariance fails eigvalsh or is not finite
        cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
        eigs = np.abs(np.linalg.eigvalsh(cov))
    return float(eigs.min()), float(eigs.max())


def compute_meta_features(s: Dataset, names: Sequence[str] = META_FEATURE_NAMES
                          ) -> MetaFeatures:
    """The registry values `names` (by default all 50), in that order; requires
    >= 2 points per class.

    Only the statistics that `names` asks for are computed, each exactly as
    in the full vector, and only they must be finite.
    """
    unknown = set(names).difference(META_FEATURE_NAMES)
    if unknown:
        raise ValueError(f"unknown meta-feature {min(unknown)!r}")
    wanted = {name.removeprefix("slog_") for name in names}
    by_class = {c: s.features[s.labels == c] for c in (0, 1)}
    for c, x in by_class.items():
        if x.shape[0] < 2:
            raise ValueError(f"class {c} has fewer than 2 elements")
    base = {
        "n_objects": float(s.n),
        "n_features": float(s.dim),
        "objects_features_ratio": s.n / s.dim,
        "reversed_ir": s.n_minor / s.n_major,
    }
    if "center_distance" in wanted:
        with np.errstate(all="ignore"):  # an overflowed mean is refused as not finite
            base["center_distance"] = float(np.linalg.norm(by_class[0].mean(axis=0)
                                                           - by_class[1].mean(axis=0)))
    groups = [(stat, c, cls)
              for stat in _MOMENT_NAMES for c, cls in enumerate(("major", "minor"))
              if f"min_{stat}_{cls}" in wanted or f"max_{stat}_{cls}" in wanted]
    columns = {c: list(zip(*_column_moments(by_class[c])))
               for c in sorted({c for stat, c, _ in groups if stat != "abs_cov_eig"})}
    for stat, c, cls in groups:
        n_c = by_class[c].shape[0]
        if stat == "abs_cov_eig":
            lo, hi = _abs_cov_eigs(by_class[c])
        elif stat.endswith("_pval") and n_c < MIN_TEST_SAMPLE:
            lo = hi = 1.0
        else:
            vals = [_COLUMN_STATS[stat](n_c, *m) for m in columns[c]]
            lo, hi = min(vals), max(vals)
        base[f"min_{stat}_{cls}"], base[f"max_{stat}_{cls}"] = lo, hi
    values = [base[name] if name in base else slog(base[name[5:]]) for name in names]
    return MetaFeatures(values=np.array(values), names=tuple(names))
