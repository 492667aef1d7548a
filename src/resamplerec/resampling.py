"""Resampling methods: random over-/under-sampling and SMOTE.

Every method takes a multiplier m >= 1 and moves the imbalance ratio from
IR to IR/m (up to integer rounding of the add/drop counts).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data import Dataset, imbalance_ratio, round_half_up
from .rng import derive_rng

METHOD_NONE = "none"
METHOD_ROS = "ros"
METHOD_RUS = "rus"

_SMOTE_RE = re.compile(r"^smote([1-9][0-9]*)$")  # k >= 1, one spelling per k

# float slack for m <= IR checks: IR values come from small-integer divisions
_IR_TOL = 1e-9


@dataclass(frozen=True)
class ResamplingSpec:
    """A method token plus multiplier.

    Tokens: "none", "ros", "rus", "smote<k>" (e.g. "smote5").
    """

    method: str
    multiplier: float = 1.0

    def __post_init__(self):
        if self.method != METHOD_NONE and self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.method == METHOD_NONE:
            object.__setattr__(self, "multiplier", 1.0)
        elif self.method not in (METHOD_ROS, METHOD_RUS) and self.smote_k is None:
            raise ValueError(f"unknown resampling method {self.method!r}")
        object.__setattr__(self, "multiplier", float(self.multiplier))

    @property
    def smote_k(self) -> int | None:
        m = _SMOTE_RE.match(self.method)
        return int(m.group(1)) if m else None


def feasible(spec: ResamplingSpec, n_major: int, n_minor: int) -> str | None:
    """Return None when spec applies to the given class counts, else a reason."""
    if spec.method == METHOD_NONE:
        return None
    if spec.method == METHOD_RUS:
        ir = n_major / n_minor
        if spec.multiplier > ir * (1.0 + _IR_TOL):
            return f"rus multiplier {spec.multiplier:g} exceeds IR {ir:g}"
        return None
    k = spec.smote_k
    if k is not None and n_minor < k + 1:
        return f"smote needs at least {k + 1} minor points, have {n_minor}"
    return None


def random_oversample(s: Dataset, m: float, seed: int) -> Dataset:
    """Append round((m-1)*|C1|) uniform-with-replacement copies of minor rows."""
    if m < 1.0:
        raise ValueError("multiplier must be >= 1")
    n_add = round_half_up((m - 1.0) * s.n_minor)
    if n_add == 0:
        return s
    rng = derive_rng(seed, "ros")
    picks = s.minor_rows[rng.integers(0, s.n_minor, size=n_add)]
    x = np.vstack([s.features, s.features[picks]])
    y = np.concatenate([s.labels, np.ones(n_add, dtype=np.int64)])
    return Dataset._derived(s.id, x, y)


def random_undersample(s: Dataset, m: float, seed: int) -> Dataset:
    """Drop a uniformly chosen subset of round(((m-1)/m)*|C0|) major rows."""
    if m < 1.0:
        raise ValueError("multiplier must be >= 1")
    ir = imbalance_ratio(s)
    if m > ir * (1.0 + _IR_TOL):
        raise ValueError(f"rus multiplier {m:g} exceeds IR {ir:g}")
    n_drop = round_half_up((m - 1.0) / m * s.n_major)
    if s.n_major - n_drop < 1:
        raise ValueError("undersampling would empty the major class")
    if n_drop == 0:
        return s
    rng = derive_rng(seed, "rus")
    drop = rng.choice(s.major_rows, size=n_drop, replace=False)
    keep = np.ones(s.n, dtype=bool)
    keep[drop] = False
    return Dataset._derived(s.id, s.features[keep], s.labels[keep])


def smote_neighbor_order(s: Dataset) -> np.ndarray:
    """Every minor row's other minor rows, nearest first.

    Row i of the (n_minor, n_minor) result ranks the minor rows of s (in
    dataset order) by Euclidean distance to minor row i; ties go to the lower
    index and row i itself comes last. `smote` with k neighbors uses the
    first k columns, so one order serves every k.
    """
    minors = s.features[s.minor_rows]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ranks as infinitely far
        diff = minors[:, None, :] - minors[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    # stable sort keeps lower indices first among equal distances
    return np.argsort(dist, axis=1, kind="stable")


def smote(s: Dataset, m: float, k: int, seed: int,
          neighbor_order: np.ndarray | None = None) -> Dataset:
    """Append synthetic minors on segments to k-nearest minor neighbors.

    Each new point is x_i + u * (x_j - x_i) with u ~ U[0,1], x_i uniform over
    the minor class and x_j uniform over x_i's k nearest minor neighbors
    (Euclidean, self excluded, distance ties broken by lower index).
    `neighbor_order` is `smote_neighbor_order(s)`, computed here when omitted.
    New points that overflow to a non-finite value raise a ValueError.
    """
    if m < 1.0:
        raise ValueError("multiplier must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    minor_idx = s.minor_rows
    n_minor = minor_idx.size
    if n_minor < k + 1:
        raise ValueError("not enough minor points for k neighbors")
    n_add = round_half_up((m - 1.0) * n_minor)
    if n_add == 0:
        return s
    if neighbor_order is None:
        neighbor_order = smote_neighbor_order(s)
    elif neighbor_order.shape != (n_minor, n_minor):
        raise ValueError("neighbor order does not match the minor class")
    rng = derive_rng(seed, "smote")
    minors = s.features[minor_idx]
    neighbors = neighbor_order[:, :k]
    base = rng.integers(0, n_minor, size=n_add)
    pick = rng.integers(0, k, size=n_add)
    u = rng.uniform(0.0, 1.0, size=n_add)
    a = minors[base]
    b = minors[neighbors[base, pick]]
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the next line
        synth = a + u[:, None] * (b - a)
    if not np.isfinite(synth).all():  # the one check a derived dataset cannot skip
        raise ValueError("features contain non-finite values")
    x = np.vstack([s.features, synth])
    y = np.concatenate([s.labels, np.ones(n_add, dtype=np.int64)])
    return Dataset._derived(s.id, x, y)


def resample(s: Dataset, spec: ResamplingSpec, seed: int,
             neighbor_order: np.ndarray | None = None) -> Dataset:
    """Apply spec to s; the no-resampling method returns s unchanged.

    `neighbor_order` (`smote_neighbor_order(s)`) is passed on to SMOTE and
    ignored by the other methods.
    """
    if spec.method == METHOD_NONE:
        return s
    if spec.method == METHOD_ROS:
        return random_oversample(s, spec.multiplier, seed)
    if spec.method == METHOD_RUS:
        return random_undersample(s, spec.multiplier, seed)
    return smote(s, spec.multiplier, spec.smote_k, seed, neighbor_order)
