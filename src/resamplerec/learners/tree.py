"""CART trees (Gini classification, squared-error regression) with sample weights.

Splits are axis-aligned thresholds at midpoints between consecutive distinct
feature values. A split is accepted only if it reduces the weighted impurity
by more than _GAIN_TOL; ties go to the lower feature index, then the lower
threshold, so fitting is fully deterministic.

Each fit sorts every feature once, stably, so equal values keep row order
(the presorting of SLIQ and SPRINT). A node holds its rows in ascending order
and, per feature, in that feature's sorted order; a split filters each line
by the split mask, which keeps it sorted, so no node sorts again. One
splitter scans all features at once from prefix sums along those lines, in
the same summation order as a per-node sort would give, so the trees are
bit-identical to the per-feature loop kept as the reference in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instrument import count_fit

_GAIN_TOL = 1e-12


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0     # leaf: minor-class weight fraction / weighted mean target
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value, "n": self.n_samples}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "n": self.n_samples,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


def _best_split(xs, ws, wys, w_total, s, min_leaf, squares=None):
    """Scan every feature at once for the split with the largest impurity decrease.

    Row g of `xs`, `ws` and `wys` holds the node's feature-g values, w and w*y
    in feature-g order, so prefix sums along each row give the left child's
    sums at every candidate split. `w_total` is the node's weight and `s` its
    class-1 weight (Gini) or, when `squares` = (sorted w*y^2, node w*y^2 sum)
    selects squared error, its w*y sum. Returns (feature, threshold) or None.
    """
    n = xs.shape[1]
    # a split after sorted position i (i in cand) leaves min_leaf rows per side
    cand = slice(min_leaf - 1, n - min_leaf)
    wl = np.add.accumulate(ws, axis=1)[:, cand]
    sl = np.add.accumulate(wys, axis=1)[:, cand]
    wr = w_total - wl
    if squares is None:
        p = s / w_total
        parent = 2.0 * p * (1.0 - p)  # binary Gini: 1 - p^2 - (1-p)^2
        pl = sl / wl
        pr = (s - sl) / wr
        child = (wl * 2.0 * pl * (1.0 - pl) + wr * 2.0 * pr * (1.0 - pr)) / w_total
    else:
        wy2s, s2 = squares
        parent = s2 - s * s / w_total
        s2l = np.add.accumulate(wy2s, axis=1)[:, cand]
        child = (s2l - sl ** 2 / wl) + ((s2 - s2l) - (s - sl) ** 2 / wr)
    gains = np.where(xs[:, cand] < xs[:, min_leaf:n - min_leaf + 1], parent - child, -np.inf)
    # a NaN gain (zero-weight child) makes its feature's max NaN, which drops
    # the feature; ties go to the lowest feature, then the lowest threshold
    best = np.fmax(gains.max(axis=1), -np.inf)
    f = int(np.argmax(best))
    if not best[f] > _GAIN_TOL:
        return None
    i = min_leaf - 1 + int(np.argmax(gains[f]))
    return f, float((xs[f, i] + xs[f, i + 1]) / 2.0)


def build_classification_tree(x: np.ndarray, y: np.ndarray, *, max_depth: int | None,
                              min_leaf: int, sample_weight: np.ndarray | None = None) -> TreeNode:
    count_fit()
    return _grow_tree(x, y, sample_weight, max_depth, min_leaf, regression=False)


def build_regression_tree(x: np.ndarray, y: np.ndarray, *, max_depth: int | None,
                          min_leaf: int, sample_weight: np.ndarray | None = None) -> TreeNode:
    count_fit()
    return _grow_tree(x, y, sample_weight, max_depth, min_leaf, regression=True)


def _grow_tree(x, y, sample_weight, max_depth, min_leaf, regression):
    n = x.shape[0]
    w = _norm_weights(sample_weight, n)
    y = y.astype(np.float64)
    wy = w * y
    wy2 = wy * y if regression else None
    d = x.shape[1]

    def grow(rows, order, xs, depth):
        # rows: the node's rows ascending; order/xs: its rows and values per feature
        wn = w[rows]
        w_total = wn.sum()
        if regression:
            s = wy[rows].sum()
        else:
            ones = y[rows] == 1
            s = wn[ones].sum()
        node = TreeNode(value=float(s / w_total), n_samples=rows.shape[0])
        if max_depth is not None and depth >= max_depth:
            return node
        if rows.shape[0] < 2 * min_leaf:
            return node
        if not regression and np.count_nonzero(ones) in (0, rows.shape[0]):
            return node  # one label: every split has zero (or NaN) gain
        squares = (wy2[order], float(wy2[rows].sum())) if regression else None
        found = _best_split(xs, w[order], wy[order], w_total, float(s), min_leaf, squares)
        if found is None:
            return node
        f, t = found
        goes_left = x[:, f] <= t
        left = goes_left[order]  # filtering a sorted line keeps it sorted
        node.feature, node.threshold = f, t
        node.left = grow(rows[goes_left[rows]], order[left].reshape(d, -1),
                         xs[left].reshape(d, -1), depth + 1)
        node.right = grow(rows[~goes_left[rows]], order[~left].reshape(d, -1),
                          xs[~left].reshape(d, -1), depth + 1)
        return node

    order = np.argsort(x.T, axis=1, kind="stable")  # the fit's only sort
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-weight nodes give NaN
        return grow(np.arange(n), order, np.take_along_axis(x.T, order, axis=1), 0)


def _norm_weights(sample_weight, n):
    if sample_weight is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,) or (w < 0).any() or w.sum() <= 0:
        raise ValueError("sample weights must be non-negative with positive sum")
    return w / w.sum()


def tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """Evaluate leaf values for a batch of rows."""
    out = np.empty(x.shape[0])
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        mask = x[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[mask]))
        stack.append((nd.right, idx[~mask]))
    return out
