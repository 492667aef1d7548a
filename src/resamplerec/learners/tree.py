"""CART trees (Gini classification, squared-error regression) with sample weights.

Splits are axis-aligned thresholds at midpoints between consecutive distinct
feature values (at the lower value where the midpoint rounds onto the upper
one or overflows). A split is accepted only if it reduces the weighted impurity
by more than _GAIN_TOL; ties go to the lower feature index, then the lower
threshold, so fitting is fully deterministic.

Each fit sorts every feature once, stably, so equal values keep row order
(the presorting of SLIQ and SPRINT). One recursion grows every tree. A node
is its parent's per-feature lines (rows and values in each feature's order)
plus a split mask; filtering a line by the mask keeps it sorted, so no node
sorts again, and a node builds its own lines only when it is searched. Its
sums come from its feature-0 line. In an unweighted classification fit
every row weighs 1/n, so a node of m rows, k of them class 1, weighs the
pairwise sum of m entries of one vector of 1/n and k entries give its
class-1 weight; every other fit gathers from the line's rows, sorted
ascending. One splitter scans all features at once from prefix sums along
the lines (left weights are the 1/n vector's running sums when no weights
are given), in the same summation order as a per-node sort would give, so
the trees are bit-identical to the per-feature loop kept as the reference
in tests/oracles.py. Gains are NaN only for a zero-weight child (weighted
fits) or sums past the float maximum (regression); such a gain drops its
feature.

`tree_predict` walks each row from the root in Python, about 1 us a row,
where a masked pass per node costs a few us a node at any batch size. On
trees fit at desk shapes (519x21, 892x34) the walk took 1-2 us for one row
where the masked passes took 30-220 us, between 0.3 and 1.4 times their
time at 100 rows, and 1.5 to 4.4 times it at 500. Grids predict one test
fold (20-100 rows at desk_run shapes) per call.
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


def _best_split(xs, wl, wys, w_total, s, min_leaf, squares, nan_gains):
    """Scan every feature at once for the split with the largest impurity decrease.

    Row g of `xs` and `wys` holds the node's feature-g values and w*y in
    feature-g order, so prefix sums along each row give the left child's sums
    at every candidate split. `wl` holds the left child's weight at every
    sorted position: one row per feature, or, for unit weights, where every
    line gives the same running sums, one row for all features. `w_total` is
    the node's weight and `s` its class-1 weight (Gini) or, when `squares` =
    (sorted w*y^2, node w*y^2 sum) selects squared error, its w*y sum.
    `nan_gains` says whether the fit can give NaN gains. Returns (feature,
    threshold) or None.
    """
    n = xs.shape[1]
    # a split after sorted position i (i in cand) leaves min_leaf rows per side
    cand = slice(min_leaf - 1, n - min_leaf)
    wl = wl[..., cand]
    sl = np.add.accumulate(wys, axis=1)[:, cand]
    wr = w_total - wl
    if squares is None:
        p = s / w_total
        parent = 2.0 * p * (1.0 - p)  # binary Gini: 1 - p^2 - (1-p)^2
        # (wl*2*pl*(1-pl) + wr*2*pr*(1-pr)) / w_total, in place, each
        # product and sum of the same two doubles as written out
        pl = sl / wl
        q = 1.0 - pl
        pl *= wl * 2.0
        pl *= q
        pr = s - sl
        pr /= wr
        np.subtract(1.0, pr, out=q)
        pr *= wr * 2.0
        pr *= q
        pl += pr
        child = np.divide(pl, w_total, out=pl)
    else:
        wy2s, s2 = squares
        parent = s2 - s * s / w_total
        s2l = np.add.accumulate(wy2s, axis=1)[:, cand]
        child = (s2l - sl ** 2 / wl) + ((s2 - s2l) - (s - sl) ** 2 / wr)
    gains = np.subtract(parent, child, out=child)
    gains[xs[:, cand] >= xs[:, min_leaf:n - min_leaf + 1]] = -np.inf  # no split between ties
    if nan_gains:
        # a NaN gain (a zero-weight child, or sums past the float maximum)
        # drops its whole feature
        gains[np.isnan(gains).any(axis=1)] = -np.inf
    # the first maximum in row order is at the lowest feature, then the
    # lowest threshold
    f, i = divmod(int(gains.argmax()), gains.shape[1])
    if not gains[f, i] > _GAIN_TOL:
        return None
    i += min_leaf - 1
    a, b = float(xs[f, i]), float(xs[f, i + 1])
    t = (a + b) / 2.0  # b between adjacent doubles, inf past the float maximum
    return f, (t if a <= t < b else a)


def build_classification_tree(x: np.ndarray, y: np.ndarray, *, max_depth: int | None,
                              min_leaf: int, sample_weight: np.ndarray | None = None) -> TreeNode:
    count_fit()
    return _grow_tree(x, y, sample_weight, max_depth, min_leaf, regression=False)


def build_regression_tree(x: np.ndarray, y: np.ndarray, *, max_depth: int | None,
                          min_leaf: int, sample_weight: np.ndarray | None = None) -> TreeNode:
    count_fit()
    return _grow_tree(x, y, sample_weight, max_depth, min_leaf, regression=True)


def _presort(x):
    order = np.argsort(x.T, axis=1, kind="stable")  # the fit's only sort
    return order, np.take_along_axis(x.T, order, axis=1)


def _grow_tree(x, y, sample_weight, max_depth, min_leaf, regression):
    n, d = x.shape
    w = _norm_weights(sample_weight, n)
    y = y.astype(np.float64)
    wy = w * y
    wy2 = wy * y if regression else None
    ones = y == 1
    prefix = np.add.accumulate(w) if sample_weight is None else None
    # only weighted and regression fits can give NaN gains (and 0/0 sums)
    nan_gains = sample_weight is not None or regression

    def grow(order, xs, side, depth):
        # the node's rows are the `side` entries of its parent's lines: rows
        # and values per feature in that feature's order; its own lines are
        # built only when it is searched
        line = order[0] if side is None else order[0][side[0]]
        m = line.shape[0]
        if nan_gains:
            rows = np.sort(line)  # ascending, the summation order of a gather
            wn = w[rows]
            w_total = wn.sum()
            if regression:
                k, s = None, wy[rows].sum()  # no labels, so never one label
            else:
                is_one = ones[rows]
                k, s = np.count_nonzero(is_one), wn[is_one].sum()
        else:
            # every row weighs 1/n: pairwise sums of m and k equal doubles
            k = np.count_nonzero(ones[line])
            w_total, s = np.add.reduce(w[:m]), np.add.reduce(w[:k])
        node = TreeNode(value=float(s / w_total), n_samples=m)
        if max_depth is not None and depth >= max_depth:
            return node
        if m < 2 * min_leaf or k in (0, m):
            return node  # too few rows, or one label: every split has zero (or NaN) gain
        if side is not None:
            order, xs = order[side].reshape(d, -1), xs[side].reshape(d, -1)
        wl = prefix[:m] if prefix is not None else np.add.accumulate(w[order], axis=1)
        squares = (wy2[order], float(wy2[rows].sum())) if regression else None
        found = _best_split(xs, wl, wy[order], w_total, float(s), min_leaf, squares, nan_gains)
        if found is None:
            return node
        f, t = found
        left = (x[:, f] <= t)[order]  # filtering a sorted line keeps it sorted
        node.feature, node.threshold = f, t
        node.left = grow(order, xs, left, depth + 1)
        node.right = grow(order, xs, ~left, depth + 1)
        return node

    if nan_gains:
        # zero-weight nodes and sums past the float maximum give NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            return grow(*_presort(x), None, 0)
    return grow(*_presort(x), None, 0)


def _norm_weights(sample_weight, n):
    if sample_weight is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,) or (w < 0).any() or w.sum() <= 0:
        raise ValueError("sample weights must be non-negative with positive sum")
    return w / w.sum()


def tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """Leaf values for a batch of rows, each row walked from the root."""
    out = []
    for row in x.tolist():
        nd = node
        while nd.left is not None:
            nd = nd.left if row[nd.feature] <= nd.threshold else nd.right
        out.append(nd.value)
    return np.array(out, dtype=np.float64)
