"""CART trees (Gini classification, squared-error regression) with sample weights.

Splits are axis-aligned thresholds at midpoints between consecutive distinct
feature values (at the lower value where the midpoint rounds onto the upper
one or overflows). A split is accepted only if it reduces the weighted impurity
by more than _GAIN_TOL; ties go to the lower feature index, then the lower
threshold, so fitting is fully deterministic.

Each fit sorts every feature once, stably, so equal values keep row order
(the presorting of SLIQ and SPRINT). A node holds its rows per feature, in
that feature's sorted order; a split filters each line by the split mask,
which keeps it sorted, so no node sorts again. One splitter scans all
features at once from prefix sums along those lines, in the same summation
order as a per-node sort would give, so the trees are bit-identical to the
per-feature loop kept as the reference in tests/oracles.py.

An unweighted classification fit (every row weighs 1/n) reads no weight
per node: a node of m rows, k of them class 1 (counted on its feature-0
line), weighs the sum of the first m entries of one per-fit vector of 1/n,
and its class-1 weight is the sum of the first k, the same pairwise sums
over equal doubles as a gather of its rows' weights would give. Its left
prefix weights are the first m of that vector's running sums, shared by
every feature line, and a node that is not searched (too deep, too few rows
or one label) is never given lines of its own. Each child of a candidate
split then weighs at least min_leaf/n > 0, so no gain is NaN and one argmax
over all gains keeps the tie rule. Weighted fits (boosting) and regression
trees gather each node's weights.

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


def _best_split(xs, wl, wys, w_total, s, min_leaf, squares=None):
    """Scan every feature at once for the split with the largest impurity decrease.

    Row g of `xs` and `wys` holds the node's feature-g values and w*y in
    feature-g order, so prefix sums along each row give the left child's sums
    at every candidate split. `wl` holds the left child's weight at every
    sorted position: one row per feature, or, for unit weights, where every
    line gives the same running sums, one row for all features. `w_total` is
    the node's weight and `s` its class-1 weight (Gini) or, when `squares` =
    (sorted w*y^2, node w*y^2 sum) selects squared error, its w*y sum.
    Returns (feature, threshold) or None.
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
    if wl.ndim == 1:
        # unit weights: each child weighs at least min_leaf/n > 0, so no gain
        # is NaN, and the first maximum in row order is at the lowest feature,
        # then the lowest threshold
        f, i = divmod(int(gains.argmax()), gains.shape[1])
        if not gains[f, i] > _GAIN_TOL:
            return None
    else:
        # a NaN gain (zero-weight child) makes its feature's max NaN, which
        # drops the feature; ties go to the lowest feature, then the lowest
        # threshold
        best = np.fmax(gains.max(axis=1), -np.inf)
        f = int(np.argmax(best))
        if not best[f] > _GAIN_TOL:
            return None
        i = int(np.argmax(gains[f]))
    i += min_leaf - 1
    a, b = float(xs[f, i]), float(xs[f, i + 1])
    t = (a + b) / 2.0  # b between adjacent doubles, inf past the float maximum
    return f, (t if a <= t < b else a)


def build_classification_tree(x: np.ndarray, y: np.ndarray, *, max_depth: int | None,
                              min_leaf: int, sample_weight: np.ndarray | None = None) -> TreeNode:
    count_fit()
    if sample_weight is None:
        return _grow_unit_gini_tree(x, y, max_depth, min_leaf)
    return _grow_tree(x, y, sample_weight, max_depth, min_leaf, regression=False)


def build_regression_tree(x: np.ndarray, y: np.ndarray, *, max_depth: int | None,
                          min_leaf: int, sample_weight: np.ndarray | None = None) -> TreeNode:
    count_fit()
    return _grow_tree(x, y, sample_weight, max_depth, min_leaf, regression=True)


def _presort(x):
    order = np.argsort(x.T, axis=1, kind="stable")  # the fit's only sort
    return order, np.take_along_axis(x.T, order, axis=1)


def _grow_unit_gini_tree(x, y, max_depth, min_leaf):
    n, d = x.shape
    unit = np.full(n, 1.0 / n)
    prefix = np.add.accumulate(unit)
    wy = unit * y.astype(np.float64)
    ones = y == 1

    def grow(order, xs, ones0, side, depth):
        # the node's rows are the `side` entries of its parent's lines: rows
        # and values per feature in that feature's order (order, xs) and the
        # class-1 flags along feature 0 (ones0); a node's own lines are built
        # only when it is searched
        if side is not None:
            ones0 = ones0[side[0]]
        m = ones0.shape[0]
        k = np.count_nonzero(ones0)
        w_total = np.add.reduce(unit[:m])
        s = np.add.reduce(unit[:k])
        node = TreeNode(value=float(s / w_total), n_samples=m)
        if max_depth is not None and depth >= max_depth:
            return node
        if m < 2 * min_leaf or k in (0, m):
            return node  # too few rows, or one label: every split has zero gain
        if side is not None:
            order, xs = order[side].reshape(d, -1), xs[side].reshape(d, -1)
        found = _best_split(xs, prefix[:m], wy[order], w_total, float(s), min_leaf)
        if found is None:
            return node
        f, t = found
        left = (x[:, f] <= t)[order]  # filtering a sorted line keeps it sorted
        node.feature, node.threshold = f, t
        node.left = grow(order, xs, ones0, left, depth + 1)
        node.right = grow(order, xs, ones0, ~left, depth + 1)
        return node

    order, xs = _presort(x)
    return grow(order, xs, ones[order[0]], None, 0)


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
        found = _best_split(xs, np.add.accumulate(w[order], axis=1), wy[order], w_total,
                            float(s), min_leaf, squares)
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

    with np.errstate(divide="ignore", invalid="ignore"):  # zero-weight nodes give NaN
        return grow(np.arange(n), *_presort(x), 0)


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
