"""AdaBoost over CART trees: discrete two-class boosting and AdaBoost.R2.

The classifier follows the discrete update w_i <- w_i * exp(alpha * [miss])
with alpha = ln((1-err)/err). A round with err = 0 is kept with a capped
alpha and boosting stops; a round with err >= 0.5 is discarded, the weights
are reset once, and a second occurrence stops boosting. The regressor is
AdaBoost.R2 with linear loss and weighted-median prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import TreeNode, build_classification_tree, build_regression_tree, tree_predict

_ERR_FLOOR = 1e-10
_ALPHA_CAP = math.log((1.0 - _ERR_FLOOR) / _ERR_FLOOR)


@dataclass
class BoostStage:
    tree: TreeNode
    weight: float


def fit_boosted_classifier(x: np.ndarray, y: np.ndarray, *, n_estimators: int,
                           max_depth: int | None, min_leaf: int,
                           learning_rate: float = 1.0) -> list[BoostStage]:
    n = x.shape[0]
    w = np.full(n, 1.0 / n)
    stages: list[BoostStage] = []
    restarted = False
    last_tree = None
    while len(stages) < n_estimators:
        tree = build_classification_tree(x, y, max_depth=max_depth, min_leaf=min_leaf,
                                         sample_weight=w)
        last_tree = tree
        pred = (tree_predict(tree, x) >= 0.5).astype(np.int64)
        miss = pred != y
        err = float(w[miss].sum())
        if err <= 0.0:
            stages.append(BoostStage(tree, learning_rate * _ALPHA_CAP))
            break
        if err >= 0.5:
            if not restarted:
                w = np.full(n, 1.0 / n)
                restarted = True
                continue
            break
        alpha = learning_rate * math.log((1.0 - err) / err)
        stages.append(BoostStage(tree, alpha))
        w = w * np.exp(alpha * miss)
        w /= w.sum()
    if not stages:
        # degenerate data where even the first round is discarded: fall back
        # to the plain tree so predictions stay defined
        stages = [BoostStage(last_tree, 1.0)]
    return stages


def boosted_classifier_scores(stages: list[BoostStage], x: np.ndarray) -> np.ndarray:
    """Share of the total stage weight voting for class 1."""
    total = sum(st.weight for st in stages)
    votes = np.zeros(x.shape[0])
    for st in stages:
        votes += st.weight * (tree_predict(st.tree, x) >= 0.5)
    return votes / total


def fit_boosted_regressor(x: np.ndarray, y: np.ndarray, *, n_estimators: int,
                          max_depth: int | None, min_leaf: int,
                          learning_rate: float = 1.0) -> list[BoostStage]:
    n = x.shape[0]
    w = np.full(n, 1.0 / n)
    stages: list[BoostStage] = []
    for _ in range(n_estimators):
        tree = build_regression_tree(x, y, max_depth=max_depth, min_leaf=min_leaf,
                                     sample_weight=w)
        err = np.abs(tree_predict(tree, x) - y)
        d = float(err.max())
        if d <= 0.0:
            stages.append(BoostStage(tree, learning_rate * _ALPHA_CAP))
            break
        loss = err / d
        lbar = float((w * loss).sum())
        if lbar >= 0.5:
            break
        beta = lbar / (1.0 - lbar)
        beta = max(beta, _ERR_FLOOR)
        stages.append(BoostStage(tree, learning_rate * math.log(1.0 / beta)))
        w = w * beta ** (1.0 - loss)
        w /= w.sum()
    if not stages:
        tree = build_regression_tree(x, y, max_depth=max_depth, min_leaf=min_leaf)
        stages = [BoostStage(tree, 1.0)]
    return stages


def boosted_regressor_predict(stages: list[BoostStage], x: np.ndarray) -> np.ndarray:
    """Weighted median of the per-stage predictions."""
    preds = np.stack([tree_predict(st.tree, x) for st in stages], axis=1)
    weights = np.array([st.weight for st in stages])
    order = np.argsort(preds, axis=1, kind="stable")
    sorted_preds = np.take_along_axis(preds, order, axis=1)
    cum = np.cumsum(weights[order], axis=1)
    half = 0.5 * weights.sum()
    pick = np.argmax(cum >= half, axis=1)
    return sorted_preds[np.arange(x.shape[0]), pick]
