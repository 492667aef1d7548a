import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from resamplerec import learners
from resamplerec.data import Dataset
from resamplerec.learners import (DEFAULT_LEARNERS, LearnerSpec, Model, constant_model,
                                  fit_arrays, fit_count, model_from_dict, model_to_dict,
                                  predict_score, predict_scores)
from resamplerec.learners.logreg import (_grad_from_logit, _loss_from_logit, _sigmoid,
                                         fit_logreg_l1)
from resamplerec.learners.boost import fit_boosted_classifier, fit_boosted_regressor
from resamplerec.learners.knn import _squared_distances, knn_scores
from resamplerec.learners.tree import (TreeNode, build_classification_tree,
                                       build_regression_tree, tree_predict)

from conftest import make_dataset


def xor_like_dataset() -> Dataset:
    """40 points in four clusters, labels in the checkerboard pattern."""
    rng = np.random.default_rng(7)
    quads = [(+1, +1, 1, 12), (-1, -1, 1, 8), (-1, +1, 0, 12), (+1, -1, 0, 8)]
    xs, ys = [], []
    for cx, cy, label, count in quads:
        xs.append(rng.normal(0, 0.2, size=(count, 2)) + [2 * cx, 2 * cy])
        ys.extend([label] * count)
    return Dataset(id="xor", features=np.vstack(xs), labels=np.array(ys))


class TestSpec:
    def test_validation(self):
        """The document reader refuses an out-of-range field; the constructor
        trusts the code that calls it."""
        for doc, problem in [
            ({"kind": "svm"}, "key 'kind' must be a string in (decision_tree, knn, logreg_l1, "
                              'adaboost_clf, adaboost_reg), not "svm"'),
            ({"kind": "knn", "k": 0}, "key 'k' must be an integer >= 1, not 0"),
            ({"kind": "adaboost_clf", "n_estimators": 0},
             "key 'n_estimators' must be an integer >= 1, not 0"),
            ({"kind": "logreg_l1", "l1_strength": -1.0},
             "key 'l1_strength' must be a number >= 0, not -1.0"),
            ({"kind": "adaboost_reg", "learning_rate": 0},
             "key 'learning_rate' must be a number > 0, not 0"),
        ]:
            with pytest.raises(ValueError) as info:
                LearnerSpec.from_dict(doc)
            assert str(info.value) == f"learner spec {problem}"

    def test_an_unknown_kind_built_in_code_neither_fits_nor_scores(self):
        s = make_dataset(20, 8)
        with pytest.raises(ValueError, match=r"^unknown learner kind 'svm'$"):
            fit_arrays(LearnerSpec("svm"), s.features, s.labels)
        model = Model(spec=LearnerSpec("dtree"), n_features=s.features.shape[1])
        with pytest.raises(ValueError, match=r"^unknown learner kind 'dtree'$"):
            predict_scores(model, s.features)

    def test_round_trip(self):
        spec = DEFAULT_LEARNERS["adaboost_clf"]
        assert LearnerSpec.from_dict(spec.to_dict()) == spec

    @given(st.builds(
        LearnerSpec, kind=st.sampled_from(learners.KINDS),
        max_depth=st.none() | st.integers(0, 64), min_leaf=st.integers(1, 64),
        k=st.integers(1, 64), l1_strength=st.integers(0, 9) | st.floats(0.0, 1e300),
        max_iter=st.integers(0, 10**6),
        tol=st.integers(0, 9) | st.floats(allow_nan=False, allow_infinity=False),
        n_estimators=st.integers(1, 64),
        learning_rate=st.integers(1, 9) | st.floats(0.0, exclude_min=True, allow_infinity=False)))
    def test_valid_specs_round_trip(self, spec):
        assert LearnerSpec.from_dict(spec.to_dict()) == spec
        assert LearnerSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("field, value, problem", [
        ("k", "5", 'must be an integer, not "5"'),
        ("k", True, "must be an integer, not true"),
        ("n_estimators", 2.5, "must be an integer, not 2.5"),
        ("min_leaf", 5.0, "must be an integer, not 5.0"),
        ("max_depth", "x", 'must be an integer or null, not "x"'),
        ("tol", "1e-6", 'must be a number, not "1e-6"'),
        ("learning_rate", False, "must be a number, not false"),
        ("kind", 3, "must be a string, not 3"),
        # JSON has no NaN or Infinity, and an integer beyond a float's range
        # has no float value; Python's JSON parser reads all three
        ("tol", math.inf, "must be a number, not Infinity"),
        ("learning_rate", -math.inf, "must be a number, not -Infinity"),
        ("learning_rate", math.nan, "must be a number, not NaN"),
        pytest.param("tol", 10**400, "must be a number, not 1" + "0" * 36 + "...",
                     id="tol-beyond-float-range"),
    ])
    def test_wrong_value_type_names_the_field(self, field, value, problem):
        doc = {**DEFAULT_LEARNERS["adaboost_clf"].to_dict(), field: value}
        with pytest.raises(ValueError) as info:
            LearnerSpec.from_dict(doc)
        assert str(info.value) == f"learner spec key {field!r} {problem}"


class TestDecisionTree:
    def test_separable_two_points(self):
        s = Dataset(id="two", features=np.array([[0.0], [1.0]]), labels=np.array([0, 1]))
        model = fit_arrays(LearnerSpec("decision_tree", min_leaf=1), s.features, s.labels)
        assert not model.tree.is_leaf
        assert model.tree.left.is_leaf and model.tree.right.is_leaf
        assert predict_scores(model, s.features).tolist() == [0.0, 1.0]

    def test_leaf_score_is_minor_fraction(self):
        # constant feature forces a single leaf with 4 of 20 points minor
        x = np.zeros((20, 1))
        y = np.array([1] * 4 + [0] * 16)
        model = fit_arrays(LearnerSpec("decision_tree"), x, y)
        assert predict_score(model, np.array([0.0])) == pytest.approx(4 / 20)

    def test_split_strictly_reduces_weighted_gini(self):
        s = make_dataset(60, 25, seed=3, separation=1.0)
        model = fit_arrays(LearnerSpec("decision_tree", min_leaf=2), s.features, s.labels)

        def gini(y):
            p = y.mean()
            return 2 * p * (1 - p)

        def check(node, x, y):
            if node.is_leaf:
                assert y.shape[0] >= 2  # min_leaf respected
                return
            mask = x[:, node.feature] <= node.threshold
            n, nl = y.shape[0], int(mask.sum())
            child = (nl * gini(y[mask]) + (n - nl) * gini(y[~mask])) / n
            assert child < gini(y) - 1e-12
            check(node.left, x[mask], y[mask])
            check(node.right, x[~mask], y[~mask])

        check(model.tree, s.features, s.labels.astype(float))

    def test_respects_max_depth(self):
        s = make_dataset(60, 30, seed=5, separation=0.5)
        model = fit_arrays(LearnerSpec("decision_tree", max_depth=2, min_leaf=1),
                           s.features, s.labels)

        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

        assert depth(model.tree) <= 2

    def test_constant_features_yield_leaf(self):
        x = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        model = fit_arrays(LearnerSpec("decision_tree"), x, y)
        assert model.tree.is_leaf

    @pytest.mark.parametrize("max_depth", [None, 4], ids=["unbounded", "depth-4"])
    @pytest.mark.parametrize("a, b", [(1.0000000000000002, 1.0000000000000004),
                                      (1.6e308, 1.7e308), (-1.7e308, -1.6e308)],
                             ids=["adjacent-doubles", "past-float-max", "past-float-min"])
    def test_threshold_lies_between_the_values_it_splits(self, a, b, max_depth):
        """Where the midpoint of a and b rounds onto b or overflows, the split
        is at a: finite, with the ten rows of each value in their own leaf."""
        x = np.array([[a]] * 10 + [[b]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        for tree in (build_classification_tree(x, y, max_depth=max_depth, min_leaf=1),
                     build_classification_tree(x, y, max_depth=max_depth, min_leaf=1,
                                               sample_weight=np.ones(20)),
                     build_regression_tree(x, y.astype(float), max_depth=max_depth,
                                           min_leaf=1)):
            assert tree.threshold == a
            assert tree.left.is_leaf and tree.right.is_leaf
            assert (tree.left.n_samples, tree.right.n_samples) == (10, 10)


@st.composite
def tree_problems(draw, regression: bool, huge_targets: bool = False):
    """Small fits with tied values, constant columns, zero weights and every
    min_leaf / max_depth regime the splitter distinguishes. With
    `huge_targets`, regression targets may reach +-1.5e308, where sums of
    w*y^2 overflow and gains turn NaN."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    values = st.floats(-3, 3, allow_nan=False).map(lambda v: round(v, 1))
    x = draw(hnp.arrays(np.float64, (n, d), elements=values))
    if draw(st.booleans()):
        x[:, draw(st.integers(0, d - 1))] = 0.5
    if regression:
        y = draw(hnp.arrays(np.float64, n, elements=values))
        if huge_targets:
            y *= draw(st.sampled_from([1.0, 1e154, 5e307]))
    else:
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    w = None
    if draw(st.booleans()):
        w = draw(hnp.arrays(np.float64, n,
                            elements=st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0])))
        w[0] += w.sum() == 0.0
    return x, y, dict(max_depth=draw(st.sampled_from([None, 0, 1, 3])),
                      min_leaf=draw(st.integers(1, 8)), sample_weight=w)


def same_tree(a: TreeNode, b: TreeNode) -> bool:
    # repr keeps NaN leaves (zero-weight nodes) comparable and every bit of a float
    return repr(a.to_dict()) == repr(b.to_dict())


def same_stages(a, b) -> bool:
    return [(repr(s.tree.to_dict()), s.weight) for s in a] == \
        [(repr(s.tree.to_dict()), s.weight) for s in b]


class TestSplitterOracle:
    """The presorted, all-features splitter grows exactly the trees of the
    per-node, per-feature loop kept in tests/oracles.py."""

    @given(tree_problems(regression=False))
    @settings(max_examples=150, deadline=None)
    def test_classification_tree_matches_oracle(self, problem):
        x, y, kw = problem
        assert same_tree(build_classification_tree(x, y, **kw),
                         oracles.classification_tree(x, y, **kw))

    @given(tree_problems(regression=True, huge_targets=True))
    @settings(max_examples=150, deadline=None)
    def test_regression_tree_matches_oracle(self, problem):
        x, y, kw = problem
        with np.errstate(all="ignore"):  # huge targets overflow to inf and NaN
            assert same_tree(build_regression_tree(x, y, **kw),
                             oracles.regression_tree(x, y, **kw))

    @given(tree_problems(regression=False), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_boosted_classifier_matches_oracle(self, problem, rounds):
        x, y, kw = problem
        kw = dict(max_depth=kw["max_depth"], min_leaf=kw["min_leaf"], n_estimators=rounds)
        stages = fit_boosted_classifier(x, y, **kw)
        with mock.patch.object(learners.boost, "build_classification_tree",
                               oracles.classification_tree):
            assert same_stages(stages, fit_boosted_classifier(x, y, **kw))

    @given(tree_problems(regression=True), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_boosted_regressor_matches_oracle(self, problem, rounds):
        x, y, kw = problem
        kw = dict(max_depth=kw["max_depth"], min_leaf=kw["min_leaf"], n_estimators=rounds)
        stages = fit_boosted_regressor(x, y, **kw)
        with mock.patch.object(learners.boost, "build_regression_tree",
                               oracles.regression_tree):
            assert same_stages(stages, fit_boosted_regressor(x, y, **kw))


def test_class_zero_rows_of_tiny_weight_still_match_oracle():
    """A node with class-0 rows whose weight vanishes next to its class-1
    weight (as boosting can make it) is not label-pure: its class-1 weight
    may equal its total, yet it is searched as the oracle searches it."""
    x = np.arange(12, dtype=np.float64)[:, None]
    y = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0])
    w = np.where(y == 1, 1.0, 1e-20)
    for min_leaf in (1, 2, 3):
        kw = dict(max_depth=None, min_leaf=min_leaf, sample_weight=w)
        assert same_tree(build_classification_tree(x, y, **kw),
                         oracles.classification_tree(x, y, **kw))


def test_a_nan_gain_drops_its_feature_as_in_the_oracle():
    """A zero-weight left child makes feature 0's first gain NaN (0/0). The
    oracle then drops feature 0 and splits on feature 1; so must the
    splitter, though feature 0's NaN comes first in the scan."""
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    kw = dict(max_depth=1, min_leaf=1, sample_weight=np.array([0.0, 1.0, 1.0, 1.0]))
    for build, oracle in ((build_classification_tree, oracles.classification_tree),
                          (build_regression_tree, oracles.regression_tree)):
        tree = build(x, y, **kw)
        assert (tree.feature, tree.threshold) == (1, 0.5)
        assert same_tree(tree, oracle(x, y, **kw))


@st.composite
def unweighted_tree_problems(draw):
    """Unweighted fits of up to 300 rows, so nodes cross the 128-element
    block of numpy's pairwise sum, with rounded (tied) values, +-0.0,
    duplicated rows and single-class inputs."""
    n = draw(st.integers(2, 300) | st.integers(129, 300))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round(rng.normal(size=(n, d)), draw(st.sampled_from([0, 1, 3])))
    x[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.2]))] = -0.0
    if draw(st.booleans()):
        x[rng.integers(0, n, n // 3)] = x[rng.integers(0, n, n // 3)]
    labels = draw(st.sampled_from(["mixed"] * 4 + ["zeros", "ones"]))
    if labels == "mixed":
        y = (rng.random(n) < draw(st.sampled_from([0.05, 0.2, 0.5]))).astype(np.int64)
    else:
        y = np.full(n, int(labels == "ones"), dtype=np.int64)
    return x, y, dict(max_depth=draw(st.sampled_from([None, None, 0, 1, 3, 8])),
                      min_leaf=draw(st.sampled_from([1, 2, 5]) | st.integers(1, 40)))


class TestUnweightedTrees:
    """Unweighted classification fits take node sums from one per-fit
    vector of 1/n instead of per-node gathers; they grow the oracle's trees
    and the trees of the weighted path given equal weights."""

    @given(unweighted_tree_problems())
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle(self, problem):
        x, y, kw = problem
        assert same_tree(build_classification_tree(x, y, **kw),
                         oracles.classification_tree(x, y, **kw))

    @given(unweighted_tree_problems())
    @settings(max_examples=120, deadline=None)
    def test_no_weights_and_equal_weights_grow_the_same_tree(self, problem):
        x, y, kw = problem
        assert same_tree(build_classification_tree(x, y, **kw),
                         build_classification_tree(x, y, **kw, sample_weight=np.ones(len(y))))


def predict_queries(tree: TreeNode, x: np.ndarray, rows: int, rng) -> np.ndarray:
    """`rows` rows drawn from x, with values set to the tree's thresholds
    and to +-0.0."""
    q = x[rng.integers(0, len(x), rows)]
    stack = [tree]
    while stack and rows:
        node = stack.pop()
        if not node.is_leaf:
            q[rng.integers(0, rows, 2), node.feature] = node.threshold
            stack += [node.left, node.right]
    q[rng.random(q.shape) < 0.1] = 0.0
    q[rng.random(q.shape) < 0.1] = -0.0
    return q


class TestTreePredict:
    """Walking each row from the root gives the bytes of one masked pass
    per node, the reference kept in tests/oracles.py."""

    @given(unweighted_tree_problems(), st.sampled_from([0, 1, 20]) | st.integers(0, 300),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, problem, rows, seed):
        x, y, kw = problem
        tree = build_classification_tree(x, y, **kw)
        q = predict_queries(tree, x, rows, np.random.default_rng(seed))
        got, want = tree_predict(tree, q), oracles.tree_predict(tree, q)
        assert got.dtype == want.dtype and got.shape == want.shape == (rows,)
        assert got.tobytes() == want.tobytes()

    @given(unweighted_tree_problems(), st.sampled_from([0, 1, 20]) | st.integers(0, 300),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_boosted_scores_match_oracle(self, problem, rows, rounds, seed):
        x, y, kw = problem
        rng = np.random.default_rng(seed)
        kw = dict(max_depth=kw["max_depth"], min_leaf=kw["min_leaf"], n_estimators=rounds)
        stages = fit_boosted_classifier(x, y, **kw)
        q = predict_queries(stages[0].tree, x, rows, rng)
        got = learners.boost.boosted_classifier_scores(stages, q)
        with mock.patch.object(learners.boost, "tree_predict", oracles.tree_predict):
            assert got.tobytes() == learners.boost.boosted_classifier_scores(stages, q).tobytes()
        stages = fit_boosted_regressor(x, np.round(rng.normal(size=len(y)), 1), **kw)
        got = learners.boost.boosted_regressor_predict(stages, q)
        with mock.patch.object(learners.boost, "tree_predict", oracles.tree_predict):
            assert got.tobytes() == learners.boost.boosted_regressor_predict(stages, q).tobytes()


class TestKNN:
    def test_score_is_neighbor_fraction(self):
        x = np.array([[0.0], [0.1], [0.2], [0.3], [0.4], [10.0]])
        y = np.array([1, 1, 1, 0, 0, 0])
        model = fit_arrays(LearnerSpec("knn", k=5), x, y)
        assert predict_score(model, np.array([0.05])) == pytest.approx(3 / 5)

    def test_training_point_in_pure_neighborhood(self):
        x = np.vstack([np.zeros((5, 2)) + [0, i * 0.01] for i in range(5)]
                      + [np.full((5, 2), 10.0)])[:10]
        y = np.array([1] * 5 + [0] * 5)
        model = fit_arrays(LearnerSpec("knn", k=5), x, y)
        assert predict_score(model, x[0]) == 1.0

    def test_distance_ties_broken_by_lower_index(self):
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([1, 0, 0, 0])
        model = fit_arrays(LearnerSpec("knn", k=1), x, y)
        # query at 0 is equidistant from all; index 0 (class 1) wins
        assert predict_score(model, np.array([0.0])) == 1.0

    @given(d=st.one_of(st.integers(1, 20), st.integers(1, 300)),
           n=st.integers(1, 40), q=st.integers(0, 12), k_over=st.integers(-39, 5),
           ties=st.booleans(), copies=st.booleans(), huge=st.booleans(),
           real_y=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(d=8, n=10, q=3, k_over=0, ties=True, copies=True, huge=False,
             real_y=False, seed=0)
    @example(d=129, n=10, q=3, k_over=-5, ties=True, copies=False, huge=True,
             real_y=True, seed=1)
    @example(d=300, n=5, q=3, k_over=5, ties=False, copies=False, huge=False,
             real_y=False, seed=2)
    @example(d=3, n=5, q=0, k_over=0, ties=False, copies=False, huge=False,
             real_y=False, seed=3)
    @settings(max_examples=200, deadline=None)
    def test_scores_match_sorting_oracle(self, d, n, q, k_over, ties, copies, huge,
                                         real_y, seed):
        """Bit-identical to the stable-sort kernel: ties, duplicated rows as ROS makes,
        distances that overflow to inf, no queries, k >= n, real-valued targets."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        query = rng.normal(size=(q, d))
        if ties:
            x, query = np.round(x), np.round(query)
        if copies:
            x = x[rng.integers(0, max(1, n // 3), size=n)]
        if huge:
            x, query = x * 1e155, query * 1e155
        y = rng.normal(size=n) if real_y else rng.integers(0, 2, size=n).astype(np.float64)
        k = max(1, n + k_over)
        with np.errstate(over="ignore"):
            got = knn_scores(x, y, query, k)
            want = oracles.knn_scores(x, y, query, k)
            distances = _squared_distances(x, query)
            summed = ((query[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        assert got.tobytes() == want.tobytes()
        # rounding rarely reorders neighbours, so pin the summation order itself
        assert distances.tobytes() == summed.tobytes()


class TestLogRegL1:
    def test_zero_model_scores_half(self):
        model = Model(spec=LearnerSpec("logreg_l1"), n_features=3,
                      coef=np.zeros(3), intercept=0.0)
        assert predict_score(model, np.array([5.0, -2.0, 1.0])) == 0.5

    def test_huge_penalty_zeroes_coefficients(self):
        s = make_dataset(40, 40, seed=2)
        model = fit_arrays(LearnerSpec("logreg_l1", l1_strength=1e6), s.features, s.labels)
        assert np.all(model.coef == 0.0)
        assert predict_score(model, s.features[0]) == pytest.approx(0.5, abs=1e-3)

    def test_objective_non_increasing(self):
        s = make_dataset(50, 25, seed=9, separation=1.5)
        history: list = []
        fit_logreg_l1(s.features, s.labels.astype(float), l1_strength=0.05,
                      max_iter=200, tol=0.0, history=history)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(30, 4))
        y = (rng.uniform(size=30) < 0.4).astype(float)
        for _ in range(5):
            coef = rng.normal(size=4)
            b = float(rng.normal())
            g_coef, g_int = _grad_from_logit(x, y, x @ coef + b)
            eps = 1e-6
            for i in range(4):
                e = np.zeros(4)
                e[i] = eps
                fd = (_loss_from_logit(x @ (coef + e) + b, y)
                      - _loss_from_logit(x @ (coef - e) + b, y)) / (2 * eps)
                assert abs(fd - g_coef[i]) / max(abs(fd), 1e-8) < 1e-4
            fd_b = (_loss_from_logit(x @ coef + (b + eps), y)
                    - _loss_from_logit(x @ coef + (b - eps), y)) / (2 * eps)
            assert abs(fd_b - g_int) / max(abs(fd_b), 1e-8) < 1e-4

    def test_learns_separable_data(self):
        s = make_dataset(40, 20, seed=21, separation=4.0)
        model = fit_arrays(LearnerSpec("logreg_l1", l1_strength=0.01), s.features, s.labels)
        acc = ((predict_scores(model, s.features) >= 0.5) == s.labels).mean()
        assert acc >= 0.95


@st.composite
def logreg_problems(draw):
    """Small fits whose runs end by tol, by max_iter and, with feature values
    near 1e7, by the line search's step falling below 1e-12."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 1e3, 1e7]))
    x = draw(hnp.arrays(np.float64, (n, d),
                        elements=st.floats(-3, 3).map(lambda v: round(v, 1)))) * scale
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    return x, y, dict(l1_strength=draw(st.sampled_from([0.0, 0.01, 0.1, 1.0])),
                      max_iter=draw(st.sampled_from([0, 1, 3, 50, 500])),
                      tol=draw(st.sampled_from([0.0, 1e-6, 1e-2])))


@st.composite
def wide_logreg_problems(draw):
    """Fits of up to 300 rows, across numpy's 8- and 128-element pairwise
    summation blocks, with the L1 strength on both sides of the value at
    which every coefficient stays zero."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    y = rng.integers(0, 2, size=n)
    return x, y, dict(l1_strength=draw(st.floats(0.0, 2.0)),
                      max_iter=draw(st.sampled_from([1, 50, 500])))


class TestLogRegOracle:
    """Carrying the logit across iterations, and using the scalar intercept as
    the logit while every coefficient is zero, fits exactly what recomputing
    it in every loss and gradient call (tests/oracles.py) fits."""

    @given(logreg_problems())
    @settings(max_examples=150, deadline=None)
    def test_fit_matches_oracle(self, problem):
        x, y, kw = problem
        history, expected_history = [], []
        coef, intercept = fit_logreg_l1(x, y, history=history, **kw)
        expected = oracles.fit_logreg_l1(x, y, history=expected_history, **kw)
        assert coef.tobytes() == expected[0].tobytes()
        assert repr(intercept) == repr(expected[1])
        assert repr(history) == repr(expected_history)

    def test_wide_fits_match_oracle_with_and_without_zero_coef(self):
        all_zero = set()

        @given(wide_logreg_problems())
        @settings(max_examples=100, deadline=None)
        def check(problem):
            x, y, kw = problem
            history, expected_history = [], []
            coef, intercept = fit_logreg_l1(x, y, history=history, **kw)
            expected = oracles.fit_logreg_l1(x, y, history=expected_history, **kw)
            assert coef.tobytes() == expected[0].tobytes()
            assert repr(intercept) == repr(expected[1])
            assert repr(history) == repr(expected_history)
            all_zero.add(not coef.any())

        check()
        assert all_zero == {True, False}

    @given(hnp.arrays(np.float64, st.integers(1, 300),
                      elements=st.floats(-800, 800) | st.sampled_from([0.0, -0.0])),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_scalar_sigmoid_matches_array_element(self, z, data):
        i = data.draw(st.integers(0, z.shape[0] - 1))
        assert np.asarray(_sigmoid(z[i])).tobytes() == _sigmoid(z)[i].tobytes()
        assert np.asarray(_sigmoid(float(z[i]))).tobytes() == _sigmoid(z)[i].tobytes()

    @pytest.mark.parametrize("scale, max_iter, tol, exit_by", [
        (1.0, 500, 1e-6, "tol"), (1.0, 3, 0.0, "max_iter"), (1e7, 50, 1e-6, "step")])
    def test_every_exit_matches_oracle(self, scale, max_iter, tol, exit_by):
        rng = np.random.default_rng(4)
        x = np.round(rng.normal(size=(10, 2)), 1) * scale
        y = np.array([0, 1] * 5)
        history, expected_history = [], []
        kw = dict(l1_strength=0.0, max_iter=max_iter, tol=tol)
        coef, intercept = fit_logreg_l1(x, y, history=history, **kw)
        expected = oracles.fit_logreg_l1(x, y, history=expected_history, **kw)
        if len(history) == max_iter + 1:
            ended = "max_iter"
        elif len(history) > 1 and history[-2] - history[-1] < tol:
            ended = "tol"
        else:
            ended = "step"
        assert ended == exit_by
        assert (coef.tobytes(), repr(intercept), repr(history)) == \
            (expected[0].tobytes(), repr(expected[1]), repr(expected_history))

    @given(logreg_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_losses_match_oracle(self, problem, seed):
        x, y, kw = problem
        y = y.astype(np.float64)
        rng = np.random.default_rng(seed)
        coef, b = rng.normal(size=x.shape[1]), float(rng.normal())
        z = x @ coef + b
        loss = _loss_from_logit(z, y)
        assert repr(loss) == repr(oracles.log_loss(x, y, coef, b))
        g, g_b = _grad_from_logit(x, y, z)
        g_oracle, g_b_oracle = oracles.log_loss_grad(x, y, coef, b)
        assert (g.tobytes(), repr(g_b)) == (g_oracle.tobytes(), repr(g_b_oracle))
        # the objective as fit_logreg_l1 forms it from the smooth loss
        objective = loss + kw["l1_strength"] * float(np.abs(coef).sum())
        assert repr(objective) == repr(oracles.objective(x, y, coef, b, kw["l1_strength"]))


class TestAdaBoostClassifier:
    def test_separable_stops_with_capped_alpha(self):
        s = make_dataset(30, 15, seed=1, separation=8.0)
        model = fit_arrays(LearnerSpec("adaboost_clf", n_estimators=10, max_depth=2, min_leaf=1),
                           s.features, s.labels)
        assert len(model.stages) == 1
        assert model.stages[0].weight > 20.0

    def test_single_estimator_equals_base_tree(self):
        s = make_dataset(50, 20, seed=4, separation=1.0)
        boosted = fit_arrays(LearnerSpec("adaboost_clf", n_estimators=1, max_depth=3, min_leaf=1),
                             s.features, s.labels)
        tree = fit_arrays(LearnerSpec("decision_tree", max_depth=3, min_leaf=1),
                          s.features, s.labels)
        assert np.array_equal(predict_scores(boosted, s.features) >= 0.5,
                              predict_scores(tree, s.features) >= 0.5)

    def test_boosting_improves_on_xor_like(self):
        s = xor_like_dataset()
        stump = fit_arrays(LearnerSpec("decision_tree", max_depth=1, min_leaf=1),
                           s.features, s.labels)
        boosted = fit_arrays(LearnerSpec("adaboost_clf", n_estimators=10, max_depth=1, min_leaf=1),
                             s.features, s.labels)
        stump_err = ((predict_scores(stump, s.features) >= 0.5) != s.labels).mean()
        ens_err = ((predict_scores(boosted, s.features) >= 0.5) != s.labels).mean()
        assert 0.0 < stump_err < 0.5  # stumps alone cannot solve the checkerboard
        assert ens_err <= stump_err

    def test_scores_are_weighted_vote_shares(self):
        s = xor_like_dataset()
        model = fit_arrays(LearnerSpec("adaboost_clf", n_estimators=5, max_depth=1, min_leaf=1),
                           s.features, s.labels)
        scores = predict_scores(model, s.features)
        assert np.all((scores >= 0) & (scores <= 1))
        total = sum(st.weight for st in model.stages)
        votes = sum(st.weight * (tree_predict(st.tree, s.features) >= 0.5)
                    for st in model.stages)
        assert np.allclose(scores, votes / total)


class TestAdaBoostRegressor:
    def test_constant_targets(self):
        x = np.linspace(0, 1, 20)[:, None]
        model = fit_arrays(LearnerSpec("adaboost_reg", n_estimators=10, max_depth=3, min_leaf=1),
                           x, np.full(20, 3.25))
        assert np.allclose(predict_scores(model, x), 3.25)

    def test_single_estimator_equals_tree(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(40, 1))
        y = np.sin(4 * x[:, 0])
        boosted = fit_arrays(LearnerSpec("adaboost_reg", n_estimators=1, max_depth=3, min_leaf=2),
                             x, y)
        tree = build_regression_tree(x, y, max_depth=3, min_leaf=2)
        assert np.allclose(predict_scores(boosted, x), tree_predict(tree, x))

    def test_boosting_reduces_training_mse_on_sine(self):
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(0, 2 * np.pi, size=50))[:, None]
        y = np.sin(x[:, 0])
        single = fit_arrays(LearnerSpec("adaboost_reg", n_estimators=1, max_depth=3, min_leaf=2),
                            x, y)
        boosted = fit_arrays(LearnerSpec("adaboost_reg", n_estimators=10, max_depth=3, min_leaf=2),
                             x, y)
        mse_single = np.mean((predict_scores(single, x) - y) ** 2)
        mse_boosted = np.mean((predict_scores(boosted, x) - y) ** 2)
        assert mse_boosted <= mse_single

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_arrays(LearnerSpec("adaboost_reg", n_estimators=5), np.zeros((0, 3)), np.zeros(0))


class TestPredictContract:
    def test_scores_in_unit_interval(self):
        s = make_dataset(40, 15, seed=13)
        for kind in ("decision_tree", "knn", "logreg_l1", "adaboost_clf"):
            model = fit_arrays(DEFAULT_LEARNERS[kind], s.features, s.labels)
            scores = predict_scores(model, s.features)
            assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_dimension_mismatch(self):
        s = make_dataset(20, 10)
        model = fit_arrays(DEFAULT_LEARNERS["decision_tree"], s.features, s.labels)
        with pytest.raises(ValueError, match="features"):
            predict_scores(model, np.zeros((2, 5)))

    @pytest.mark.parametrize("kind", ["decision_tree", "knn", "logreg_l1", "adaboost_clf",
                                      "adaboost_reg"])
    def test_predict_score_is_the_first_of_predict_scores(self, kind):
        s = make_dataset(30, 10, dim=3, seed=29)
        model = fit_arrays(DEFAULT_LEARNERS[kind], s.features, s.labels)
        for row in s.features[::7]:
            want = float(predict_scores(model, row[None, :])[0])
            for x in (row, row[None, :]):
                assert same_bits(predict_score(model, x), want)

    @given(st.floats(), st.integers(1, 6))
    def test_constant_predict_score_is_the_first_of_predict_scores(self, score, width):
        model = constant_model(LearnerSpec("adaboost_clf"), width, score)
        for x in (np.zeros(width), np.zeros((1, width))):
            assert same_bits(predict_score(model, x), float(predict_scores(model, x)[0]))

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (1, 5)])
    def test_constant_model_checks_the_width(self, shape):
        model = constant_model(LearnerSpec("adaboost_clf"), 4, 0.25)
        with pytest.raises(ValueError, match=f"expected 4 features, got {shape[-1]}"):
            predict_score(model, np.zeros(shape))

    def test_deterministic(self):
        s = make_dataset(60, 20, seed=19)
        for kind in ("decision_tree", "knn", "logreg_l1", "adaboost_clf"):
            a = fit_arrays(DEFAULT_LEARNERS[kind], s.features, s.labels)
            b = fit_arrays(DEFAULT_LEARNERS[kind], s.features, s.labels)
            assert np.array_equal(predict_scores(a, s.features),
                                  predict_scores(b, s.features))


def same_bits(a: float, b: float) -> bool:
    return type(a) is float and type(b) is float \
        and np.float64(a).tobytes() == np.float64(b).tobytes()


def json_round_trip(model: Model) -> Model:
    return model_from_dict(json.loads(json.dumps(model_to_dict(model))))


class TestSerialization:
    def test_round_trip_all_kinds(self):
        s = make_dataset(40, 15, seed=23)
        query = s.features[:7]
        for kind in ("decision_tree", "knn", "logreg_l1", "adaboost_clf"):
            model = fit_arrays(DEFAULT_LEARNERS[kind], s.features, s.labels)
            back = json_round_trip(model)
            assert np.array_equal(predict_scores(model, query), predict_scores(back, query))

    def test_regressor_round_trip(self):
        x = np.linspace(0, 1, 30)[:, None]
        y = x[:, 0] ** 2
        model = fit_arrays(DEFAULT_LEARNERS["adaboost_reg"], x, y)
        back = json_round_trip(model)
        assert np.array_equal(predict_scores(model, x), predict_scores(back, x))

    def test_constant_round_trip(self):
        model = constant_model(LearnerSpec("adaboost_clf"), 4, 0.75)
        assert predict_score(json_round_trip(model), np.zeros(4)) == 0.75

    def test_version_check(self, tmp_path):
        model = constant_model(LearnerSpec("adaboost_clf"), 1, 0.5)
        doc = learners.model_to_dict(model)
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            learners.model_from_dict(doc)


def _set(key, value):
    return lambda doc: doc.update({key: value})


class TestPayloadKeys:
    """A model document with a missing or wrong-typed payload key is one
    ValueError that names the key, not a KeyError or a TypeError."""

    @pytest.mark.parametrize("kind, edit, problem", [
        ("logreg_l1", lambda doc: doc.pop("coef"), "model has no key 'coef'"),
        ("logreg_l1", _set("coef", [0.5, 0.5]),
         "model key 'coef' must be an array of numbers of shape [3], not [0.5, 0.5]"),
        ("logreg_l1", _set("coef", ["1", "2", "3"]), 'model key \'coef[0]\' must be a number, not "1"'),
        ("logreg_l1", _set("coef", None),
         "model key 'coef' must be an array of numbers of shape [3], not null"),
        ("logreg_l1", _set("intercept", "0"), 'model key \'intercept\' must be a number, not "0"'),
        ("knn", _set("train_x", [[1.0, 2.0, 3.0], [1.0]]),
         "model key 'train_x' must be an array of numbers of shape [n, 3], "
         "not [[1.0, 2.0, 3.0], [1.0]]"),
        ("knn", _set("train_y", [1.0]),
         "model key 'train_y' must be an array of numbers of shape [55], not [1.0]"),
        ("decision_tree", _set("tree", []), "model key 'tree' must be an object, not []"),
        ("decision_tree", lambda doc: doc["tree"].update(feature=3),
         "tree node key 'feature' must be an integer in 0..2, not 3"),
        ("decision_tree", lambda doc: doc["tree"].update(threshold=None),
         "tree node key 'threshold' must be a number, not null"),
        ("decision_tree", lambda doc: doc["tree"].pop("left"), "tree node has no key 'left'"),
        ("adaboost_clf", _set("stages", []), "model key 'stages' must be a non-empty array, not []"),
        ("adaboost_clf", lambda doc: doc["stages"][0].update(weight=True),
         "boost stage key 'weight' must be a number, not true"),
        ("adaboost_clf", lambda doc: doc["stages"][0]["tree"].pop("n"), "tree node has no key 'n'"),
        ("adaboost_clf", lambda doc: doc["stages"].append(None), "boost stage is not a JSON object"),
        ("adaboost_clf", _set("n_features", 4.7),
         "model key 'n_features' must be an integer, not 4.7"),
        ("knn", _set("n_features", 0), "model key 'n_features' must be an integer >= 1, not 0"),
        ("decision_tree", _set("n_features", True),
         "model key 'n_features' must be an integer, not true"),
        ("logreg_l1", lambda doc: doc.pop("n_features"), "model has no key 'n_features'"),
    ])
    def test_a_bad_key_is_named(self, kind, edit, problem):
        s = make_dataset(40, 15, dim=3, seed=23)
        doc = json.loads(json.dumps(model_to_dict(fit_arrays(DEFAULT_LEARNERS[kind],
                                                             s.features, s.labels))))
        edit(doc)
        with pytest.raises(ValueError) as info:
            model_from_dict(doc)
        assert str(info.value) == problem

    def test_a_constant_score_must_be_a_number(self):
        doc = model_to_dict(constant_model(LearnerSpec("adaboost_clf"), 4, 0.75))
        doc["constant_score"] = [0.75]
        with pytest.raises(ValueError, match=r"^model key 'constant_score' must be a number, "
                                             r"not \[0.75\]$"):
            model_from_dict(doc)


def test_fit_counter_increments():
    s = make_dataset(20, 8)
    before = fit_count()
    fit_arrays(DEFAULT_LEARNERS["decision_tree"], s.features, s.labels)
    assert fit_count() == before + 1
    fit_arrays(DEFAULT_LEARNERS["adaboost_clf"], s.features, s.labels)
    assert fit_count() > before + 1
