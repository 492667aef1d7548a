"""Base classifiers and meta-level models behind one fit/predict surface.

Kinds: decision_tree, knn, logreg_l1, adaboost_clf, adaboost_reg. `fit_arrays`
fits any kind; `predict_scores` gives each classifier's score in [0, 1],
monotone in the confidence for class 1, or the regressor's prediction.
Callers threshold scores themselves (the recommender counts p >= 0.5 as a
positive). Every fit bumps a module-level counter so tests can assert that
recommendation never trains a base learner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..jsondoc import POSITIVE, at_least, one_of, read_array, read_key, read_object
from .boost import (BoostStage, boosted_classifier_scores, boosted_regressor_predict,
                    fit_boosted_classifier, fit_boosted_regressor)
from .instrument import count_fit as _count_fit
from .instrument import fit_count
from .knn import knn_scores
from .logreg import fit_logreg_l1
from .tree import TreeNode, build_classification_tree, build_regression_tree, tree_predict

KINDS = ("decision_tree", "knn", "logreg_l1", "adaboost_clf", "adaboost_reg")


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    max_depth: int | None = None
    min_leaf: int = 5
    k: int = 5
    l1_strength: float = 1.0
    max_iter: int = 500
    tol: float = 1e-6
    n_estimators: int = 10
    learning_rate: float = 1.0

    def token(self) -> str:
        if self.kind == "decision_tree":
            return f"decision_tree(depth={self.max_depth},min_leaf={self.min_leaf})"
        if self.kind == "knn":
            return f"knn(k={self.k})"
        if self.kind == "logreg_l1":
            return f"logreg_l1(l1={self.l1_strength:g})"
        return f"{self.kind}(n={self.n_estimators},depth={self.max_depth},min_leaf={self.min_leaf})"

    def to_dict(self) -> dict:
        return dict(vars(self))  # every field, in declaration order

    @staticmethod
    def from_dict(d: dict, where: str = "learner spec", error: type[Exception] = ValueError,
                  prefix: str = "") -> "LearnerSpec":
        """The spec of a `to_dict` object, else `error` naming `where` and the
        key; `prefix` is the object's key path in its document, dot-ended.
        The one check of a spec read from a document: one built in code is
        trusted, and no learner checks its fields again."""
        return LearnerSpec(**read_object(d, SPEC_FIELD_TYPES, where, error, ("kind",), prefix))


# each spec field -> its JSON kind (a key of jsondoc.KINDS), or its kind and
# the bound its value must meet
SPEC_FIELD_TYPES = {
    "kind": ("a string", one_of(KINDS)), "max_depth": "an integer or null",
    "min_leaf": ("an integer", at_least(1)), "k": ("an integer", at_least(1)),
    "l1_strength": ("a number", at_least(0)), "max_iter": "an integer", "tol": "a number",
    "n_estimators": ("an integer", at_least(1)), "learning_rate": ("a number", POSITIVE),
}

# documented defaults for the paper-level experiments
DEFAULT_ADABOOST_DEPTH = 3

DEFAULT_LEARNERS = {
    "decision_tree": LearnerSpec("decision_tree", max_depth=None, min_leaf=5),
    "knn": LearnerSpec("knn", k=5),
    "logreg_l1": LearnerSpec("logreg_l1", l1_strength=1.0, max_iter=500, tol=1e-6),
    "adaboost_clf": LearnerSpec("adaboost_clf", n_estimators=10,
                                max_depth=DEFAULT_ADABOOST_DEPTH, min_leaf=1),
    "adaboost_reg": LearnerSpec("adaboost_reg", n_estimators=10,
                                max_depth=DEFAULT_ADABOOST_DEPTH, min_leaf=1),
}


@dataclass
class Model:
    spec: LearnerSpec
    n_features: int
    tree: TreeNode | None = None
    train_x: np.ndarray | None = None
    train_y: np.ndarray | None = None
    coef: np.ndarray | None = None
    intercept: float = 0.0
    stages: list[BoostStage] = field(default_factory=list)
    constant_score: float | None = None


def fit_arrays(spec: LearnerSpec, x: np.ndarray, y: np.ndarray) -> Model:
    """Fit on raw arrays (classification targets {0,1}, regression targets real).

    Deterministic given (spec, x, y): no learner draws random numbers.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("feature matrix and targets do not align")
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    model = Model(spec=spec, n_features=x.shape[1])
    if spec.kind == "decision_tree":
        model.tree = build_classification_tree(x, y.astype(np.int64),
                                               max_depth=spec.max_depth, min_leaf=spec.min_leaf)
    elif spec.kind == "knn":
        _count_fit()
        model.train_x = x.copy()
        model.train_y = y.astype(np.float64)
    elif spec.kind == "logreg_l1":
        model.coef, model.intercept = fit_logreg_l1(
            x, y.astype(np.float64), l1_strength=spec.l1_strength,
            max_iter=spec.max_iter, tol=spec.tol)
    elif spec.kind == "adaboost_clf":
        model.stages = fit_boosted_classifier(
            x, y.astype(np.int64), n_estimators=spec.n_estimators,
            max_depth=spec.max_depth, min_leaf=spec.min_leaf,
            learning_rate=spec.learning_rate)
    elif spec.kind == "adaboost_reg":
        model.stages = fit_boosted_regressor(
            x, y.astype(np.float64), n_estimators=spec.n_estimators,
            max_depth=spec.max_depth, min_leaf=spec.min_leaf,
            learning_rate=spec.learning_rate)
    else:
        raise ValueError(f"unknown learner kind {spec.kind!r}")
    return model


def constant_model(spec: LearnerSpec, n_features: int, score: float) -> Model:
    """Classifier that returns a fixed score (degenerate single-class training)."""
    return Model(spec=spec, n_features=n_features, constant_score=float(score))


def _check_width(model: Model, width: int) -> None:
    if width != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {width}")


def predict_scores(model: Model, x: np.ndarray) -> np.ndarray:
    """Class-1 scores in [0,1] (or real predictions for the regressor)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _check_width(model, x.shape[1])
    if model.constant_score is not None:
        return np.full(x.shape[0], model.constant_score)
    kind = model.spec.kind
    if kind == "decision_tree":
        return tree_predict(model.tree, x)
    if kind == "knn":
        return knn_scores(model.train_x, model.train_y, x, model.spec.k)
    if kind == "logreg_l1":
        z = x @ model.coef + model.intercept
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    if kind == "adaboost_clf":
        return boosted_classifier_scores(model.stages, x)
    if kind == "adaboost_reg":
        return boosted_regressor_predict(model.stages, x)
    raise ValueError(f"unknown learner kind {kind!r}")


def predict_score(model: Model, x: np.ndarray) -> float:
    """The score of one row `x` (1-D, or 2-D with one row); `predict_scores`
    gives the same float. A constant model returns its stored score without
    building an array."""
    if model.constant_score is not None:
        _check_width(model, np.shape(x)[-1])
        return model.constant_score
    return float(predict_scores(model, np.atleast_2d(x))[0])


MODEL_FORMAT = "resamplerec-model"
MODEL_VERSION = 1


def model_to_dict(model: Model) -> dict:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "spec": model.spec.to_dict(),
        "n_features": model.n_features,
    }
    if model.constant_score is not None:
        doc["constant_score"] = model.constant_score
        return doc
    kind = model.spec.kind
    if kind == "decision_tree":
        doc["tree"] = model.tree.to_dict()
    elif kind == "knn":
        doc["train_x"] = model.train_x.tolist()
        doc["train_y"] = model.train_y.tolist()
    elif kind == "logreg_l1":
        doc["coef"] = model.coef.tolist()
        doc["intercept"] = model.intercept
    else:
        doc["stages"] = [{"weight": st.weight, "tree": st.tree.to_dict()} for st in model.stages]
    return doc


def model_from_dict(doc: dict, shared: tuple[dict, LearnerSpec] | None = None) -> Model:
    """The model of a `model_to_dict` document. `shared` is a spec object and
    its decoded LearnerSpec: a `spec` equal to that object, value types
    included, takes that LearnerSpec instead of being decoded again.

    A ValueError names a key that is missing, holds the wrong JSON type or
    is out of range.
    """
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model document")
    if doc.get("version") != MODEL_VERSION or type(doc["version"]) is not int:  # not 1.0
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    spec_doc = read_key(doc, "spec", "an object", "model")
    if shared is not None and _same_json(spec_doc, shared[0]):
        spec = shared[1]
    else:
        spec = LearnerSpec.from_dict(spec_doc, "model", prefix="spec.")
    width = read_key(doc, "n_features", "an integer", "model", bound=at_least(1))
    if "constant_score" in doc:
        return constant_model(spec, width, read_key(doc, "constant_score", "a number", "model"))
    model = Model(spec=spec, n_features=width)
    features = (f"in 0..{width - 1}", lambda f: 0 <= f < width)  # a split's feature
    kind = spec.kind
    if kind == "decision_tree":
        model.tree = _tree_from_dict(read_key(doc, "tree", "an object", "model"), features)
    elif kind == "knn":
        model.train_x = np.array(read_array(doc, "train_x", "a number", "model",
                                            shape=(None, width)), dtype=np.float64)
        model.train_y = np.array(read_array(doc, "train_y", "a number", "model",
                                            shape=(len(model.train_x),)), dtype=np.float64)
    elif kind == "logreg_l1":
        model.coef = np.array(read_array(doc, "coef", "a number", "model", shape=(width,)),
                              dtype=np.float64)
        model.intercept = float(read_key(doc, "intercept", "a number", "model"))
    else:
        for st in read_key(doc, "stages", "a non-empty array", "model"):
            tree = read_key(st, "tree", "an object", "boost stage")
            weight = read_key(st, "weight", "a number", "boost stage")
            model.stages.append(BoostStage(_tree_from_dict(tree, features), float(weight)))
    return model


def _tree_from_dict(node: dict, features: tuple) -> TreeNode:
    """The tree of a `TreeNode.to_dict` object whose splits read features in
    the bound `features`; a ValueError names a missing or wrong-typed key."""
    n = read_key(node, "n", "an integer", "tree node")
    if "feature" not in node:
        return TreeNode(value=float(read_key(node, "value", "a number", "tree node")), n_samples=n)
    return TreeNode(
        feature=read_key(node, "feature", "an integer", "tree node", bound=features),
        threshold=float(read_key(node, "threshold", "a number", "tree node")),
        n_samples=n,
        left=_tree_from_dict(read_key(node, "left", "an object", "tree node"), features),
        right=_tree_from_dict(read_key(node, "right", "an object", "tree node"), features))


def _same_json(a, b: dict) -> bool:
    """a == b, and every value of the same type (1, 1.0 and true differ)."""
    return a == b and all(type(a[key]) is type(value) for key, value in b.items())
