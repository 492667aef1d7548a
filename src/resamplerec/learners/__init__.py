"""Base classifiers and meta-level models behind one fit/predict surface.

Kinds: decision_tree, knn, logreg_l1, adaboost_clf, adaboost_reg. `fit_arrays`
fits any kind; `predict_scores` gives each classifier's score in [0, 1],
monotone in the confidence for class 1, or the regressor's prediction.
Callers threshold scores themselves (the recommender counts p >= 0.5 as a
positive). Every fit bumps a module-level counter so tests can assert that
recommendation never trains a base learner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.l1_strength < 0:
            raise ValueError("l1_strength must be >= 0")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")

    def token(self) -> str:
        if self.kind == "decision_tree":
            return f"decision_tree(depth={self.max_depth},min_leaf={self.min_leaf})"
        if self.kind == "knn":
            return f"knn(k={self.k})"
        if self.kind == "logreg_l1":
            return f"logreg_l1(l1={self.l1_strength:g})"
        return f"{self.kind}(n={self.n_estimators},depth={self.max_depth},min_leaf={self.min_leaf})"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "max_depth": self.max_depth, "min_leaf": self.min_leaf,
            "k": self.k, "l1_strength": self.l1_strength, "max_iter": self.max_iter,
            "tol": self.tol, "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
        }

    @staticmethod
    def from_dict(d: dict) -> "LearnerSpec":
        """The spec of a `to_dict` object; a ValueError names a bad field."""
        if not isinstance(d, dict):
            raise ValueError("learner spec is not a JSON object")
        unknown = d.keys() - SPEC_FIELD_TYPES.keys()
        if unknown:
            raise ValueError(f"learner spec has unknown field {min(unknown)!r}")
        if "kind" not in d:
            raise ValueError("learner spec has no field 'kind'")
        for name, value in d.items():
            what, ok = SPEC_FIELD_TYPES[name]
            if not ok(value):
                raise ValueError(f"learner spec field {name!r} must be {what}, "
                                 f"not {json.dumps(value)}")
        return LearnerSpec(**d)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the JSON value each spec field takes: (its description, its test)
SPEC_FIELD_TYPES = {
    "kind": ("a string", lambda v: isinstance(v, str)),
    "max_depth": ("an integer or null", lambda v: v is None or _is_int(v)),
    "min_leaf": ("an integer", _is_int), "k": ("an integer", _is_int),
    "l1_strength": ("a number", _is_number), "max_iter": ("an integer", _is_int),
    "tol": ("a number", _is_number), "n_estimators": ("an integer", _is_int),
    "learning_rate": ("a number", _is_number),
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
    else:
        model.stages = fit_boosted_regressor(
            x, y.astype(np.float64), n_estimators=spec.n_estimators,
            max_depth=spec.max_depth, min_leaf=spec.min_leaf,
            learning_rate=spec.learning_rate)
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
    return boosted_regressor_predict(model.stages, x)


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

    A ValueError names a key that is missing or holds the wrong JSON type.
    """
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    spec_doc = doc.get("spec")
    if shared is not None and _same_json(spec_doc, shared[0]):
        spec = shared[1]
    else:
        spec = LearnerSpec.from_dict(spec_doc)
    width = _key(doc, "n_features", "an integer >= 1", lambda v: _is_int(v) and v >= 1)
    model = Model(spec=spec, n_features=width)
    if "constant_score" in doc:
        model.constant_score = float(_key(doc, "constant_score", "a number", _is_number))
        return model
    kind = spec.kind
    if kind == "decision_tree":
        model.tree = _tree_from_dict(_key(doc, "tree", "an object", _is_object), width)
    elif kind == "knn":
        model.train_x = _array(doc, "train_x", (None, width))
        model.train_y = _array(doc, "train_y", (model.train_x.shape[0],))
    elif kind == "logreg_l1":
        model.coef = _array(doc, "coef", (width,))
        model.intercept = float(_key(doc, "intercept", "a number", _is_number))
    else:
        for st in _key(doc, "stages", "a non-empty array", lambda v: isinstance(v, list) and v):
            tree = _key(st, "tree", "an object", _is_object, "boost stage")
            weight = _key(st, "weight", "a number", _is_number, "boost stage")
            model.stages.append(BoostStage(_tree_from_dict(tree, width), float(weight)))
    return model


def _is_object(value) -> bool:
    return isinstance(value, dict)


def _key(doc, key: str, what: str, ok, where: str = "model"):
    """doc[key] when `ok` accepts it; else a ValueError naming `where` and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in doc:
        raise ValueError(f"{where} has no key {key!r}")
    value = doc[key]
    if not ok(value):
        text = json.dumps(value)
        raise ValueError(f"{where} key {key!r} must be {what}, not "
                         f"{text if len(text) <= 40 else text[:37] + '...'}")
    return value


def _array(doc: dict, key: str, shape: tuple) -> np.ndarray:
    """doc[key] as a float64 array of `shape`, where None takes any length."""
    what = ("an array of numbers of shape "
            f"[{', '.join('n' if n is None else str(n) for n in shape)}]")
    value = _key(doc, key, what, lambda v: isinstance(v, list))
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        array = None
    if array is None or array.dtype.kind not in "iuf" or array.ndim != len(shape) \
            or any(want not in (None, have) for want, have in zip(shape, array.shape)):
        raise ValueError(f"model key {key!r} must be {what}")
    return array.astype(np.float64)


def _tree_from_dict(node: dict, width: int) -> TreeNode:
    """The tree of a `TreeNode.to_dict` object whose splits read features
    0..width-1; a ValueError names a missing or wrong-typed key."""
    n = _key(node, "n", "an integer", _is_int, "tree node")
    if "feature" not in node:
        return TreeNode(value=float(_key(node, "value", "a number", _is_number, "tree node")),
                        n_samples=n)
    return TreeNode(
        feature=_key(node, "feature", f"an integer in 0..{width - 1}",
                     lambda v: _is_int(v) and 0 <= v < width, "tree node"),
        threshold=float(_key(node, "threshold", "a number", _is_number, "tree node")),
        n_samples=n,
        left=_tree_from_dict(_key(node, "left", "an object", _is_object, "tree node"), width),
        right=_tree_from_dict(_key(node, "right", "an object", _is_object, "tree node"), width))


def _same_json(a, b: dict) -> bool:
    """a == b, and every value of the same type (1, 1.0 and true differ)."""
    return a == b and all(type(a[key]) is type(value) for key, value in b.items())
