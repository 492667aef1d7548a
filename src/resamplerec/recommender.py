"""Meta-learning recommenders.

Both approaches learn from one target rule: a cell beats the baseline when
its p-value is below the preset's alpha (`qualityvars.binarize_targets`).
Approach 1 trains one binary meta-classifier per (method, multiplier) cell
on that indicator. Approach 2 trains one classifier per method on the
does-any-multiplier-help indicator plus one regressor per method predicting
the best multiplier. Both answer by one decision rule (`recommend`): rank
the candidate cells predicted to help (p >= 0.5) by probability, take the
first one feasible on the dataset, else no resampling.

A trained file is read back through `jsondoc`, the one reader of the JSON
documents the program reads, so a bad key is one ValueError that names it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import Dataset, write_files_atomically
from .evaluation import QualityGrid
from .jsondoc import read_array, read_json, read_key
from .learners import (LearnerSpec, Model, constant_model, fit_arrays, model_from_dict,
                       model_to_dict, predict_score)
from .metafeatures import META_FEATURE_NAMES, MetaFeatures, compute_meta_features
from .qualityvars import (MetaTargets, QualityVariables, binarize_targets,
                          compute_quality_variables, format_multiplier)
from .resampling import ResamplingSpec, feasible


@dataclass(frozen=True)
class MetaRecord:
    dataset_id: str
    features: MetaFeatures
    qv: QualityVariables


def build_meta_dataset(records: list[tuple[Dataset, QualityGrid]],
                       epsilon: float) -> list[MetaRecord]:
    """One MetaRecord per (dataset, grid) pair; grids must share one definition."""
    out = []
    for dataset, grid in records:
        if grid.dataset_id != dataset.id:
            raise ValueError(f"grid {grid.dataset_id} does not match dataset {dataset.id}")
        if grid.definition != records[0][1].definition:
            raise ValueError("inconsistent grid definitions across records")
        out.append(MetaRecord(dataset_id=dataset.id,
                              features=compute_meta_features(dataset),
                              qv=compute_quality_variables(grid, epsilon)))
    return out


@dataclass(frozen=True)
class RecommenderPreset:
    """Named meta-model configuration: model specs, feature subset, alpha."""

    name: str
    approach: str  # "a1" or "a2"
    alpha: float
    feature_names: tuple[str, ...]
    classifier_spec: LearnerSpec
    regressor_spec: LearnerSpec | None = None


_ADA_CLF = LearnerSpec("adaboost_clf", n_estimators=10, max_depth=3, min_leaf=5)
_ADA_REG = LearnerSpec("adaboost_reg", n_estimators=10, max_depth=3, min_leaf=5)

_RS1_FEATURES = ("reversed_ir", "center_distance", "n_objects",
                 "min_abs_cov_eig_major", "max_kurt_pval_minor")
_RS2_FEATURES = ("reversed_ir", "center_distance")
_RS1_LOGREG_FEATURES = ("reversed_ir", "center_distance", "n_objects",
                        "min_abs_cov_eig_major",
                        "min_kurt_pval_minor", "max_kurt_pval_minor",
                        "min_skew_pval_minor", "max_skew_pval_minor")

_RS1_DTREE = RecommenderPreset("rs1-dtree", "a1", 0.05, _RS1_FEATURES, _ADA_CLF)
_RS2_DTREE = RecommenderPreset("rs2-dtree", "a2", 0.05, _RS2_FEATURES, _ADA_CLF, _ADA_REG)

# The kNN presets and rs2-logreg are the tree presets under their own name;
# model files record the requested name as "preset".
PRESETS: dict[str, RecommenderPreset] = {
    "rs1-dtree": _RS1_DTREE,
    "rs2-dtree": _RS2_DTREE,
    "rs1-knn": replace(_RS1_DTREE, name="rs1-knn"),
    "rs2-knn": replace(_RS2_DTREE, name="rs2-knn"),
    "rs1-logreg": RecommenderPreset("rs1-logreg", "a1", 0.3, _RS1_LOGREG_FEATURES,
                                    LearnerSpec("logreg_l1")),
    "rs2-logreg": replace(_RS2_DTREE, name="rs2-logreg"),
}

DEFAULT_PRESETS = {
    ("a1", "decision_tree"): "rs1-dtree",
    ("a2", "decision_tree"): "rs2-dtree",
    ("a1", "knn"): "rs1-knn",
    ("a2", "knn"): "rs2-knn",
    ("a1", "logreg_l1"): "rs1-logreg",
    ("a2", "logreg_l1"): "rs2-logreg",
}


@dataclass
class RecommenderModel:
    approach: str
    preset_name: str
    alpha: float
    epsilon: float
    feature_names: list[str]
    methods: list[str]
    multipliers: list[float]
    classifier_spec: LearnerSpec
    regressor_spec: LearnerSpec | None = None
    a1_models: dict[tuple[str, float], Model] = field(default_factory=dict)
    a2_classifiers: dict[str, Model] = field(default_factory=dict)
    a2_regressors: dict[str, Model] = field(default_factory=dict)
    trained_on_ids: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Recommendation:
    spec: ResamplingSpec
    provenance: str
    details: dict = field(default_factory=dict)


def _fit_binary_meta(spec: LearnerSpec, x: np.ndarray, y: np.ndarray) -> Model:
    """Fit the meta-classifier; single-class targets become a constant model
    whose score is the Laplace-smoothed class prior."""
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        return constant_model(spec, x.shape[1], (n_pos + 1.0) / (y.shape[0] + 2.0))
    return fit_arrays(spec, x, y)


def _record_matrix(records: list[MetaRecord], feature_names: list[str]) -> np.ndarray:
    return np.array([rec.features.select(feature_names) for rec in records])


def _untrained_model(meta: list[MetaRecord], preset: RecommenderPreset, approach: str,
                     use_windowed_pval_for_targets: bool
                     ) -> tuple[RecommenderModel, list[MetaTargets]]:
    """The model shell for `preset` on the meta-dataset's grid, plus each
    record's targets at the preset's alpha."""
    if not meta:
        raise ValueError("empty meta-dataset")
    if preset.approach != approach:
        raise ValueError(f"preset {preset.name} is not an approach-{approach[1]} preset")
    model = RecommenderModel(
        approach=approach, preset_name=preset.name, alpha=preset.alpha,
        epsilon=meta[0].qv.epsilon, feature_names=list(preset.feature_names),
        methods=list(meta[0].qv.methods),
        multipliers=[float(m) for m in meta[0].qv.multipliers],
        classifier_spec=preset.classifier_spec, regressor_spec=preset.regressor_spec,
        trained_on_ids=[rec.dataset_id for rec in meta])
    targets = [binarize_targets(rec.qv, preset.alpha, use_windowed_pval_for_targets)
               for rec in meta]
    return model, targets


def train_approach1(meta: list[MetaRecord], preset: RecommenderPreset,
                    use_windowed_pval_for_targets: bool = False) -> RecommenderModel:
    model, targets = _untrained_model(meta, preset, "a1", use_windowed_pval_for_targets)
    for method in model.methods:
        for m in model.multipliers:
            key = (method, m)
            rows = [i for i, rec in enumerate(meta) if key in rec.qv.cells]
            if not rows:
                continue  # cell skipped everywhere: no meta-model for it
            x = _record_matrix([meta[i] for i in rows], model.feature_names)
            y = np.array([targets[i].y_rm[key] for i in rows], dtype=np.int64)
            model.a1_models[key] = _fit_binary_meta(preset.classifier_spec, x, y)
    return model


def train_approach2(meta: list[MetaRecord], preset: RecommenderPreset,
                    use_windowed_pval_for_targets: bool = False) -> RecommenderModel:
    model, targets = _untrained_model(meta, preset, "a2", use_windowed_pval_for_targets)
    feature_names = model.feature_names
    midpoint = (min(model.multipliers) + max(model.multipliers)) / 2.0
    for method in model.methods:
        rows = [i for i, rec in enumerate(meta) if method in rec.qv.per_method]
        if not rows:
            continue
        x = _record_matrix([meta[i] for i in rows], feature_names)
        y = np.array([targets[i].y_r[method] for i in rows], dtype=np.int64)
        model.a2_classifiers[method] = _fit_binary_meta(preset.classifier_spec, x, y)
        # the multiplier regression is meaningful only where resampling helped
        pos = [i for i in rows if targets[i].y_r[method] == 1]
        if pos:
            xr = _record_matrix([meta[i] for i in pos], feature_names)
            zr = np.array([targets[i].z_r[method] for i in pos], dtype=np.float64)
            model.a2_regressors[method] = fit_arrays(preset.regressor_spec, xr, zr)
        else:
            model.a2_regressors[method] = constant_model(preset.regressor_spec,
                                                         len(feature_names), midpoint)
    return model


def train(meta: list[MetaRecord], preset: RecommenderPreset, **kwargs) -> RecommenderModel:
    if preset.approach == "a1":
        return train_approach1(meta, preset, **kwargs)
    return train_approach2(meta, preset, **kwargs)


def snap_to_grid(z: float, multipliers: list[float]) -> float:
    """Clip to the grid range, then snap to the nearest grid value (ties down)."""
    ms = sorted(float(m) for m in multipliers)
    z = min(max(z, ms[0]), ms[-1])
    return min(ms, key=lambda m: (abs(m - z), m))


def recommend(model: RecommenderModel, s: Dataset) -> Recommendation:
    """Meta-features in, (method, multiplier) out; never fits a base learner.

    Only the meta-features the model reads are computed, so a dataset is
    refused only when one of those is undefined.

    Each approach scores its candidates: approach 1 one per cell model,
    approach 2 one per method, whose cell is at its regressed multiplier
    snapped to the grid. Those predicted to beat the baseline (p >= 0.5) are
    ranked by probability (ties: method order, then smaller multiplier);
    infeasible winners fall through to the next candidate and finally to
    no-resampling.
    """
    x = compute_meta_features(s, model.feature_names).values[None, :]
    if model.approach == "a1":
        p_hat = {key: predict_score(mdl, x) for key, mdl in model.a1_models.items()}
        details = {"approach": "a1",
                   "p_hat": {f"{k[0]}@{format_multiplier(k[1])}": p
                             for k, p in sorted(p_hat.items())}}

        def cell(key):
            return key
    else:
        p_hat = {r: predict_score(mdl, x) for r, mdl in model.a2_classifiers.items()}
        z_hat = {r: predict_score(model.a2_regressors[r], x) for r in p_hat}
        details = {"approach": "a2", "p_hat": dict(sorted(p_hat.items())),
                   "z_hat": dict(sorted(z_hat.items()))}

        def cell(r):
            return r, snap_to_grid(z_hat[r], model.multipliers)
    method_order = {r: i for i, r in enumerate(model.methods)}
    # filtered before `cell`, so only candidates have their multiplier snapped
    positive = sorted(((cell(key), p) for key, p in p_hat.items() if p >= 0.5),
                      key=lambda item: (-item[1], method_order[item[0][0]], item[0][1]))
    for (method, m), _ in positive:
        spec = ResamplingSpec(method, m)
        if feasible(spec, s.n_major, s.n_minor) is None:
            return Recommendation(spec, model.approach, details)
    return Recommendation(ResamplingSpec("none"), model.approach, details)


RECOMMENDER_FORMAT = "resamplerec-recommender"
RECOMMENDER_VERSION = 1


def recommender_to_dict(model: RecommenderModel) -> dict:
    doc = {
        "format": RECOMMENDER_FORMAT,
        "version": RECOMMENDER_VERSION,
        "approach": model.approach,
        "preset": model.preset_name,
        "alpha": model.alpha,
        "epsilon": model.epsilon,
        "features": model.feature_names,
        "methods": model.methods,
        "multipliers": [repr(m) for m in model.multipliers],
        "classifier_spec": model.classifier_spec.to_dict(),
        "regressor_spec": model.regressor_spec.to_dict() if model.regressor_spec else None,
        "trained_on": model.trained_on_ids,
    }
    if model.approach == "a1":
        doc["models"] = {f"{k[0]}@{repr(k[1])}": model_to_dict(m)
                         for k, m in sorted(model.a1_models.items())}
    else:
        doc["models"] = {r: {"classifier": model_to_dict(model.a2_classifiers[r]),
                             "regressor": model_to_dict(model.a2_regressors[r])}
                         for r in sorted(model.a2_classifiers)}
    return doc


def recommender_from_dict(doc: dict, where: str = "recommender") -> RecommenderModel:
    """The model of a `recommender_to_dict` document; a ValueError names
    `where` (the document, its file when read from one) and a bad key."""
    if read_key(doc, "format", "any value", where) != RECOMMENDER_FORMAT:
        raise ValueError("not a recommender document")
    if doc.get("version") != RECOMMENDER_VERSION or type(doc["version"]) is not int:
        raise ValueError(f"unsupported recommender version {doc.get('version')!r}")
    approach = read_key(doc, "approach", "a string", where)
    if approach not in ("a1", "a2"):
        raise ValueError(f"{where} key 'approach' must be 'a1' or 'a2', not {approach!r}")
    features = read_array(doc, "features", "a string", where)
    for name in features:
        if name not in META_FEATURE_NAMES:
            raise ValueError(f"{where} key 'features' names no meta-feature: {name!r}")
    model = RecommenderModel(
        approach=approach, preset_name=read_key(doc, "preset", "a string", where),
        alpha=float(read_key(doc, "alpha", "a number", where)),
        epsilon=float(read_key(doc, "epsilon", "a number", where)), feature_names=list(features),
        methods=list(read_array(doc, "methods", "a string", where)),
        multipliers=[float(m) for m in read_array(doc, "multipliers", "a float string", where)],
        classifier_spec=_spec(doc, "classifier_spec", where),
        regressor_spec=_spec(doc, "regressor_spec", where) if approach == "a2"
        else read_key(doc, "regressor_spec", "null", where),
        trained_on_ids=list(read_array(doc, "trained_on", "a string", where)))
    for name in ("methods", "multipliers"):
        if not doc[name]:
            raise ValueError(f"{where} key {name!r} must be a non-empty array, not []")
    # entries whose spec is the top-level one (all of them in a trained
    # document) share its LearnerSpec rather than decode it again
    classifier = (doc["classifier_spec"], model.classifier_spec)
    regressor = (doc["regressor_spec"], model.regressor_spec)
    methods, multipliers = set(model.methods), set(model.multipliers)
    for token, entry in read_key(doc, "models", "an object", where).items():
        try:
            method, _, m = token.rpartition("@") if approach == "a1" else (token, "", "")
            if method not in methods:
                raise ValueError(f"method {method!r} is not in 'methods'")
            if approach == "a1":
                if float(m) not in multipliers:
                    raise ValueError(f"multiplier {m} is not in 'multipliers'")
                model.a1_models[(method, float(m))] = model_from_dict(entry, classifier)
            else:
                model.a2_classifiers[token] = model_from_dict(
                    read_key(entry, "classifier", "an object", "entry"), classifier)
                model.a2_regressors[token] = model_from_dict(
                    read_key(entry, "regressor", "an object", "entry"), regressor)
        except ValueError as exc:
            raise ValueError(f"{where} key 'models' entry {token!r}: {exc}") from None
    return model


def _spec(doc: dict, name: str, where: str) -> LearnerSpec:
    return LearnerSpec.from_dict(read_key(doc, name, "an object", where), where,
                                 prefix=f"{name}.")


def save_recommender(model: RecommenderModel, path: str | Path) -> None:
    write_files_atomically({Path(path): json.dumps(recommender_to_dict(model), sort_keys=True)})


def load_recommender(path: str | Path) -> RecommenderModel:
    return recommender_from_dict(read_json(path, "recommender", ValueError),
                                 f"recommender {path}")
