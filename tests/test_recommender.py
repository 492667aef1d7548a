import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resamplerec.data import MixtureConfig, generate_mixture, imbalance_ratio
from resamplerec.evaluation import quality_grid
from resamplerec.learners import (LearnerSpec, constant_model, fit_arrays, fit_count,
                                  model_to_dict)
from resamplerec.qualityvars import binarize_targets, format_multiplier
from resamplerec.recommender import (PRESETS, MetaRecord, RecommenderModel,
                                     build_meta_dataset, load_recommender, recommend,
                                     recommender_from_dict, recommender_to_dict,
                                     save_recommender, snap_to_grid, train,
                                     train_approach1, train_approach2)

import oracles
from conftest import make_dataset

TREE = LearnerSpec("decision_tree", max_depth=3, min_leaf=2)
METHODS = ["ros", "rus", "smote3"]
MULTS = [1.5, 2.0, 2.5]


@pytest.fixture(scope="module")
def small_bank():
    cfg = MixtureConfig(dim_range=(3, 5), size_range=(70, 120),
                        minor_fraction_range=(0.1, 0.3), seed=77)
    datasets = [generate_mixture(cfg, i) for i in range(8)]
    grids = [quality_grid(s, TREE, METHODS, MULTS, k=5, seed=3) for s in datasets]
    return list(zip(datasets, grids))


@pytest.fixture(scope="module")
def meta_records(small_bank):
    return build_meta_dataset(small_bank, epsilon=0.75)


class TestBuildMetaDataset:
    def test_one_record_per_dataset(self, small_bank, meta_records):
        assert len(meta_records) == len(small_bank)
        assert [r.dataset_id for r in meta_records] == [s.id for s, _ in small_bank]

    def test_deterministic(self, small_bank, meta_records):
        again = build_meta_dataset(small_bank, epsilon=0.75)
        for a, b in zip(meta_records, again):
            assert np.array_equal(a.features.values, b.features.values)
            assert a.qv == b.qv

    def test_inconsistent_grids_rejected(self, small_bank):
        s0, g0 = small_bank[0]
        bad = quality_grid(s0, TREE, ["ros"], [2.0], k=5, seed=3)
        with pytest.raises(ValueError, match="inconsistent"):
            build_meta_dataset([small_bank[1], (s0, bad)], 0.75)

    def test_targets_consistent_with_qv(self, meta_records):
        """A record fixes no alpha: each trainer binarizes its quality
        variables at its own preset's level."""
        for alpha in (0.05, 0.3):
            for rec in meta_records:
                targets = binarize_targets(rec.qv, alpha)
                for key, cv in rec.qv.cells.items():
                    assert targets.y_rm[key] == int(cv.q_pval < alpha)


class TestTrainApproach1:
    def test_one_classifier_per_present_cell(self, meta_records):
        model = train_approach1(meta_records, PRESETS["rs1-dtree"])
        present = set()
        for rec in meta_records:
            present.update(rec.qv.cells.keys())
        assert set(model.a1_models.keys()) == present

    def test_single_class_targets_get_laplace_constant(self):
        records = []
        rng = np.random.default_rng(0)
        for i in range(4):
            base = rng.uniform(0.4, 0.6, size=6)
            from resamplerec.evaluation import QualityGrid
            cells = {("none", 1.0): base, ("ros", 2.0): base + 0.2}  # p-value 0 always
            g = QualityGrid(dataset_id=f"d{i}", learner_id="synthetic", k=6, seed=1,
                            methods=["ros"], multipliers=[2.0], cells=cells)
            records.append((make_dataset(30, 10, seed=i, dataset_id=f"d{i}"), g))
        meta = build_meta_dataset(records, 0.75)
        model = train_approach1(meta, PRESETS["rs1-dtree"])
        mdl = model.a1_models[("ros", 2.0)]
        assert mdl.constant_score == pytest.approx((4 + 1) / (4 + 2))

    def test_wrong_approach_preset_rejected(self, meta_records):
        with pytest.raises(ValueError, match="not an approach-1"):
            train_approach1(meta_records, PRESETS["rs2-dtree"])

    def test_empty_meta_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_approach1([], PRESETS["rs1-dtree"])


class TestTrainApproach2:
    def test_one_pair_per_method(self, meta_records):
        model = train_approach2(meta_records, PRESETS["rs2-dtree"])
        methods = set(meta_records[0].qv.methods)
        assert set(model.a2_classifiers.keys()) == methods
        assert set(model.a2_regressors.keys()) == methods

    def test_no_positive_records_gives_midpoint_regressor(self):
        records = []
        rng = np.random.default_rng(1)
        for i in range(4):
            base = rng.uniform(0.4, 0.6, size=6)
            from resamplerec.evaluation import QualityGrid
            cells = {("none", 1.0): base, ("ros", 1.5): base - 0.2, ("ros", 4.0): base - 0.1}
            g = QualityGrid(dataset_id=f"d{i}", learner_id="synthetic", k=6, seed=1,
                            methods=["ros"], multipliers=[1.5, 4.0], cells=cells)
            records.append((make_dataset(30, 10, seed=i, dataset_id=f"d{i}"), g))
        meta = build_meta_dataset(records, 0.75)
        model = train_approach2(meta, PRESETS["rs2-dtree"])
        assert model.a2_regressors["ros"].constant_score == pytest.approx((1.5 + 4.0) / 2)


class TestSnap:
    def test_nearest_ties_down(self):
        grid = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        assert snap_to_grid(3.13, grid) == 3.0
        assert snap_to_grid(3.30, grid) == 3.5
        assert snap_to_grid(2.75, grid) == 2.5  # exact midpoint snaps down
        assert snap_to_grid(0.2, grid) == 1.5   # clipped to range
        assert snap_to_grid(9.9, grid) == 4.0


def constant_a1_model(scores: dict, methods=("ros", "rus"), multipliers=(1.5, 2.0)) -> RecommenderModel:
    spec = LearnerSpec("adaboost_clf")
    model = RecommenderModel(
        approach="a1", preset_name="rs1-dtree", alpha=0.05, epsilon=0.75,
        feature_names=["reversed_ir", "center_distance"], methods=list(methods),
        multipliers=[float(m) for m in multipliers], classifier_spec=spec)
    for key, p in scores.items():
        model.a1_models[key] = constant_model(spec, 2, p)
    return model


class TestRecommend:
    def test_all_negative_returns_no_resampling(self):
        model = constant_a1_model({("ros", 1.5): 0.2, ("rus", 2.0): 0.4})
        s = make_dataset(60, 20)
        rec = recommend(model, s)
        assert rec.spec.method == "none" and rec.spec.multiplier == 1.0

    def test_single_positive_cell_wins(self):
        model = constant_a1_model({("ros", 1.5): 0.2, ("rus", 2.0): 0.8})
        rec = recommend(model, make_dataset(60, 20))
        assert (rec.spec.method, rec.spec.multiplier) == ("rus", 2.0)

    def test_probability_of_exactly_half_is_positive(self):
        s = make_dataset(60, 20)
        rec = recommend(constant_a1_model({("ros", 1.5): 0.5, ("rus", 2.0): 0.25}), s)
        assert (rec.spec.method, rec.spec.multiplier) == ("ros", 1.5)
        below = constant_a1_model({("ros", 1.5): float(np.nextafter(0.5, 0.0))})
        assert recommend(below, s).spec.method == "none"

    def test_argmax_over_positive_cells(self):
        scores = {("ros", 1.5): 0.7, ("ros", 2.0): 0.9, ("rus", 1.5): 0.85}
        model = constant_a1_model(scores)
        rec = recommend(model, make_dataset(60, 20))
        assert (rec.spec.method, rec.spec.multiplier) == ("ros", 2.0)
        positives = {k: p for k, p in rec.details["p_hat"].items() if p >= 0.5}
        assert max(positives.values()) == 0.9

    def test_p_hat_keys_keep_close_multipliers_apart(self):
        """Details key each cell by the multiplier text of the answer line, so
        two cells that agree to six digits keep their own probabilities."""
        scores = {("ros", 1.1): 0.9, ("ros", 1.1000001): 0.2}
        model = constant_a1_model(scores, methods=("ros",), multipliers=(1.1, 1.1000001))
        rec = recommend(model, make_dataset(60, 20))
        assert (rec.spec.method, rec.spec.multiplier) == ("ros", 1.1)
        assert rec.details["p_hat"] == {"ros@1.1": 0.9, "ros@1.1000001": 0.2}

    def test_tie_broken_by_method_order_then_multiplier(self):
        scores = {("rus", 2.0): 0.8, ("ros", 2.0): 0.8, ("ros", 1.5): 0.8}
        model = constant_a1_model(scores)
        rec = recommend(model, make_dataset(60, 20))
        assert (rec.spec.method, rec.spec.multiplier) == ("ros", 1.5)

    def test_infeasible_winner_falls_through(self):
        # rus@2.0 has the top score but IR(S) = 1.5 < 2.0, so ros wins
        scores = {("rus", 2.0): 0.9, ("ros", 1.5): 0.6}
        model = constant_a1_model(scores)
        s = make_dataset(30, 20)
        assert imbalance_ratio(s) == 1.5
        rec = recommend(model, s)
        assert (rec.spec.method, rec.spec.multiplier) == ("ros", 1.5)

    def test_all_infeasible_falls_to_none(self):
        scores = {("rus", 2.0): 0.9}
        model = constant_a1_model(scores)
        rec = recommend(model, make_dataset(30, 20))
        assert rec.spec.method == "none"

    def test_recommend_is_pure_and_fits_nothing(self, meta_records, small_bank):
        model = train(meta_records, PRESETS["rs1-dtree"])
        s = small_bank[0][0]
        before = fit_count()
        a = recommend(model, s)
        b = recommend(model, s)
        assert fit_count() == before  # zero base-learner fits during recommend
        assert a.spec == b.spec

    def test_a2_decision_rule(self, meta_records, small_bank):
        model = train(meta_records, PRESETS["rs2-dtree"])
        s = small_bank[0][0]
        rec = recommend(model, s)
        if rec.spec.method != "none":
            assert rec.spec.multiplier in model.multipliers
            positives = {r: p for r, p in rec.details["p_hat"].items() if p >= 0.5}
            assert rec.details["p_hat"][rec.spec.method] == max(positives.values())
        else:
            assert rec.spec.multiplier == 1.0


class TestSerialization:
    def test_round_trip_a1(self, meta_records, small_bank, tmp_path):
        model = train(meta_records, PRESETS["rs1-dtree"])
        save_recommender(model, tmp_path / "a1.json")
        back = load_recommender(tmp_path / "a1.json")
        for s, _ in small_bank:
            assert recommend(model, s).spec == recommend(back, s).spec

    def test_round_trip_a2(self, meta_records, small_bank, tmp_path):
        model = train(meta_records, PRESETS["rs2-dtree"])
        save_recommender(model, tmp_path / "a2.json")
        back = load_recommender(tmp_path / "a2.json")
        for s, _ in small_bank:
            assert recommend(model, s).spec == recommend(back, s).spec

    def test_format_check(self, meta_records):
        doc = recommender_to_dict(train(meta_records, PRESETS["rs1-dtree"]))
        doc["format"] = "other"
        with pytest.raises(ValueError, match="not a recommender"):
            recommender_from_dict(doc)


def json_document(model: RecommenderModel) -> dict:
    return json.loads(json.dumps(recommender_to_dict(model)))


class TestEditedDocuments:
    """A trained document's entries share the top-level spec's LearnerSpec;
    an entry whose spec differs is decoded to its own spec."""

    def test_trained_entries_share_the_top_level_specs(self, meta_records):
        a1 = recommender_from_dict(json_document(train(meta_records, PRESETS["rs1-dtree"])))
        assert all(m.spec is a1.classifier_spec for m in a1.a1_models.values())
        a2 = recommender_from_dict(json_document(train(meta_records, PRESETS["rs2-dtree"])))
        assert all(m.spec is a2.classifier_spec for m in a2.a2_classifiers.values())
        assert all(m.spec is a2.regressor_spec for m in a2.a2_regressors.values())

    @pytest.mark.parametrize("spec", [
        replace(PRESETS["rs1-dtree"].classifier_spec, max_depth=5),
        LearnerSpec("logreg_l1", l1_strength=0.5),
    ], ids=["other-max-depth", "other-kind"])
    def test_an_entry_with_another_spec_keeps_it(self, meta_records, small_bank, spec):
        doc = json_document(train(meta_records, PRESETS["rs1-dtree"]))
        token = min(doc["models"])
        entry = doc["models"][token]
        doc["models"][token] = model_to_dict(constant_model(spec, entry["n_features"], 0.75))
        model = recommender_from_dict(doc)
        key = next(k for k in model.a1_models if f"{k[0]}@{k[1]!r}" == token)
        assert model.a1_models[key].spec == spec
        assert model.a1_models[key].spec != model.classifier_spec
        assert all(m.spec is model.classifier_spec
                   for k, m in model.a1_models.items() if k != key)
        assert recommend(model, small_bank[0][0]).details["p_hat"][
            f"{key[0]}@{format_multiplier(key[1])}"] == 0.75


# multipliers whose shortest repr needs many digits
LONG_REPR_MULTIPLIERS = (1.1, 2.675, float(np.nextafter(1.0, 2.0)), 1.0 + 0.1 + 0.2,
                         float(np.nextafter(3.0, 0.0)))


@st.composite
def recommender_models(draw) -> RecommenderModel:
    """a1 or a2 models whose meta-models are constant or fitted AdaBoost ensembles."""
    approach = draw(st.sampled_from(["a1", "a2"]))
    methods = draw(st.lists(st.sampled_from(["ros", "rus", "smote3"]), min_size=1,
                            max_size=3, unique=True))
    multipliers = draw(st.lists(st.one_of(st.sampled_from(LONG_REPR_MULTIPLIERS),
                                          st.floats(1.0, 4.0)),
                                min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clf = LearnerSpec("adaboost_clf", n_estimators=3, max_depth=2, min_leaf=2)
    reg = LearnerSpec("adaboost_reg", n_estimators=3, max_depth=2, min_leaf=2)

    def meta_model(spec, constant, targets):
        if draw(st.booleans()):
            return constant_model(spec, 2, constant)
        return fit_arrays(spec, rng.normal(size=(16, 2)), targets)

    model = RecommenderModel(
        approach=approach, preset_name=f"rs{approach[1]}-dtree", alpha=0.05, epsilon=0.75,
        feature_names=["reversed_ir", "center_distance"], methods=methods,
        multipliers=multipliers, classifier_spec=clf,
        regressor_spec=reg if approach == "a2" else None, trained_on_ids=["synth-0"])
    labels = np.arange(16) % 2
    for method in methods:
        if approach == "a1":
            for m in multipliers:
                model.a1_models[(method, m)] = meta_model(clf, draw(st.floats(0.0, 1.0)), labels)
        else:
            model.a2_classifiers[method] = meta_model(clf, draw(st.floats(0.0, 1.0)), labels)
            model.a2_regressors[method] = meta_model(reg, draw(st.sampled_from(multipliers)),
                                                     rng.choice(multipliers, size=16))
    return model


class TestSerializationProperty:
    @given(recommender_models())
    @settings(max_examples=60, deadline=None)
    def test_save_then_load_is_identity(self, model):
        s = make_dataset(60, 20, seed=4)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_recommender(model, path)
            back = load_recommender(path)
        assert recommender_to_dict(back) == recommender_to_dict(model)
        assert repr(recommend(back, s)) == repr(recommend(model, s))


# probabilities that tie, sit exactly at the 0.5 threshold or just below it
TIED_SCORES = st.one_of(st.sampled_from([0.2, 0.5, float(np.nextafter(0.5, 0.0)), 0.7, 0.9]),
                        st.floats(0.0, 1.0))


@st.composite
def constant_score_models(draw) -> RecommenderModel:
    """a1 or a2 models of constant meta-models; a1 cells may be missing (a
    cell skipped on every training dataset has no model)."""
    approach = draw(st.sampled_from(["a1", "a2"]))
    methods = draw(st.lists(st.sampled_from(["ros", "rus", "smote1", "smote5"]), min_size=1,
                            max_size=4, unique=True))
    multipliers = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 6.0]), min_size=1,
                                max_size=5, unique=True))
    clf, reg = PRESETS["rs2-dtree"].classifier_spec, PRESETS["rs2-dtree"].regressor_spec
    model = RecommenderModel(
        approach=approach, preset_name=f"rs{approach[1]}-dtree", alpha=0.05, epsilon=0.75,
        feature_names=["reversed_ir", "center_distance"], methods=methods,
        multipliers=multipliers, classifier_spec=clf,
        regressor_spec=reg if approach == "a2" else None)
    for method in methods:
        if approach == "a2":
            model.a2_classifiers[method] = constant_model(clf, 2, draw(TIED_SCORES))
            model.a2_regressors[method] = constant_model(reg, 2, draw(st.floats(0.0, 8.0)))
            continue
        for m in multipliers:
            if draw(st.booleans()):
                model.a1_models[(method, m)] = constant_model(clf, 2, draw(TIED_SCORES))
    return model


# RUS above IR(S) and SMOTE-5 on fewer than 6 minority rows are infeasible
QUERY_SIZES = st.tuples(st.integers(2, 8), st.integers(0, 30))


class TestOneDecisionRule:
    """`recommend` ranks both approaches' candidates in one loop; the reference
    writes the rule once per approach. Answers and details must agree."""

    @given(constant_score_models(), QUERY_SIZES)
    @settings(max_examples=200, deadline=None)
    def test_constant_models_answer_as_the_two_branch_rule(self, model, sizes):
        n_minor, extra = sizes
        s = make_dataset(n_minor + extra, n_minor, seed=extra)
        assert recommend(model, s) == oracles.recommend(model, s)

    @given(recommender_models(), QUERY_SIZES)
    @settings(max_examples=40, deadline=None)
    def test_fitted_models_answer_as_the_two_branch_rule(self, model, sizes):
        n_minor, extra = sizes
        s = make_dataset(n_minor + extra, n_minor, seed=extra)
        assert recommend(model, s) == oracles.recommend(model, s)


class TestPresets:
    def test_paper_presets_exist(self):
        assert PRESETS["rs1-dtree"].alpha == 0.05
        assert PRESETS["rs1-logreg"].alpha == 0.3
        assert len(PRESETS["rs1-logreg"].feature_names) == 8
        assert PRESETS["rs2-dtree"].feature_names == ("reversed_ir", "center_distance")
        for name, preset in PRESETS.items():
            if preset.approach == "a2":
                assert preset.regressor_spec is not None

    def test_meta_model_is_adaboost_10(self):
        clf = PRESETS["rs1-dtree"].classifier_spec
        assert clf.kind == "adaboost_clf" and clf.n_estimators == 10

    @pytest.mark.parametrize("alias, twin", [("rs1-knn", "rs1-dtree"),
                                             ("rs2-knn", "rs2-dtree"),
                                             ("rs2-logreg", "rs2-dtree")])
    def test_alias_is_its_twin_under_its_own_name(self, alias, twin, meta_records):
        assert PRESETS[alias].name == alias
        assert replace(PRESETS[alias], name=twin) == PRESETS[twin]
        assert recommender_to_dict(train(meta_records, PRESETS[alias]))["preset"] == alias
