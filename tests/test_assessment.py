import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resamplerec.assessment import (ALL_STATIC_STRATEGIES, StaticStrategy, apply_static,
                                    assess_bank, ecdf, ecdf_svg, evaluate_cell_on_demand,
                                    format_ara_table, random_cell_recommendation,
                                    recommendation_accuracy, write_report)
from resamplerec.data import MixtureConfig, generate_mixture, imbalance_ratio
from resamplerec.evaluation import FoldSplits, QualityGrid, grid_folds, quality_grid
from resamplerec.learners import LearnerSpec
from resamplerec.recommender import PRESETS, Recommendation
from resamplerec.resampling import ResamplingSpec

from conftest import make_dataset
from oracles import ecdf_share_below

TREE = LearnerSpec("decision_tree", max_depth=3, min_leaf=2)


def grid_with_means(means: dict, k: int = 4) -> QualityGrid:
    """Constant fold vectors, so cell means are exact."""
    cells = {key: np.full(k, value) for key, value in means.items()}
    methods = sorted({key[0] for key in means if key[0] != "none"})
    multipliers = sorted({key[1] for key in means if key[0] != "none"})
    return QualityGrid(dataset_id="fixed", learner_id="synthetic", k=k, seed=0,
                       methods=methods, multipliers=multipliers, cells=cells)


class TestRecommendationAccuracy:
    def setup_method(self):
        self.grid = grid_with_means({("none", 1.0): 0.4, ("ros", 2.0): 0.6,
                                     ("rus", 2.0): 0.5})

    def test_max_cell_scores_one(self):
        rec = Recommendation(ResamplingSpec("ros", 2.0), "t")
        assert recommendation_accuracy(self.grid, rec) == 1.0

    def test_min_cell_scores_zero(self):
        rec = Recommendation(ResamplingSpec("none"), "t")
        assert recommendation_accuracy(self.grid, rec) == 0.0

    def test_midpoint(self):
        rec = Recommendation(ResamplingSpec("rus", 2.0), "t")
        assert recommendation_accuracy(self.grid, rec) == pytest.approx(0.5)

    def test_degenerate_pool_scores_one(self):
        grid = grid_with_means({("none", 1.0): 0.5, ("ros", 2.0): 0.5})
        rec = Recommendation(ResamplingSpec("ros", 2.0), "t")
        assert recommendation_accuracy(grid, rec) == 1.0

    def test_extra_cells_join_pool(self):
        rec = Recommendation(ResamplingSpec("ros", 2.0), "t")
        # an on-demand cell better than every grid cell drags the max up
        ra = recommendation_accuracy(self.grid, rec, extra_cells={("smote5", 3.7): 0.8})
        assert ra == pytest.approx((0.6 - 0.4) / (0.8 - 0.4))

    def test_off_grid_cell_without_extra_cells_rejected(self):
        rec = Recommendation(ResamplingSpec("ros", 9.75), "t")
        with pytest.raises(ValueError, match="not in grid or extra cells"):
            recommendation_accuracy(self.grid, rec)

    def test_off_grid_evaluated_on_demand(self):
        s = make_dataset(60, 20, seed=1)
        grid = quality_grid(s, TREE, ["ros"], [1.5, 2.0], k=4, seed=5)
        scores = evaluate_cell_on_demand(s, grid, TREE, ResamplingSpec("ros", 1.75),
                                         FoldSplits(s, grid_folds(s, grid)))
        rec = Recommendation(ResamplingSpec("ros", 1.75), "t")
        ra = recommendation_accuracy(grid, rec, extra_cells={("ros", 1.75): scores.mean()})
        assert 0.0 <= ra <= 1.0


class TestApplyStatic:
    def test_no_resample(self):
        rec = apply_static(StaticStrategy.NO_RESAMPLE, make_dataset(40, 10))
        assert rec.spec.method == "none" and rec.spec.multiplier == 1.0

    def test_eqs_uses_exact_ir(self):
        s = make_dataset(80, 20)
        rec = apply_static(StaticStrategy.ROS_EQS, s)
        assert (rec.spec.method, rec.spec.multiplier) == ("ros", 4.0)
        rec = apply_static(StaticStrategy.SMOTE5_EQS, s)
        assert (rec.spec.method, rec.spec.multiplier) == ("smote5", 4.0)

    def test_balanced_dataset_degenerates_to_identity(self):
        s = make_dataset(20, 20)
        for strategy in (StaticStrategy.ROS_EQS, StaticStrategy.RUS_EQS,
                         StaticStrategy.SMOTE5_EQS):
            assert apply_static(strategy, s).spec.multiplier == 1.0

    def test_off_grid_multiplier_allowed(self):
        s = make_dataset(55, 20)  # IR = 2.75, not a grid value
        assert apply_static(StaticStrategy.RUS_EQS, s).spec.multiplier == 2.75


class TestEcdf:
    def test_all_ones_single_step(self):
        assert ecdf(np.array([1.0, 1.0, 1.0])) == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]

    def test_single_value(self):
        points = ecdf(np.array([0.5]))
        assert points == [(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (1.0, 1.0)]
        # y just right of 0.5 is 1: the step is complete at 0.6
        assert ecdf_share_below(np.array([0.5]), 0.6) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ecdf(np.array([]))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_counting(self, values):
        values = np.array(values)
        points = ecdf(values)
        ys = [p[1] for p in points]
        xs = [p[0] for p in points]
        assert ys == sorted(ys)
        assert xs == sorted(xs)
        assert ys[-1] == 1.0
        # the first point emitted at each distinct value is the strict share
        seen = set()
        for x, y in points:
            if x in seen or x not in values:
                continue
            seen.add(x)
            assert y == pytest.approx(ecdf_share_below(values, x))


@pytest.fixture(scope="module")
def assess_fixture():
    cfg = MixtureConfig(dim_range=(3, 5), size_range=(80, 140),
                        minor_fraction_range=(0.12, 0.3), seed=55)
    datasets = [generate_mixture(cfg, i) for i in range(8)]
    grids = [quality_grid(s, TREE, ["ros", "rus", "smote3"], [1.5, 2.0, 2.5], k=5, seed=21)
             for s in datasets]
    return list(zip(datasets, grids))


class TestAssessBank:
    def test_report_structure_and_leak_check(self, assess_fixture):
        cfgs = [("rec1", PRESETS["rs1-dtree"]), ("rec2", PRESETS["rs2-dtree"])]
        report = assess_bank(assess_fixture, cfgs, k_prime=2, seed=9, learner=TREE, epsilon=0.75)
        ids = [s.id for s, _ in assess_fixture]
        strategies = ["rec1", "rec2"] + [st.value for st in ALL_STATIC_STRATEGIES]
        assert set(report.ara.keys()) == set(strategies)
        for name in strategies:
            per_ds = [report.ra[(i, name)] for i in ids]
            assert len(per_ds) == len(ids)  # exactly one out-of-fold RA per dataset
            assert all(0.0 <= v <= 1.0 for v in per_ds)
            assert report.ara[name] == pytest.approx(float(np.mean(per_ds)))
        # meta-level CV leak check: train and test ids never overlap
        folds = report.metadata["meta_cv_folds"]
        assert len(folds) == 2
        covered = []
        for fold in folds:
            assert not set(fold["train_ids"]) & set(fold["test_ids"])
            covered.extend(fold["test_ids"])
        assert sorted(covered) == sorted(ids)

    def test_deterministic_and_worker_invariant(self, assess_fixture):
        cfgs = [("rec1", PRESETS["rs1-dtree"])]
        a = assess_bank(assess_fixture, cfgs, k_prime=2, seed=9, learner=TREE, epsilon=0.75)
        b = assess_bank(assess_fixture, cfgs, k_prime=2, seed=9, learner=TREE, epsilon=0.75,
                        workers=2)
        assert a.ra == b.ra

    def test_recommended_cell_skipped_in_grid_scores_as_baseline(self, monkeypatch):
        """rus@4.0 is feasible on 41/10 rows (IR 4.1), so `recommend` may pick
        it, but a training split of 31/8 rows (IR 3.875) makes the grid skip it.
        The pick scores as the baseline cell instead of failing the run."""
        import resamplerec.assessment as assessment

        bank = []
        for i in range(3):
            s = make_dataset(41, 10, seed=i, dataset_id=f"d{i}")
            bank.append((s, quality_grid(s, TREE, ["rus"], [2.0, 4.0], k=4, seed=6)))
            assert ("rus", 4.0) in bank[-1][1].skips
        pick = Recommendation(ResamplingSpec("rus", 4.0), "a1")
        monkeypatch.setattr(assessment, "recommend", lambda model, s: pick)
        report = assess_bank(bank, [("rec1", PRESETS["rs1-dtree"])], k_prime=3, seed=2,
                             learner=TREE, epsilon=0.75)
        for s, _ in bank:
            assert report.ra[(s.id, "rec1")] == report.ra[(s.id, "no-resample")]

    def test_bank_too_small(self, assess_fixture):
        with pytest.raises(ValueError, match="bank too small"):
            assess_bank(assess_fixture[:2], [], k_prime=3, seed=1, learner=TREE, epsilon=0.75)

    def test_oracle_strategy_scores_one(self, assess_fixture):
        """A synthetic strategy that always picks the best grid cell has ARA 1."""
        ras = []
        for s, grid in assess_fixture:
            best = max(grid.cells, key=lambda key: grid.cells[key].mean())
            rec = Recommendation(ResamplingSpec(*best), "oracle")
            ras.append(recommendation_accuracy(grid, rec))
        assert float(np.mean(ras)) == 1.0

    def test_random_cell_recommendation_on_grid(self, assess_fixture):
        for s, grid in assess_fixture:
            rec = random_cell_recommendation(grid, seed=4)
            key = (rec.spec.method, rec.spec.multiplier) if rec.spec.method != "none" \
                else ("none", 1.0)
            assert key in grid.cells
            again = random_cell_recommendation(grid, seed=4)
            assert again.spec == rec.spec


class TestReportFiles:
    def test_write_report(self, assess_fixture, tmp_path):
        cfgs = [("rec1", PRESETS["rs1-dtree"]), ("rec2", PRESETS["rs2-dtree"])]
        report = assess_bank(assess_fixture, cfgs, k_prime=2, seed=9, learner=TREE, epsilon=0.75)
        out = tmp_path / "report"
        write_report(report, out)
        assert (out / "ra.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "ecdf.svg").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["ara"]) == 6  # the figures' six-strategy layout
        for name in report.ara:
            assert (out / f"ecdf_{name}.csv").exists()
        with (out / "ra.csv").open() as fh:
            header = fh.readline().strip()
        assert header == "dataset_id,strategy,ra"
        svg = (out / "ecdf.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_table_formatting(self):
        text = format_ara_table({"rec1": 0.6942, "no-resample": 0.4081})
        assert "rec1" in text and "0.6942" in text
