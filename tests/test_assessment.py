import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resamplerec.assessment import (STATIC_STRATEGIES, _static_cells_task, assess_bank, ecdf,
                                    format_ara_table, recommendation_accuracies, write_report)
from resamplerec.data import MixtureConfig, generate_mixture
from resamplerec.evaluation import (BASELINE_KEY, FoldSplits, GridDef, QualityGrid, cv_quality,
                                    quality_grid)
from resamplerec.learners import LearnerSpec
from resamplerec.recommender import PRESETS, Recommendation
from resamplerec.resampling import ResamplingSpec
from resamplerec.rng import derive_seed

from conftest import make_dataset, random_cell
from oracles import ecdf_share_below, recommendation_accuracy

TREE = LearnerSpec("decision_tree", max_depth=3, min_leaf=2)


def grid_with_means(means: dict, k: int = 4) -> QualityGrid:
    """Constant fold vectors, so cell means are exact."""
    cells = {key: np.full(k, value) for key, value in means.items()}
    methods = tuple(sorted({key[0] for key in means if key[0] != "none"}))
    multipliers = tuple(sorted({key[1] for key in means if key[0] != "none"}))
    return QualityGrid("fixed", GridDef("synthetic", k, methods, multipliers, 0), cells)


class TestRecommendationAccuracy:
    def setup_method(self):
        self.grid = grid_with_means({("none", 1.0): 0.4, ("ros", 2.0): 0.6,
                                     ("rus", 2.0): 0.5})

    def test_max_cell_scores_one(self):
        assert recommendation_accuracies(self.grid, {})[("ros", 2.0)] == 1.0

    def test_min_cell_scores_zero(self):
        assert recommendation_accuracies(self.grid, {})[BASELINE_KEY] == 0.0

    def test_midpoint(self):
        assert recommendation_accuracies(self.grid, {})[("rus", 2.0)] == pytest.approx(0.5)

    def test_degenerate_pool_scores_one(self):
        grid = grid_with_means({("none", 1.0): 0.5, ("ros", 2.0): 0.5})
        assert recommendation_accuracies(grid, {}) == {BASELINE_KEY: 1.0, ("ros", 2.0): 1.0}

    def test_extra_cells_join_pool(self):
        # an on-demand cell better than every grid cell drags the max up
        ra = recommendation_accuracies(self.grid, {("smote5", 3.7): 0.8})
        assert ra[("ros", 2.0)] == pytest.approx((0.6 - 0.4) / (0.8 - 0.4))
        assert ra[("smote5", 3.7)] == 1.0

    def test_off_grid_cell_without_extra_cells_rejected(self):
        """An off-grid cell has an RA only when the extra cells hold it."""
        assert ("ros", 9.75) not in recommendation_accuracies(self.grid, {})

    def test_off_grid_evaluated_on_demand(self):
        s = make_dataset(60, 20, seed=1)  # IR 3, off the grid
        grid = quality_grid(s, GridDef.of(TREE, ["ros"], [1.5, 2.0], k=4, seed=5))
        cells = _static_cells_task(TREE, (s, grid))
        key, _ = cells["ros-eqs"]
        assert key == ("ros", 3.0) and key not in grid.cells
        assert 0.0 <= recommendation_accuracies(grid, dict(cells.values()))[key] <= 1.0

    @given(st.dictionaries(st.tuples(st.sampled_from(["ros", "rus", "smote5"]),
                                     st.sampled_from([1.5, 2.0, 3.7])),
                           st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                           max_size=6),
           st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
           st.dictionaries(st.tuples(st.sampled_from(["none", "ros", "smote5"]),
                                     st.sampled_from([1.0, 2.0, 3.7])),
                           st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                           max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cell_oracle(self, cells, baseline, extra):
        """Every cell's RA in the one pool equals the RA computed with its own
        pool, bit for bit: tied means, pools with no spread and extra cells
        that replace a grid cell's mean included."""
        grid = grid_with_means({BASELINE_KEY: baseline, **cells})
        extra = {(method, 1.0 if method == "none" else m): v for (method, m), v in extra.items()}
        accuracies = recommendation_accuracies(grid, extra)
        assert set(accuracies) == set(grid.cells) | set(extra)
        for key, ra in accuracies.items():
            assert ra == recommendation_accuracy(grid, key, extra)


class TestStaticCells:
    """`_static_cells_task`: each static strategy's cell, scored on the grid's folds."""

    @staticmethod
    def cells_of(s):
        grid = quality_grid(s, GridDef.of(TREE, ["ros"], [1.5], k=4, seed=5))
        return grid, _static_cells_task(TREE, (s, grid))

    def test_no_resample(self):
        grid, cells = self.cells_of(make_dataset(40, 10))
        assert list(cells) == list(STATIC_STRATEGIES)
        assert cells["no-resample"] == (BASELINE_KEY, float(grid.baseline.mean()))

    def test_eqs_uses_exact_ir(self):
        s = make_dataset(80, 20)  # 60/15 rows in every training split: RUS is not capped
        grid, cells = self.cells_of(s)
        splits = FoldSplits(s, grid.k, grid.definition.seed)
        for strategy, method in (("ros-eqs", "ros"), ("rus-eqs", "rus"),
                                 ("smote5-eqs", "smote5")):
            seed = derive_seed(grid.definition.seed, s.id, method, "on-demand", repr(4.0))
            mean = float(cv_quality(splits, TREE, ResamplingSpec(method, 4.0), seed).mean())
            assert cells[strategy] == ((method, 4.0), mean)

    def test_balanced_dataset_degenerates_to_identity(self):
        _, cells = self.cells_of(make_dataset(20, 20))
        for strategy, method in STATIC_STRATEGIES.items():
            assert cells[strategy][0] == (method, 1.0)

    def test_off_grid_multiplier_allowed(self):
        _, cells = self.cells_of(make_dataset(55, 20))  # IR = 2.75, not a grid value
        assert cells["ros-eqs"][0] == ("ros", 2.75)
        # training splits of 41/15 and 42/15 rows: RUS is capped at the smaller IR
        assert cells["rus-eqs"][0] == ("rus", 41 / 15)

    def test_infeasible_cell_scores_as_baseline(self):
        grid, cells = self.cells_of(make_dataset(30, 6))  # 4 or 5 minors per training split
        assert cells["smote5-eqs"] == (BASELINE_KEY, float(grid.baseline.mean()))
        assert cells["ros-eqs"][0] == ("ros", 5.0)


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
    definition = GridDef.of(TREE, ["ros", "rus", "smote3"], [1.5, 2.0, 2.5], k=5, seed=21)
    grids = [quality_grid(s, definition) for s in datasets]
    return list(zip(datasets, grids))


class TestAssessBank:
    def test_report_structure_and_leak_check(self, assess_fixture):
        cfgs = [("rec1", PRESETS["rs1-dtree"]), ("rec2", PRESETS["rs2-dtree"])]
        report = assess_bank(assess_fixture, cfgs, k_prime=2, seed=9, learner=TREE, epsilon=0.75)
        ids = [s.id for s, _ in assess_fixture]
        strategies = ["rec1", "rec2"] + list(STATIC_STRATEGIES)
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
            bank.append((s, quality_grid(s, GridDef.of(TREE, ["rus"], [2.0, 4.0], k=4, seed=6))))
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
            ras.append(recommendation_accuracies(grid, {})[best])
        assert float(np.mean(ras)) == 1.0

    def test_random_cell_recommendation_on_grid(self, assess_fixture):
        for s, grid in assess_fixture:
            key = random_cell(grid, seed=4)
            assert key in grid.cells
            assert random_cell(grid, seed=4) == key


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
