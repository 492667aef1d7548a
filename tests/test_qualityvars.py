import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resamplerec.evaluation import GridDef, QualityGrid
from resamplerec.learners import DEFAULT_LEARNERS
from resamplerec.qualityvars import (binarize_targets, compute_quality_variables,
                                     paired_ttest_pvalues, quality_row)
from resamplerec.stats import student_t_sf

import oracles
from oracles import student_t_sf_quadrature

TREE = DEFAULT_LEARNERS["decision_tree"]


def random_grid(seed: int, methods=("ros", "rus"), multipliers=(1.5, 2.0, 2.5, 3.0),
                k: int = 10, skip: set = frozenset()) -> QualityGrid:
    """Synthetic grid with uniform fold scores; some cells optionally skipped."""
    rng = np.random.default_rng(seed)
    cells = {("none", 1.0): rng.uniform(0.2, 0.8, size=k)}
    skips = {}
    for method in methods:
        for m in multipliers:
            if (method, m) in skip:
                skips[(method, m)] = "synthetic skip"
            else:
                cells[(method, m)] = rng.uniform(0.2, 0.8, size=k)
    definition = GridDef.of(TREE, methods, multipliers, k, seed)
    return QualityGrid(f"rand-{seed}", definition, cells, skips)


def row_pvalue(resampled: np.ndarray, baseline: np.ndarray) -> float:
    """The p-value of one fold vector, as a row of `paired_ttest_pvalues`."""
    return float(paired_ttest_pvalues(resampled[None, :], baseline)[0])


class TestPairedTTest:
    def test_equal_vectors_give_half(self):
        v = np.array([0.5, 0.6, 0.7, 0.4])
        assert row_pvalue(v, v) == 0.5

    def test_constant_positive_difference_gives_zero(self):
        base = np.array([0.4, 0.5, 0.6, 0.7])
        assert row_pvalue(base + 0.1, base) == 0.0

    def test_constant_negative_difference_gives_one(self):
        base = np.array([0.4, 0.5, 0.6, 0.7])
        assert row_pvalue(base - 0.1, base) == 1.0

    def test_critical_value_k20(self):
        # t = 1.729 with 19 degrees of freedom sits at the 5% upper tail
        assert student_t_sf(1.729, 19) == pytest.approx(0.05, abs=1e-3)
        assert student_t_sf_quadrature(1.729, 19) == pytest.approx(0.05, abs=1e-3)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            base = rng.uniform(0.2, 0.8, size=20)
            res = base + rng.normal(0.0, 0.05, size=20)
            p = row_pvalue(res, base)
            d = res - base
            t = d.mean() / (d.std(ddof=1) / np.sqrt(20))
            assert p == pytest.approx(student_t_sf_quadrature(t, 19), abs=1e-8)

    def test_rows_match_the_one_vector_formula_bit_for_bit(self):
        """Each row of the array form is exactly the float the one-vector
        formula gives (numpy mean and std of the difference, then the tail)."""
        rng = np.random.default_rng(11)
        for k in (2, 4, 10, 20):
            base = rng.uniform(0.2, 0.8, size=k)
            rows = np.round(rng.uniform(0.2, 0.8, size=(30, k)), 2)
            rows[::6] = base
            rows[1::6] = base + 0.125
            rows[2::6] = base - 0.125
            want = []
            for row in rows:
                d = row - base
                mean, sd = float(d.mean()), float(d.std(ddof=1))
                if sd == 0.0:
                    want.append(0.0 if mean > 0.0 else 1.0 if mean < 0.0 else 0.5)
                else:
                    want.append(float(student_t_sf(mean / (sd / math.sqrt(k)), k - 1)))
            assert paired_ttest_pvalues(rows, base).tolist() == want
            assert [row_pvalue(row, base) for row in rows] == want

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            row_pvalue(np.ones(3), np.ones(4))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_shifting_up_decreases_pvalue(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.2, 0.8, size=10)
        res = base + rng.normal(0, 0.05, size=10)
        if np.std(res - base, ddof=1) == 0:
            return
        p0 = row_pvalue(res, base)
        p1 = row_pvalue(res + 0.01, base)
        assert p1 < p0 or p0 == 0.0


class TestQualityVariables:
    def test_window_covers_half_step_strictly(self):
        multipliers = (1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0)
        g = random_grid(1, methods=("ros",), multipliers=multipliers)
        qv = compute_quality_variables(g, epsilon=0.75)
        # window around 2.25 with eps 0.75 on a 0.25-step grid: +-0.5 inclusive
        target = [1.75, 2.0, 2.25, 2.5, 2.75]
        expected = max(qv.cells[("ros", m)].q_pval for m in target)
        assert qv.cells[("ros", 2.25)].q_pvalw == expected

    def test_pvalw_dominates_pval(self):
        for seed in range(10):
            g = random_grid(seed)
            qv = compute_quality_variables(g, epsilon=0.75)
            for cv in qv.cells.values():
                assert cv.q_pvalw >= cv.q_pval

    def test_mstar_is_brute_force_argmin(self):
        for seed in range(10):
            g = random_grid(seed, multipliers=(1.5, 2.0, 2.5, 3.0, 3.5))
            qv = compute_quality_variables(g, epsilon=0.75)
            for method in qv.methods:
                present = qv.method_cells(method)
                best = min(present, key=lambda item: (item[1].q_pvalw, item[0]))[0]
                assert qv.per_method[method].m_star == best

    def test_single_multiplier_method(self):
        g = random_grid(3, methods=("ros",), multipliers=(2.0,))
        qv = compute_quality_variables(g, epsilon=0.75)
        cv = qv.cells[("ros", 2.0)]
        assert cv.q_pvalw == cv.q_pval
        assert qv.per_method["ros"].m_star == 2.0

    def test_skipped_cells_excluded(self):
        g = random_grid(4, methods=("ros", "rus"), multipliers=(1.5, 2.0, 2.5),
                        skip={("rus", 2.0)})
        qv = compute_quality_variables(g, epsilon=0.75)
        assert ("rus", 2.0) not in qv.cells
        window = [qv.cells[("rus", m)].q_pval for m in (1.5, 2.5) if abs(m - 1.5) < 0.75]
        assert qv.cells[("rus", 1.5)].q_pvalw == max(window)

    def test_method_fully_skipped_is_omitted(self):
        g = random_grid(5, methods=("ros", "rus"), multipliers=(1.5, 2.0),
                        skip={("rus", 1.5), ("rus", 2.0)})
        qv = compute_quality_variables(g, epsilon=0.75)
        assert "rus" not in qv.per_method
        assert all(key[0] != "rus" for key in qv.cells)

    def test_missing_baseline_rejected(self):
        g = random_grid(6)
        del g.cells[("none", 1.0)]
        with pytest.raises(ValueError, match="no-resampling"):
            compute_quality_variables(g, epsilon=0.75)

    def test_pure_function(self):
        g = random_grid(7)
        a = compute_quality_variables(g, epsilon=0.75)
        b = compute_quality_variables(g, epsilon=0.75)
        assert a == b


class TestBinarizeTargets:
    def test_threshold(self):
        g = random_grid(8)
        qv = compute_quality_variables(g, epsilon=0.75)
        targets = binarize_targets(qv, alpha=0.05)
        for key, cv in qv.cells.items():
            assert targets.y_rm[key] == int(cv.q_pval < 0.05)

    def test_all_half_pvalues_give_zero(self):
        k = 6
        base = np.random.default_rng(0).uniform(0.3, 0.7, size=k)
        cells = {("none", 1.0): base, ("ros", 1.5): base.copy(), ("ros", 2.0): base.copy()}
        g = QualityGrid("flat", GridDef.of(TREE, ("ros",), (1.5, 2.0), k, 0), cells)
        qv = compute_quality_variables(g, epsilon=0.75)
        targets = binarize_targets(qv, alpha=0.05)
        assert all(v == 0 for v in targets.y_rm.values())
        assert targets.y_r["ros"] == 0

    @given(st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_yr_is_max_over_yrm(self, seed):
        g = random_grid(seed)
        qv = compute_quality_variables(g, epsilon=0.75)
        targets = binarize_targets(qv, alpha=0.3)
        for method in qv.methods:
            cell_ys = [targets.y_rm[(m0, m1)] for (m0, m1) in targets.y_rm if m0 == method]
            assert targets.y_r[method] == max(cell_ys)

    def test_zr_is_argmin_with_smallest_tie(self):
        for seed in range(10):
            g = random_grid(seed)
            qv = compute_quality_variables(g, epsilon=0.75)
            targets = binarize_targets(qv, alpha=0.05)
            for method in qv.methods:
                present = qv.method_cells(method)
                best = min(present, key=lambda item: (item[1].q_pval, item[0]))[0]
                assert targets.z_r[method] == best

    def test_windowed_switch(self):
        g = random_grid(12)
        qv = compute_quality_variables(g, epsilon=0.75)
        windowed = binarize_targets(qv, alpha=0.4, use_windowed_pval_for_targets=True)
        for key, cv in qv.cells.items():
            assert windowed.y_rm[key] == int(cv.q_pvalw < 0.4)
        for method in qv.methods:
            best_w = min(cv.q_pvalw for _, cv in qv.method_cells(method))
            assert windowed.y_r[method] == int(best_w < 0.4)
            assert windowed.z_r[method] == qv.per_method[method].m_star

    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from([1.5, 2.0, 2.5, 3.0, 3.5]),
                                                 min_size=1, max_size=5, unique=True),
           st.sampled_from([0.05, 0.3, 0.5, 0.9]), st.booleans(), st.floats(0.25, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_one_rule_equals_the_two_branch_rule(self, seed, multipliers, alpha, windowed,
                                                 epsilon):
        """Targets equal the reference's, which writes the rule once per
        p-value kind; scores on a coarse lattice tie p-values often (0, 0.5, 1
        and equal t-statistics), and random cells are skipped."""
        rng = np.random.default_rng(seed)
        k = 4
        cells = {("none", 1.0): rng.integers(0, 4, size=k) / 4.0}
        skips = {}
        for method in ("ros", "rus", "smote5"):
            for m in multipliers:
                if rng.random() < 0.2:
                    skips[(method, m)] = "synthetic skip"
                else:
                    cells[(method, m)] = rng.integers(0, 4, size=k) / 4.0
        g = QualityGrid("lattice", GridDef.of(TREE, ("ros", "rus", "smote5"), multipliers, k, 0),
                        cells, skips)
        qv = compute_quality_variables(g, epsilon)
        assert binarize_targets(qv, alpha, windowed) == \
            oracles.binarize_targets(qv, alpha, windowed)

    def test_alpha_bounds(self):
        g = random_grid(13)
        qv = compute_quality_variables(g, epsilon=0.75)
        with pytest.raises(ValueError, match="alpha"):
            binarize_targets(qv, alpha=1.0)


class TestQualityRow:
    def test_row_has_spec_column_names(self):
        g = random_grid(14, methods=("ros",), multipliers=(1.5, 2.0))
        qv = compute_quality_variables(g, epsilon=0.75)
        row = quality_row(qv, binarize_targets(qv, 0.05))
        for col in ("q0mean", "qmean[ros][1.5]", "qpval[ros][2]", "y[ros][1.5]",
                    "yr[ros]", "zr[ros]"):
            assert col in row
        assert float(row["qmean[ros][1.5]"]) == qv.cells[("ros", 1.5)].q_mean
