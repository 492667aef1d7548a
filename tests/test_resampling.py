from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from resamplerec.data import Dataset, imbalance_ratio
from resamplerec.resampling import (ResamplingSpec, feasible, random_oversample,
                                    random_undersample, resample, smote,
                                    smote_neighbor_order)

import oracles
from conftest import assert_as_validated, make_dataset
from oracles import point_on_some_smote_segment


def row_multiset(s):
    return Counter(map(tuple, np.hstack([s.features, s.labels[:, None]]).tolist()))


class TestSpec:
    def test_none_ignores_multiplier(self):
        assert ResamplingSpec("none", 7.0).multiplier == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            ResamplingSpec("ros", 0.5)
        with pytest.raises(ValueError):
            ResamplingSpec("smote0", 2.0)
        with pytest.raises(ValueError):
            ResamplingSpec("smote05", 2.0)
        with pytest.raises(ValueError):
            ResamplingSpec("bootstrap", 2.0)

    def test_smote_k_parsed(self):
        assert ResamplingSpec("smote7", 2.0).smote_k == 7
        assert ResamplingSpec("ros", 2.0).smote_k is None


class TestROS:
    def test_identity_at_one(self):
        s = make_dataset(30, 10)
        assert random_oversample(s, 1.0, seed=1) is s

    def test_count_formula(self):
        s = make_dataset(80, 20)
        out = random_oversample(s, 2.0, seed=1)
        assert out.n_minor == 40 and out.n_major == 80
        assert imbalance_ratio(out) == 2.0

    def test_fractional_rounding(self):
        s = make_dataset(90, 30)
        out = random_oversample(s, 1.25, seed=1)
        # round(0.25 * 30) = round(7.5) = 8
        assert out.n_minor == 38

    def test_appended_rows_are_copies(self):
        s = make_dataset(40, 10, seed=3)
        out = random_oversample(s, 3.0, seed=5)
        originals = {tuple(r) for r in s.features[s.labels == 1].tolist()}
        for row in out.features[s.n:]:
            assert tuple(row.tolist()) in originals

    def test_superset_multiset(self):
        s = make_dataset(25, 10, seed=2)
        out = random_oversample(s, 2.4, seed=7)
        assert row_multiset(out) >= row_multiset(s)


class TestRUS:
    def test_balances_at_ir(self):
        s = make_dataset(80, 20)
        out = random_undersample(s, 4.0, seed=1)
        assert out.n_major == 20 and out.n_minor == 20
        assert imbalance_ratio(out) == 1.0

    def test_identity_at_one(self):
        s = make_dataset(80, 20)
        assert random_undersample(s, 1.0, seed=1) is s

    def test_subset_multiset(self):
        s = make_dataset(50, 10, seed=4)
        out = random_undersample(s, 2.5, seed=9)
        assert row_multiset(out) <= row_multiset(s)

    def test_rejects_m_above_ir(self):
        s = make_dataset(80, 20)
        with pytest.raises(ValueError, match="exceeds IR"):
            random_undersample(s, 4.01, seed=1)

    def test_feasibility_helper(self):
        assert feasible(ResamplingSpec("rus", 4.0), 80, 20) is None
        assert feasible(ResamplingSpec("rus", 5.0), 80, 20) is not None


class TestSMOTE:
    def test_collinear_segment(self):
        s = make_dataset(6, 2, seed=1)
        feats = s.features.copy()
        feats[s.labels == 1] = np.array([[0.0, 0.0], [1.0, 0.0]])
        s = type(s)(id="collinear", features=feats, labels=s.labels)
        out = smote(s, 4.0, k=1, seed=3)
        synth = out.features[s.n:]
        assert synth.shape[0] == 6
        assert np.all(synth[:, 1] == 0.0)
        assert np.all((synth[:, 0] >= 0.0) & (synth[:, 0] <= 1.0))

    def test_no_points_at_one(self):
        s = make_dataset(20, 6)
        assert smote(s, 1.0, k=3, seed=1) is s

    def test_needs_k_plus_one_minors(self):
        s = make_dataset(20, 5)
        with pytest.raises(ValueError, match="not enough minor points"):
            smote(s, 2.0, k=5, seed=1)

    def test_convex_combination_brute_force(self):
        for seed in range(5):
            s = make_dataset(15, 7, seed=seed)
            out = smote(s, 2.0, k=3, seed=seed + 100)
            minors = s.features[s.labels == 1]
            for x in out.features[s.n:]:
                assert point_on_some_smote_segment(x, minors, k=3)

    def test_majors_unchanged(self):
        s = make_dataset(25, 8, seed=6)
        out = smote(s, 2.5, k=2, seed=11)
        assert np.array_equal(out.features[out.labels == 0], s.features[s.labels == 0])

    def test_duplicate_minor_points_allowed(self):
        feats = np.vstack([np.random.default_rng(0).normal(size=(6, 2)),
                           [[1.0, 1.0], [1.0, 1.0]]])
        s = type(make_dataset(2, 2))(id="dup", features=feats,
                                     labels=np.array([0] * 6 + [1, 1]))
        out = smote(s, 3.0, k=1, seed=2)
        for x in out.features[s.n:]:
            assert np.allclose(x, [1.0, 1.0])


@st.composite
def tied_datasets(draw):
    """Datasets whose minor rows repeat and sit on a coarse lattice, so many
    neighbor distances tie."""
    n_minor = draw(st.integers(2, 12))
    n_major = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    x = draw(hnp.arrays(np.float64, (n_minor + n_major, d),
                        elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0])))
    x[draw(st.integers(0, n_minor - 1))] = x[0]
    labels = np.array([1] * n_minor + [0] * n_major)
    order = draw(st.permutations(range(labels.size)))
    return Dataset(id="tied", features=x[order], labels=labels[order])


class TestSMOTENeighborOrder:
    """One shared neighbor order gives what smote() computed inline per call."""

    @given(tied_datasets(), st.sampled_from([1.25, 2.0, 3.5]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_shared_order_matches_inline_neighbors(self, s, m, seed):
        order = smote_neighbor_order(s)
        minors = s.features[s.labels == 1]
        for k in range(1, s.n_minor):
            assert np.array_equal(order[:, :k], oracles.smote_neighbors(minors, k))
            shared = smote(s, m, k, seed, neighbor_order=order)
            inline = smote(s, m, k, seed)
            assert shared.features.tobytes() == inline.features.tobytes()
            assert shared.labels.tobytes() == inline.labels.tobytes()

    def test_order_must_match_minor_class(self):
        s = make_dataset(10, 6, seed=3)
        with pytest.raises(ValueError, match="neighbor order"):
            smote(s, 2.0, 2, seed=1, neighbor_order=np.zeros((5, 5), dtype=np.int64))


class TestResampleContract:
    def test_none_returns_input(self, tiny_imbalanced):
        assert resample(tiny_imbalanced, ResamplingSpec("none", 3.0), seed=1) is tiny_imbalanced

    def test_deterministic(self):
        s = make_dataset(60, 15, seed=8)
        for spec in (ResamplingSpec("ros", 2.3), ResamplingSpec("rus", 3.1),
                     ResamplingSpec("smote3", 1.8)):
            a = resample(s, spec, seed=42)
            b = resample(s, spec, seed=42)
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        s = make_dataset(60, 15, seed=8)
        a = resample(s, ResamplingSpec("rus", 3.0), seed=1)
        b = resample(s, ResamplingSpec("rus", 3.0), seed=2)
        assert not np.array_equal(a.features, b.features)

    @given(tied_datasets(), st.sampled_from(["ros", "rus", "smote1", "smote3"]),
           st.floats(1.0, 4.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_outputs_are_frozen_valid_datasets(self, s, method, m, seed):
        """A resampler builds its output without the validating copy; the
        output is still what `Dataset(...)` would make of it."""
        spec = ResamplingSpec(method, m)
        assume(feasible(spec, s.n_major, s.n_minor) is None)
        assert_as_validated(resample(s, spec, seed))

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_ir_contract(self, draw_seed):
        rng = np.random.default_rng(draw_seed)
        n_minor = int(rng.integers(5, 30))
        n_major = int(rng.integers(n_minor, 120))
        s = make_dataset(n_major, n_minor, seed=draw_seed)
        ir = imbalance_ratio(s)
        method = rng.choice(["ros", "rus", "smote3"])
        if method == "rus":
            m = float(rng.uniform(1.0, ir))
        else:
            m = float(rng.uniform(1.0, 6.0))
        out = resample(s, ResamplingSpec(str(method), m), seed=draw_seed)
        got = out.n_major / out.n_minor
        # rounding slack, scaled by the target ratio (a +-0.5 count error on
        # the minor class moves IR by about IR/m * 0.5/|C1_out|)
        slack = (ir / m) * (1.0 / out.n_minor + 1.0 / s.n_minor)
        assert abs(got - ir / m) <= slack + 1e-12
