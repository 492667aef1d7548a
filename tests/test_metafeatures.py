import math
from functools import partial

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from resamplerec import metafeatures
from resamplerec.data import Dataset, MixtureConfig, generate_mixture
from resamplerec.metafeatures import (BASE_META_FEATURE_NAMES, META_FEATURE_NAMES,
                                      compute_meta_features, slog)

from conftest import make_dataset

# each column statistic over (n, m2, m3, m4), keyed by its name in tests/oracles.py
STATISTICS = {
    "skewness": metafeatures._skewness,
    "kurtosis": metafeatures._kurtosis,
    "skew_test_zstat": metafeatures._skew_zstat,
    "kurt_test_zstat": metafeatures._kurt_zstat,
    "skew_test_pvalue": partial(metafeatures._pvalue, metafeatures._skew_zstat),
    "kurt_test_pvalue": partial(metafeatures._pvalue, metafeatures._kurt_zstat),
}


def statistic(name: str, sample) -> float:
    """A statistic of a 1-D sample, from the moments `compute_meta_features`
    takes of each column (`_column_moments`)."""
    sample = np.asarray(sample, dtype=np.float64)
    m2, m3, m4 = metafeatures._column_moments(sample[:, None])
    return STATISTICS[name](sample.shape[0], m2[0], m3[0], m4[0])


class TestSlog:
    def test_examples(self):
        assert slog(0.0) == 0.0
        assert slog(math.e - 1.0) == pytest.approx(1.0, abs=1e-15)
        assert slog(-(math.e - 1.0)) == pytest.approx(-1.0, abs=1e-15)

    @given(st.floats(-1e12, 1e12, allow_nan=False))
    @settings(max_examples=200)
    def test_odd(self, x):
        assert slog(-x) == pytest.approx(-slog(x), abs=1e-12)

    @given(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9))
    @example(-1e9, -999999999.9999999)
    @settings(max_examples=200)
    def test_strictly_increasing(self, a, b):
        """slog is non-decreasing, and strictly increasing where a and b are
        far enough apart.

        A strict `<` cannot hold for every pair: near 1e9, adjacent doubles
        (such as -1e9 and -999999999.9999999) have logs ~1.2e-16 apart, below
        the ~3.6e-15 spacing of doubles near 20.7, so log1p rounds both to one
        value. On one side of zero, with magnitudes |u| <= |v|,
        log1p(|v|) - log1p(|u|) >= (|v| - |u|) / (1 + |v|), which exceeds
        1e-12 once b - a > 1e-12 * (1 + max(|a|, |b|)). Every |slog| on this
        range is below 21, where doubles are at most 3.6e-15 apart, so the
        exact logs are over 280 spacings apart, and log1p's error of about
        one spacing cannot reorder them. Across zero the signs order them.
        """
        if a < b:
            assert slog(a) <= slog(b)
            if b - a > 1e-12 * (1.0 + max(abs(a), abs(b))):
                assert slog(a) < slog(b)


class TestMoments:
    def test_symmetric_sample_has_zero_skewness(self):
        assert statistic("skewness", np.array([-1.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_constant_sample_conventions(self):
        assert statistic("skewness", np.full(10, 2.0)) == 0.0
        assert statistic("kurtosis", np.full(10, 2.0)) == 0.0

    def test_adjusted_skewness_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(5, 60))) ** 3
            assert statistic("skewness", x) == \
                pytest.approx(scipy.stats.skew(x, bias=False), rel=1e-12)

    def test_excess_kurtosis_matches_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(5, 60)))
            assert statistic("kurtosis", x) == pytest.approx(
                scipy.stats.kurtosis(x, fisher=True, bias=True), rel=1e-12)


class TestNormalityTests:
    @pytest.mark.filterwarnings("ignore:.*fewer than 20 observations.*")
    def test_zstats_match_scipy_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = rng.normal(size=int(rng.integers(8, 200))) + rng.uniform(-1, 1)
            z_skew, p_skew = scipy.stats.skewtest(x)
            z_kurt, p_kurt = scipy.stats.kurtosistest(x)
            assert statistic("skew_test_zstat", x) == pytest.approx(z_skew, abs=1e-10)
            assert statistic("kurt_test_zstat", x) == pytest.approx(z_kurt, abs=1e-10)
            assert statistic("skew_test_pvalue", x) == pytest.approx(p_skew, abs=1e-10)
            assert statistic("kurt_test_pvalue", x) == pytest.approx(p_kurt, abs=1e-10)

    def test_monte_carlo_calibration_normal(self):
        ok_skew = ok_kurt = 0
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(5000)
            ok_skew += statistic("skew_test_pvalue", x) > 0.01
            ok_kurt += statistic("kurt_test_pvalue", x) > 0.01
        assert ok_skew >= 95
        assert ok_kurt >= 95

    def test_lognormal_sample_strongly_rejected(self):
        x = np.exp(np.random.default_rng(0).standard_normal(5000))
        assert statistic("skew_test_pvalue", x) < 1e-6

    def test_constant_sample_convention(self):
        assert statistic("skew_test_pvalue", np.full(50, 3.0)) == 1.0
        assert statistic("kurt_test_pvalue", np.full(50, 3.0)) == 1.0

    def test_small_sample_never_reaches_a_test(self, monkeypatch):
        """A class of fewer than MIN_TEST_SAMPLE rows gets p = 1.0 without a
        test, so the z statistics need no size check of their own."""
        least = metafeatures.MIN_TEST_SAMPLE
        sizes = []
        for stat in ("skew_pval", "kurt_pval"):
            real = metafeatures._COLUMN_STATS[stat]
            monkeypatch.setitem(metafeatures._COLUMN_STATS, stat,
                                lambda n, *moments, real=real: sizes.append(n) or real(n, *moments))
        for n_minor in range(2, least + 1):
            mf = compute_meta_features(make_dataset(30, n_minor, dim=2, seed=n_minor))
            pvalues = [mf[f"{agg}_{stat}_minor"] for agg in ("min", "max")
                       for stat in ("skew_pval", "kurt_pval")]
            assert (pvalues == [1.0] * 4) == (n_minor < least)
        assert min(sizes) == least

    def test_pvalues_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.exponential(size=30)
            assert 0.0 <= statistic("skew_test_pvalue", x) <= 1.0
            assert 0.0 <= statistic("kurt_test_pvalue", x) <= 1.0


class TestComputeMetaFeatures:
    def test_registry_shape(self):
        assert len(BASE_META_FEATURE_NAMES) == 25
        assert len(META_FEATURE_NAMES) == 50
        assert META_FEATURE_NAMES[25:] == tuple(f"slog_{n}" for n in BASE_META_FEATURE_NAMES)

    def test_center_distance(self):
        x0 = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 0.0], [-2.0, 0.0]])  # mean (0,0)
        x1 = np.array([[3.0, 4.0], [3.0, 4.0]])
        s = Dataset(id="cd", features=np.vstack([x0, x1]),
                    labels=np.array([0, 0, 0, 0, 1, 1]))
        mf = compute_meta_features(s)
        assert mf["center_distance"] == pytest.approx(5.0, abs=1e-12)

    def test_covariance_eigenvalues_by_hand(self):
        x0 = np.random.default_rng(1).normal(size=(5, 2))
        x1 = np.array([[0.0, 0.0], [2.0, 0.0]])  # sample cov diag(2, 0)
        s = Dataset(id="eig", features=np.vstack([x0, x1]),
                    labels=np.array([0] * 5 + [1, 1]))
        mf = compute_meta_features(s)
        assert mf["min_abs_cov_eig_minor"] == pytest.approx(0.0, abs=1e-12)
        assert mf["max_abs_cov_eig_minor"] == pytest.approx(2.0, abs=1e-12)

    def test_basic_fields(self):
        s = make_dataset(80, 20, dim=4)
        mf = compute_meta_features(s)
        assert mf["n_objects"] == 100.0
        assert mf["n_features"] == 4.0
        assert mf["objects_features_ratio"] == 25.0
        assert mf["reversed_ir"] == pytest.approx(0.25)
        assert mf["slog_n_objects"] == pytest.approx(math.log(101.0))

    def test_small_class_pvalues_fall_back_to_one(self):
        s = make_dataset(30, 4, dim=3, seed=2)
        mf = compute_meta_features(s)
        assert mf["min_skew_pval_minor"] == 1.0
        assert mf["max_kurt_pval_minor"] == 1.0
        assert mf["min_skew_pval_major"] != 1.0 or mf["max_skew_pval_major"] != 1.0

    def test_class_below_two_rejected(self):
        s = Dataset(id="t", features=np.zeros((3, 1)) + [[0.0], [1.0], [2.0]],
                    labels=np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="fewer than 2"):
            compute_meta_features(s)

    def test_row_permutation_invariance(self):
        s = make_dataset(40, 12, dim=3, seed=9)
        perm = np.random.default_rng(0).permutation(s.n)
        permuted = Dataset(id="p", features=s.features[perm], labels=s.labels[perm])
        a = compute_meta_features(s).values
        b = compute_meta_features(permuted).values
        assert np.allclose(a, b, atol=1e-12)

    def test_all_finite_and_pvals_bounded(self):
        for seed in range(5):
            s = make_dataset(50, 10, dim=5, seed=seed)
            mf = compute_meta_features(s)
            assert np.isfinite(mf.values).all()
            for name in META_FEATURE_NAMES:
                if name.endswith("_pval_minor") or name.endswith("_pval_major"):
                    if not name.startswith("slog"):
                        assert 0.0 <= mf[name] <= 1.0
        assert 0.0 < mf["reversed_ir"] <= 1.0

    def test_select_order(self):
        s = make_dataset(40, 10, dim=3)
        mf = compute_meta_features(s)
        sel = mf.select(["center_distance", "n_objects"])
        assert sel[1] == 50.0


# class sizes: too small for skewness (2), too small for the normality tests
# (3-7), and large enough for both (>= 8)
_CLASS_SIZE = st.one_of(st.just(2), st.integers(3, 7), st.integers(8, 60))


class TestMetaFeaturesOracle:
    """compute_meta_features equals the per-column, per-statistic reference in
    tests/oracles.py bit for bit."""

    @given(n_major=_CLASS_SIZE, n_minor=_CLASS_SIZE, dim=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1), scale_exp=st.integers(-3, 7),
           offset=st.sampled_from([0.0, 1.0, -250.0, 1e7]),
           decimals=st.sampled_from([None, 0, 1, 3]),
           constant=st.booleans(), duplicate=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle(self, n_major, n_minor, dim, seed, scale_exp, offset, decimals,
                           constant, duplicate):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_major + n_minor, dim)) * 10.0 ** scale_exp + offset
        if decimals is not None:
            x = np.round(x, decimals)
        if constant:
            x[:, 0] = offset + 0.5
        if duplicate and dim > 1:
            x[:, -1] = x[:, 0]
        labels = rng.permutation(np.array([0] * n_major + [1] * n_minor))
        s = Dataset(id="o", features=x, labels=labels)
        assert compute_meta_features(s).values.tobytes() == \
            oracles.compute_meta_features(s).values.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_default_mixture_equals_oracle(self, seed):
        s = generate_mixture(MixtureConfig(seed=seed), seed)
        assert compute_meta_features(s).values.tobytes() == \
            oracles.compute_meta_features(s).values.tobytes()

    @given(st.lists(st.floats(-1e7, 1e7) | st.floats(-1e-130, 1e-130),
                    min_size=1, max_size=40))
    @example([0.0, 4.7e-136])
    @example([0.0, 4.7e-136] + [0.0] * 8)
    @example([1e-90, 0.0] * 5)
    @settings(max_examples=200, deadline=None)
    def test_sample_statistics_equal_oracle(self, values):
        """Equal to the oracle, except that where the oracle's m2 ** 1.5 or
        m2 ** 2 underflows to a zero division, the sample counts as constant.
        The normality tests are compared on the samples `compute_meta_features`
        runs them on, of at least MIN_TEST_SAMPLE values
        (`test_small_sample_never_reaches_a_test`)."""
        sample = np.array(values, dtype=np.float64)
        for name in STATISTICS:
            if "_test_" in name and sample.size < metafeatures.MIN_TEST_SAMPLE:
                continue
            expected = _outcome(getattr(oracles, name), sample)
            if expected[0] == "ZeroDivisionError":
                expected = _outcome(getattr(oracles, name), np.zeros_like(sample))
            assert _outcome(partial(statistic, name), sample) == expected, name


class TestNamedSubset:
    """`compute_meta_features(s, names)` computes only what `names` needs."""

    @given(n_major=_CLASS_SIZE, n_minor=_CLASS_SIZE, dim=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1), scale_exp=st.integers(-3, 7),
           names=st.lists(st.sampled_from(META_FEATURE_NAMES), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_names_of_the_full_vector(self, n_major, n_minor, dim, seed,
                                                 scale_exp, names):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_major + n_minor, dim)) * 10.0 ** scale_exp
        s = Dataset(id="o", features=x,
                    labels=rng.permutation(np.array([0] * n_major + [1] * n_minor)))
        part = compute_meta_features(s, names)
        assert part.names == tuple(names)
        assert part.values.tobytes() == compute_meta_features(s).select(names).tobytes()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown meta-feature 'n_rows'"):
            compute_meta_features(make_dataset(10, 10), ["n_objects", "n_rows"])

    def test_undefined_feature_refused_only_when_asked_for(self):
        """A column whose m2 ** 2 overflows has no finite kurtosis: the full
        vector is refused, names that need no moment of it are not."""
        s = make_dataset(20, 10, dim=2, seed=3)
        x = s.features.copy()
        x[:, 0] *= 1e80
        huge = Dataset(id="huge", features=x, labels=s.labels)
        with pytest.raises(ValueError, match="^feature column 0: variance "):
            compute_meta_features(huge)
        with pytest.raises(ValueError, match="^feature column 0: variance "):
            compute_meta_features(huge, ["max_kurt_pval_minor"])
        names = ["reversed_ir", "center_distance", "slog_min_abs_cov_eig_major"]
        assert np.isfinite(compute_meta_features(huge, names).values).all()


def _outcome(fn, sample):
    """The result as bytes, or the raised error's kind and message."""
    try:
        with np.errstate(all="ignore"):
            return np.float64(fn(sample)).tobytes()
    except ZeroDivisionError as exc:  # the oracle's m2 ** 1.5 underflows on tiny variances
        return type(exc).__name__, str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)
