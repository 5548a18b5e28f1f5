"""Spectral metrics: examples, oracle cross-checks, and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgeo.spectral import (
    EigenSpectrum,
    FeatureMatrix,
    ablate_spectrum,
    alpha_req,
    center_features,
    covariance_spectrum,
    rankme,
    spectral_metrics,
)

from oracles import jacobi_eigh, ols_slope_intercept, rankme_mp


def spec_of(values):
    return EigenSpectrum(values=np.asarray(values, dtype=float))


class TestEigenSpectrum:
    @pytest.mark.parametrize("values, vectors, message", [
        (np.ones((2, 2)), None, "nonempty 1-D"),
        (np.zeros(0), None, "nonempty 1-D"),
        ([1.0, 2.0], None, "nonincreasing"),
        ([1.0, -0.5], None, "nonnegative"),
        ([1.0, 0.5], np.eye(3), "must be 2x2"),
        ([1.0, 0.5], [[1.0, 1.0], [0.0, 1.0]], "not orthonormal"),
        ([np.inf, 1.0, 0.5], None, "eigenvalues must be finite, got inf"),
        ([np.nan, 1.0, 0.5], None, "eigenvalues must be finite, got nan"),
    ], ids=["2-D", "empty", "increasing", "negative", "vector-shape", "skewed", "inf",
            "nan"])
    def test_rules(self, values, vectors, message):
        with pytest.raises(ValueError, match=message):
            EigenSpectrum(values=values, vectors=vectors)


class TestCenterFeatures:
    def test_mean_subtraction(self):
        fm = FeatureMatrix(np.array([[1.0, 3.0], [3.0, 5.0]]))
        out = center_features(fm)
        np.testing.assert_allclose(out.data, [[-1.0, -1.0], [1.0, 1.0]])
        assert out.centered

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        fm = center_features(FeatureMatrix(rng.normal(size=(7, 4))))
        again = center_features(fm)
        np.testing.assert_allclose(again.data, fm.data, atol=1e-12)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(1)
        out = center_features(FeatureMatrix(rng.normal(size=(5, 3)) * 10))
        # independent summation: accumulate in a plain python loop
        for j in range(3):
            total = 0.0
            for i in range(5):
                total += out.data[i, j]
            assert abs(total) < 1e-10

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.ones((1, 3)))

    @pytest.mark.parametrize("data, message", [
        (np.ones(4), r"must be 2-D, got shape \(4,\)"),
        (np.ones((3, 0)), "need at least 1 column"),
    ], ids=["1-D", "no-columns"])
    def test_rejects_other_shapes(self, data, message):
        with pytest.raises(ValueError, match=message):
            FeatureMatrix(data)

    def test_centered_flag_validated(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), centered=True)


class TestCovarianceSpectrum:
    def test_rank_one(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]), centered=True)
        spec = covariance_spectrum(fm)
        np.testing.assert_allclose(spec.values, [1.0, 0.0], atol=1e-15)

    def test_isotropic(self):
        root2 = np.sqrt(2.0)
        data = np.vstack([root2 * np.eye(2), -root2 * np.eye(2)])
        spec = covariance_spectrum(FeatureMatrix(data, centered=True))
        np.testing.assert_allclose(spec.values, [1.0, 1.0], atol=1e-12)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(6, 4))
        fm = center_features(FeatureMatrix(data))
        spec = covariance_spectrum(fm, want_vectors=True)
        cov = fm.data.T @ fm.data / 6
        vals, _ = jacobi_eigh(cov)
        np.testing.assert_allclose(spec.values, np.maximum(vals, 0), atol=1e-8)

    def test_tall_values_only_route(self):
        # values-only on a tall matrix skips the eigenvectors
        rng = np.random.default_rng(10)
        data = rng.normal(size=(40, 12)) * np.arange(1, 13)
        fm = center_features(FeatureMatrix(data))
        spec = covariance_spectrum(fm)
        assert spec.vectors is None
        vals, _ = jacobi_eigh(fm.data.T @ fm.data / 40)
        np.testing.assert_allclose(spec.values, vals, rtol=0, atol=1e-12 * vals[0])
        dense = covariance_spectrum(fm, want_vectors=True)
        np.testing.assert_allclose(spec.values, dense.values,
                                   rtol=0, atol=1e-13 * dense.values[0])

    def test_wide_matrix_gram_route(self):
        rng = np.random.default_rng(8)
        fm = center_features(FeatureMatrix(rng.normal(size=(3, 10))))
        spec = covariance_spectrum(fm)
        assert spec.values.size == 10
        # at most M nonzero eigenvalues; centering costs one more rank
        assert np.count_nonzero(spec.values > 1e-12) <= 3
        dense = covariance_spectrum(fm, want_vectors=True)
        np.testing.assert_allclose(spec.values, dense.values, atol=1e-10)

    def test_reconstruction_up_to_50(self):
        rng = np.random.default_rng(9)
        for m, d in [(12, 5), (50, 50), (30, 17)]:
            fm = center_features(FeatureMatrix(rng.normal(size=(m, d))))
            spec = covariance_spectrum(fm, want_vectors=True)
            cov = fm.data.T @ fm.data / m
            rebuilt = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
            assert np.linalg.norm(rebuilt - cov) < 1e-8

    def test_rejects_nonfinite(self):
        data = np.zeros((3, 2))
        data[1, 1] = np.nan
        fm = FeatureMatrix(data, centered=True)
        with pytest.raises(ValueError, match="finite"):
            covariance_spectrum(fm)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinities(self, bad):
        from specgeo.spectral import _centered

        data = np.zeros((3, 2))
        data[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            covariance_spectrum(_centered(data))

    @pytest.mark.parametrize("want_vectors", [False, True])
    @pytest.mark.parametrize("shape", [(4, 2), (2, 4)], ids=["tall", "wide"])
    def test_rejects_overflowing_covariance(self, want_vectors, shape):
        from specgeo.spectral import _centered

        signs = np.where(np.indices(shape).sum(axis=0) % 2, -1.0, 1.0)
        with pytest.raises(ValueError, match="^feature matrix covariance "
                                             "overflows float64$"):
            covariance_spectrum(_centered(1e300 * signs), want_vectors)

    def test_requires_centered(self):
        fm = FeatureMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError, match="centered"):
            covariance_spectrum(fm)

    def test_clamp_rejects_eigenvalue_below_tolerance(self):
        from specgeo.spectral import _clamp_eigenvalues

        # a negative eigenvalue above -1e-10 times the top one is round-off
        clamped = _clamp_eigenvalues(np.array([2.0, 0.5, -1e-10]))
        assert clamped.tolist() == [2.0, 0.5, 0.0]
        with pytest.raises(ValueError, match=r"^eigenvalue -1\.000e-03 below "
                                             r"round-off tolerance -2\.000e-10$"):
            _clamp_eigenvalues(np.array([2.0, 0.5, -1e-3]))


class TestCenteredCheck:
    """The spread behind the check's tolerance comes from the column sums
    of squares, without a matrix-sized temporary; the error line is the one
    ``data.std(axis=0)`` gives."""

    @pytest.mark.parametrize("shift", [3.0, -0.5, 1e3])
    def test_error_line_matches_std(self, shift):
        # whole numbers and their negations: every column mean is exactly 0
        half = np.random.default_rng(41).integers(-60, 60, size=(250, 6))
        data = np.vstack([half, -half]).astype(float)
        data[:, 2] += shift
        tol = max(1e-10 * data[:, 2].std(), 1e-12)
        with pytest.raises(ValueError) as exc:
            FeatureMatrix(data, centered=True)
        assert str(exc.value) == (f"centered flag set but column 2 has mean "
                                  f"{data[:, 2].mean():.3e} (tolerance {tol:.3e})")


class TestRankme:
    def test_uniform(self):
        assert rankme(spec_of([1, 1, 1, 1])) == pytest.approx(4.0, abs=1e-12)

    def test_single_direction(self):
        assert rankme(spec_of([5, 0, 0])) == 1.0

    def test_three_quarters_case(self):
        expected = rankme_mp([0.75, 0.25])
        assert rankme(spec_of([0.75, 0.25])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.754765, abs=1e-6)

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            rankme(spec_of([0.0, 0.0]))

    def test_sum_that_overflows(self):
        # scaled by a power of two, with no overflow warning (warnings are errors)
        assert rankme(spec_of([1e308, 1e308])) == 2.0
        values = [1.7e308, 1e308, 5e307, 1.0]
        assert rankme(spec_of(values)) == pytest.approx(rankme_mp(values), rel=1e-14)

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=32),
           st.floats(0.01, 1000.0))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_and_bounds(self, values, c):
        values = sorted(values, reverse=True)
        base = rankme(spec_of(values))
        scaled = rankme(spec_of([c * v for v in values]))
        assert scaled == pytest.approx(base, abs=1e-10)
        nonzero = sum(1 for v in values if v > 0)
        assert 1.0 - 1e-12 <= base <= nonzero + 1e-12

    def test_two_eigenvalue_monotonicity(self):
        # slower decay (larger ratio) gives strictly higher effective rank
        ratios = np.linspace(0.01, 1.0, 25)
        values = [rankme(spec_of([1.0, r])) for r in ratios]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(2.0, abs=1e-12)


class TestAlphaReq:
    def test_exact_power_law(self):
        i = np.arange(1, 101, dtype=float)
        alpha, r2 = alpha_req(spec_of(i**-1.5))
        assert alpha == pytest.approx(1.5, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        i = np.arange(1, 51, dtype=float)
        for c in (0.1, 3.0, 250.0):
            alpha, _ = alpha_req(spec_of(c * i**-0.8))
            assert alpha == pytest.approx(0.8, abs=1e-9)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        i = np.arange(1, 41, dtype=float)
        eps = rng.normal(scale=0.05, size=i.size)
        values = i**-2.0 * np.exp(eps)
        values = np.sort(values)[::-1]  # keep the spectrum admissible
        alpha, _ = alpha_req(spec_of(values))
        slope, _ = ols_slope_intercept(np.log(i), np.log(values))
        assert alpha == pytest.approx(-slope, abs=1e-10)

    def test_window_override(self):
        i = np.arange(1, 101, dtype=float)
        values = i**-1.0
        # steepen the tail past rank 40, keeping the spectrum descending
        values[40:] = values[40] * (i[40:] / i[40]) ** -4.0
        alpha, r2 = alpha_req(spec_of(values), window=(1, 40))
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        alpha_full, _ = alpha_req(spec_of(values))
        assert alpha_full > 1.1  # tail drags the unwindowed fit

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            alpha_req(spec_of([1.0, 0.5]))

    def test_fractional_window_refused(self):
        message = r"window \(1.5, 4.7\) ranks must be whole numbers"
        with pytest.raises(ValueError, match=message):
            alpha_req(spec_of(np.arange(10, 0, -1.0)), (1.5, 4.7))
        fm = center_features(FeatureMatrix(np.random.default_rng(4).normal(size=(40, 10))))
        with pytest.raises(ValueError, match=message):
            spectral_metrics(fm, (1.5, 4.7))
        # a whole-number float is a rank
        assert spectral_metrics(fm, (2.0, 5.0)).fit_window == (2, 5)

    def test_metrics_record_keys(self):
        rng = np.random.default_rng(4)
        fm = center_features(FeatureMatrix(rng.normal(size=(40, 10))))
        rec = spectral_metrics(fm).to_record()
        assert set(rec) == {"rankme", "alpha_req", "fit_window", "fit_r2", "m", "d"}


class TestAblation:
    @pytest.fixture()
    def features(self):
        rng = np.random.default_rng(11)
        return center_features(FeatureMatrix(rng.normal(size=(20, 6))))

    def test_retain_full_is_identity(self, features):
        out = ablate_spectrum(features, k=6, mode="retain_top")
        assert np.linalg.norm(out.data - features.data) < 1e-10

    def test_remove_full_is_zero(self, features):
        out = ablate_spectrum(features, k=6, mode="remove_top")
        assert np.linalg.norm(out.data) < 1e-10

    def test_retained_energy(self, features):
        spec = covariance_spectrum(features)
        total = spec.values.sum()
        for k in (1, 2, 4):
            kept = ablate_spectrum(features, k, "retain_top")
            kept_spec = covariance_spectrum(kept)
            expected = spec.values[:k].sum() / total
            got = kept_spec.values.sum() / total
            assert got == pytest.approx(expected, abs=1e-10)

    def test_retain_idempotent(self, features):
        once = ablate_spectrum(features, 3, "retain_top")
        twice = ablate_spectrum(once, 3, "retain_top")
        assert np.linalg.norm(twice.data - once.data) < 1e-10

    def test_remove_is_projection(self, features):
        # the complement projector is idempotent: the output carries no
        # component along the original top-k directions, so re-applying
        # that same projector changes nothing
        spec = covariance_spectrum(features, want_vectors=True)
        v_top = spec.vectors[:, :3]
        removed = ablate_spectrum(features, 3, "remove_top")
        assert np.linalg.norm(removed.data @ v_top) < 1e-10
        reproj = removed.data - (removed.data @ v_top) @ v_top.T
        assert np.linalg.norm(reproj - removed.data) < 1e-10

    def test_complementarity(self, features):
        kept = ablate_spectrum(features, 2, "retain_top")
        removed = ablate_spectrum(features, 2, "remove_top")
        assert np.linalg.norm(kept.data + removed.data - features.data) < 1e-10

    def test_k_out_of_range(self, features):
        with pytest.raises(ValueError):
            ablate_spectrum(features, 0, "retain_top")
        with pytest.raises(ValueError):
            ablate_spectrum(features, 7, "retain_top")

    def test_bad_mode(self, features):
        with pytest.raises(ValueError):
            ablate_spectrum(features, 2, "keep_top")

    def test_requires_centered(self):
        fm = FeatureMatrix(np.array([[1.0, 2.0], [3.0, 5.0]]))
        with pytest.raises(ValueError, match="^covariance_spectrum requires centered "
                                             "features$"):
            ablate_spectrum(fm, 1, "retain_top")

    def test_tie_break_deterministic(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(30, 4))
        fm = center_features(FeatureMatrix(base))
        a = ablate_spectrum(fm, 2, "retain_top")
        b = ablate_spectrum(fm, 2, "retain_top")
        np.testing.assert_array_equal(a.data, b.data)
