"""Kernel, Cholesky, Gaussian, quadrature and dense-GP reference tests.

Expected values are frozen from independent oracles computed in-line:
closed forms, mpmath's arbitrary-precision erf, and the double-factorial
moment formula for standard-normal monomials.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit.mathcore import (
    DimensionError,
    GaussianDist,
    Kernel,
    MultivariateNormal,
    NumericalError,
    cholesky_jittered,
    exact_gp_predict,
    gauss_hermite,
    gaussian_cdf,
    gaussian_logpdf,
    gaussian_nll,
    kernel_diag,
    kernel_eval,
    mvn_kl,
)

RNG = np.random.default_rng(20240817)


# -- kernel -------------------------------------------------------------------


class TestKernel:
    def test_diagonal_is_variance(self):
        k = Kernel(2.0, np.ones(3))
        x = RNG.standard_normal((1, 3))
        assert kernel_eval(k, x, x).item() == 2.0
        assert kernel_diag(k, RNG.standard_normal((5, 3))).tolist() == [2.0] * 5

    def test_unit_kernel_at_sqrt_two_distance(self):
        # squared distance 2 with unit lengthscale: exp(-2/2) = exp(-1)
        k = Kernel(1.0, np.ones(1))
        val = kernel_eval(k, np.array([[0.0]]), np.array([[math.sqrt(2.0)]]))
        assert val[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert val[0, 0] == pytest.approx(0.367879, abs=1e-6)

    def test_identical_rows_give_identical_gram_rows(self):
        X = RNG.standard_normal((4, 2))
        X[2] = X[1]
        gram = kernel_eval(Kernel(1.3, np.array([0.7, 1.1])), X, X)
        assert np.array_equal(gram[1], gram[2])
        assert np.allclose(gram, gram.T)

    def test_lengthscale_weighting(self):
        # one coordinate effectively switched off by a huge lengthscale
        k = Kernel(1.0, np.array([1.0, 1e12]))
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 55.0]])
        assert kernel_eval(k, a, b)[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Kernel(0.0, np.ones(2))
        with pytest.raises(ValueError):
            Kernel(1.0, np.array([1.0, -1.0]))
        with pytest.raises(DimensionError):
            kernel_eval(Kernel(1.0, np.ones(2)), np.zeros((3, 3)), np.zeros((3, 2)))

    def test_random_grams_are_psd_with_small_jitter(self):
        # symmetric-PSD sanity over random draws; jitter never above 1e-4
        for i in range(100):
            rng = np.random.default_rng(i)
            n, d = int(rng.integers(2, 65)), int(rng.integers(1, 9))
            X = rng.standard_normal((n, d))
            k = Kernel(float(rng.uniform(0.1, 3.0)), rng.uniform(0.3, 2.0, d))
            res = cholesky_jittered(kernel_eval(k, X, X), base_jitter=1e-6)
            assert res.jitter <= 1e-4


# -- cholesky -----------------------------------------------------------------


class TestCholeskyJittered:
    def test_identity_needs_no_jitter(self):
        res = cholesky_jittered(np.eye(3))
        assert res.jitter == 0.0
        assert np.array_equal(res.factor, np.eye(3))

    def test_hand_two_by_two(self):
        res = cholesky_jittered(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(res.factor, expected, rtol=0.0, atol=1e-15)

    def test_rank_deficient_succeeds_with_diagonal_excess(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = cholesky_jittered(A, base_jitter=1e-6)
        assert res.jitter > 0.0
        excess = res.factor @ res.factor.T - A
        off_diag = excess - np.diag(np.diag(excess))
        assert np.max(np.abs(off_diag)) <= 1e-12
        assert np.max(np.abs(np.diag(excess))) <= 1e-4

    def test_indefinite_matrix_fails_after_retries(self):
        with pytest.raises(NumericalError):
            cholesky_jittered(np.array([[1.0, 2.0], [2.0, 1.0]]), base_jitter=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericalError):
            cholesky_jittered(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            cholesky_jittered(np.zeros((2, 3)))


# -- multivariate KL ----------------------------------------------------------


def _kl_univariate(mq, vq, mp_, vp):
    return 0.5 * (vq / vp + (mp_ - mq) ** 2 / vp - 1.0 + math.log(vp / vq))


class TestMvnKl:
    def test_identical_distributions_exactly_zero(self):
        L = cholesky_jittered(np.array([[2.0, 0.3], [0.3, 1.0]])).factor
        q = MultivariateNormal(np.array([0.1, -0.2]), L)
        assert mvn_kl(q, q) == 0.0

    def test_univariate_unit_shift(self):
        q = MultivariateNormal(np.array([1.0]), np.array([[1.0]]))
        p = MultivariateNormal(np.array([0.0]), np.array([[1.0]]))
        assert mvn_kl(q, p) == pytest.approx(0.5, rel=1e-14)

    def test_isotropic_scale_two_dims(self):
        # 1/2 (2*4 - 2 - 2 ln 4) = 3 - ln 4, twice the univariate value
        q = MultivariateNormal(np.zeros(2), 2.0 * np.eye(2))
        p = MultivariateNormal(np.zeros(2), np.eye(2))
        expected = 2.0 * _kl_univariate(0.0, 4.0, 0.0, 1.0)
        assert expected == pytest.approx(3.0 - math.log(4.0), rel=1e-14)
        assert mvn_kl(q, p) == pytest.approx(expected, rel=1e-12)

    def test_diagonal_case_matches_univariate_sum(self):
        rng = np.random.default_rng(5)
        mq, mp_ = rng.standard_normal(3), rng.standard_normal(3)
        sq, sp = rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)
        q = MultivariateNormal(mq, np.diag(sq))
        p = MultivariateNormal(mp_, np.diag(sp))
        expected = sum(
            _kl_univariate(mq[i], sq[i] ** 2, mp_[i], sp[i] ** 2) for i in range(3)
        )
        assert mvn_kl(q, p) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_over_random_pairs(self):
        for i in range(200):
            rng = np.random.default_rng(1000 + i)
            d = int(rng.integers(1, 6))
            a = rng.standard_normal((d, d))
            b = rng.standard_normal((d, d))
            q = MultivariateNormal(
                rng.standard_normal(d), cholesky_jittered(a @ a.T + np.eye(d)).factor
            )
            p = MultivariateNormal(
                rng.standard_normal(d), cholesky_jittered(b @ b.T + np.eye(d)).factor
            )
            assert mvn_kl(q, p) >= 0.0

    def test_zero_only_when_parameters_coincide(self):
        L = np.eye(2)
        q = MultivariateNormal(np.zeros(2), L)
        p = MultivariateNormal(np.array([1e-5, 0.0]), L)
        assert mvn_kl(q, p) > 1e-12


# -- univariate Gaussian ------------------------------------------------------


class TestGaussianDensity:
    def test_logpdf_at_mode(self):
        assert gaussian_logpdf(0.0, 0.0, 1.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), rel=1e-14
        )
        assert gaussian_nll(0.0, GaussianDist(0.0, 1.0)) == pytest.approx(
            0.918939, abs=1e-6
        )

    def test_nll_one_sigma_away(self):
        sigma2 = 2.7
        nll = gaussian_nll(math.sqrt(sigma2), GaussianDist(0.0, sigma2))
        assert nll == pytest.approx(0.5 * math.log(2.0 * math.pi * sigma2) + 0.5, rel=1e-13)

    def test_nll_grows_without_bound_in_variance(self):
        assert gaussian_nll(0.0, GaussianDist(0.0, 1e12)) > gaussian_nll(
            0.0, GaussianDist(0.0, 1.0)
        )
        assert gaussian_nll(0.0, GaussianDist(0.0, 1e300)) > 300.0

    def test_array_broadcast(self):
        out = gaussian_logpdf(np.array([0.0, 1.0]), 0.0, np.array([1.0, 4.0]))
        assert out.shape == (2,)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_logpdf(0.0, 0.0, 0.0)


# -- quadrature ---------------------------------------------------------------


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


class TestGaussHermite:
    def test_one_site_is_the_mean(self):
        rule = gauss_hermite(1)
        assert rule.sites.tolist() == [0.0]
        assert rule.weights.tolist() == [1.0]

    def test_two_sites(self):
        rule = gauss_hermite(2)
        assert np.allclose(rule.sites, [-1.0, 1.0], atol=1e-14)
        assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-15)

    def test_three_sites(self):
        rule = gauss_hermite(3)
        r3 = math.sqrt(3.0)
        assert np.allclose(rule.sites, [-r3, 0.0, r3], atol=1e-14)
        assert np.allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)

    @pytest.mark.parametrize("s", range(1, 11))
    def test_integrates_monomials_exactly(self, s):
        # E[eps^k] for eps ~ N(0,1): 0 for odd k, (k-1)!! for even k. Odd
        # moments vanish by cancellation, so their error is measured
        # relative to the absolute-moment scale of the summands.
        rule = gauss_hermite(s)
        for k in range(0, 2 * s):
            estimate = float(np.sum(rule.weights * rule.sites**k))
            exact = 0.0 if k % 2 else float(_double_factorial(k - 1))
            scale = float(np.sum(rule.weights * np.abs(rule.sites) ** k))
            assert abs(estimate - exact) / max(scale, 1.0) < 1e-9

    def test_weights_on_simplex(self):
        for s in (1, 7, 23, 50):
            rule = gauss_hermite(s)
            assert np.all(rule.weights > 0.0)
            assert float(rule.weights.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_site_count_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(51)


# -- normal CDF ---------------------------------------------------------------


class TestGaussianCdf:
    def test_half_at_the_mean(self):
        assert gaussian_cdf(3.0, mean=3.0, std=10.0) == 0.5

    def test_quantile_1960_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        oracle = float(0.5 * (1 + mpmath.erf(mpmath.mpf("1.96") / mpmath.sqrt(2))))
        assert gaussian_cdf(1.96) == pytest.approx(oracle, abs=1e-14)
        assert gaussian_cdf(1.96) == pytest.approx(0.9750, abs=5e-5)

    def test_far_left_tail_vanishes(self):
        assert gaussian_cdf(-40.0) == 0.0

    @given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_reflection_and_monotonicity(self, a, b):
        assert gaussian_cdf(a) + gaussian_cdf(-a) == pytest.approx(1.0, abs=1e-12)
        lo, hi = min(a, b), max(a, b)
        assert gaussian_cdf(lo) <= gaussian_cdf(hi)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_cdf(0.0, std=0.0)


# -- dense GP reference -------------------------------------------------------


class TestExactGpPredict:
    kernel = Kernel(1.0, np.array([0.8]))

    def test_interpolation_limit(self):
        X, y = np.array([[0.3]]), np.array([1.7])
        dist = exact_gp_predict(self.kernel, 1e-12, X, y, np.array([0.3]))
        assert dist.mean == pytest.approx(1.7, abs=1e-9)
        assert dist.variance == pytest.approx(1e-12, abs=1e-9)

    def test_prior_reversion_far_away(self):
        X = RNG.standard_normal((6, 1))
        y = RNG.standard_normal(6)
        dist = exact_gp_predict(self.kernel, 0.4, X, y, np.array([50.0]))
        assert dist.mean == pytest.approx(0.0, abs=1e-10)
        assert dist.variance == pytest.approx(1.0 + 0.4, rel=1e-10)

    def test_small_instance_against_dense_solve(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        kern = Kernel(1.4, np.array([0.9, 1.2]))
        noise = 0.2
        xs = rng.standard_normal(2)
        dist = exact_gp_predict(kern, noise, X, y, xs)
        K = kernel_eval(kern, X, X) + noise * np.eye(3)
        ks = kernel_eval(kern, X, xs[None, :])[:, 0]
        alpha = np.linalg.solve(K, y)
        mean = float(ks @ alpha)
        var = float(kern.variance - ks @ np.linalg.solve(K, ks) + noise)
        assert dist.mean == pytest.approx(mean, abs=1e-10)
        assert dist.variance == pytest.approx(var, abs=1e-10)

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        xs = rng.standard_normal(2)
        kern = Kernel(1.0, np.array([1.0, 0.7]))
        a = exact_gp_predict(kern, 0.1, X, y, xs)
        perm = rng.permutation(8)
        b = exact_gp_predict(kern, 0.1, X[perm], y[perm], xs)
        assert a.mean == pytest.approx(b.mean, abs=1e-10)
        assert a.variance == pytest.approx(b.variance, abs=1e-10)

    def test_batch_of_query_points(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((5, 1))
        y = rng.standard_normal(5)
        dists = exact_gp_predict(self.kernel, 0.3, X, y, rng.standard_normal((4, 1)))
        assert len(dists) == 4
        assert all(d.variance > 0.3 - 1e-12 for d in dists)
