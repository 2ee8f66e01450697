"""Kernel, Cholesky, Gaussian, quadrature and dense-GP reference tests.

The Gaussian-distribution, KL, kernel and dense-GP references live in
``gp_oracle`` with the other test oracles; they are checked here like the
library code.

Expected values are frozen from independent oracles computed in-line:
closed forms, mpmath's arbitrary-precision erf, and the double-factorial
moment formula for standard-normal monomials.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dtrtri

from gp_oracle import (
    GaussianDist,
    Kernel,
    MultivariateNormal,
    exact_gp_predict,
    gaussian_nll,
    kernel_diag,
    kernel_eval,
    mvn_kl,
)
from rulkit.mathcore import (
    DimensionError,
    NumericalError,
    cholesky_jittered,
    gauss_hermite,
    gaussian_cdf,
    gaussian_logpdf,
    trmm,
    trsm,
    trtri,
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

    def test_a_retry_factors_the_jittered_matrix_and_reports_its_jitter(self):
        # eigenvalues 3 - 5e-6 and -5e-6 (twice): the second retry succeeds
        A = np.ones((3, 3)) - 5e-6 * np.eye(3)
        res = cholesky_jittered(A, base_jitter=1e-6)
        jitter = 1e-6 * 10.0  # the ladder's second rung, 9.999999999999999e-06
        assert res.jitter == jitter
        np.testing.assert_array_equal(res.factor, np.linalg.cholesky(A + jitter * np.eye(3)))

    def test_indefinite_matrix_fails_after_retries(self):
        with pytest.raises(NumericalError):
            cholesky_jittered(np.array([[1.0, 2.0], [2.0, 1.0]]), base_jitter=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericalError):
            cholesky_jittered(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            cholesky_jittered(np.zeros((2, 3)))

    @pytest.mark.parametrize("i,j", [(299, 0), (130, 129), (5, 260)])
    def test_asymmetry_in_any_tile_rejected(self, i, j):
        A = np.eye(300)
        A[i, j] = 1e-6
        with pytest.raises(NumericalError, match="not symmetric"):
            cholesky_jittered(A)


# -- triangular BLAS without the GIL -------------------------------------------


def _triangle(k: int, lower: bool, seed: int) -> np.ndarray:
    """A well-conditioned Fortran-ordered triangular k x k matrix whose other
    triangle holds noise, which the routines must not read."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k))
    a[np.diag_indices(k)] = 2.0 + rng.random(k)
    tri = np.tril(a, -1) * 0.3 + np.diag(np.diagonal(a)) if lower else np.triu(a, 1) * 0.3 + np.diag(np.diagonal(a))
    noise = np.triu(rng.standard_normal((k, k)), 1) if lower else np.tril(rng.standard_normal((k, k)), -1)
    return np.asfortranarray(tri + noise)


def _operand(k: int, from_lower: bool, seed: int) -> np.ndarray:
    """The triangle the routines read: a Fortran-ordered upper triangle, or
    with ``from_lower`` the uncopied transpose of a C-ordered lower factor,
    the view sparse-GP layers pass their Cholesky factors as."""
    if from_lower:
        return np.ascontiguousarray(_triangle(k, lower=True, seed=seed)).T
    return _triangle(k, lower=False, seed=seed)


_SCIPY = {"trsm": dtrsm, "trmm": dtrmm}
_OURS = {"trsm": trsm, "trmm": trmm}


class TestTriangularBlas:
    """``trsm``, ``trmm`` and ``trtri`` are scipy's own dtrsm, dtrmm and
    dtrtri called without the GIL, so they must equal scipy's f2py wrappers
    bit for bit."""

    @pytest.mark.parametrize("routine", ["trsm", "trmm"])
    @pytest.mark.parametrize("right", [False, True])
    @pytest.mark.parametrize("from_lower", [False, True])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (5, 3), (37, 61), (130, 9), (0, 4), (4, 0)])
    def test_equals_scipy(self, routine, right, from_lower, trans, rows, cols):
        k = cols if right else rows
        a = _operand(k, from_lower, seed=rows * 100 + cols)
        b = np.asfortranarray(np.random.default_rng(cols).standard_normal((rows, cols)))
        want = _SCIPY[routine](-0.7, a, b, side=int(right), lower=0, trans_a=int(trans))
        out = b.copy(order="F")
        got = _OURS[routine](-0.7, a, out, trans=trans, right=right)
        assert got is out
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("routine", ["trsm", "trmm"])
    @pytest.mark.parametrize("trans", [False, True])
    def test_column_blocks_of_a_fortran_array(self, routine, trans):
        # each block is worked in place inside the parent array, whose other
        # columns stay as they were
        a = _triangle(29, lower=False, seed=4)
        b = np.asfortranarray(np.random.default_rng(5).standard_normal((29, 101)))
        out = b.copy(order="F")
        for lo, hi in [(0, 48), (48, 49), (49, 101)]:
            want = _SCIPY[routine](1.5, a, b[:, lo:hi], lower=0, trans_a=int(trans))
            _OURS[routine](1.5, a, out[:, lo:hi], trans=trans)
            np.testing.assert_array_equal(out[:, lo:hi], want)
            np.testing.assert_array_equal(out[:, hi:], b[:, hi:])

    def test_the_transpose_of_a_c_ordered_array_is_taken_uncopied(self):
        lower = _triangle(12, lower=True, seed=6)
        c_ordered = np.ascontiguousarray(lower)
        b = np.asfortranarray(np.random.default_rng(7).standard_normal((12, 5)))
        want = dtrsm(1.0, c_ordered.T, b, lower=0, trans_a=1)
        np.testing.assert_array_equal(trsm(1.0, c_ordered.T, b.copy(order="F"), trans=True), want)

    @pytest.mark.parametrize("from_lower", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 7, 64, 150])
    def test_trtri_equals_scipy(self, from_lower, k):
        a = _operand(k, from_lower, seed=k)
        want, info = dtrtri(a, lower=0)
        assert info == 0
        out = a.copy(order="F")  # with from_lower, L^T copied as svgp inverts it
        assert trtri(out) is out
        np.testing.assert_array_equal(out, want)

    def test_trtri_of_nothing_is_nothing(self):
        assert trtri(np.zeros((0, 0), order="F")).shape == (0, 0)

    def test_a_singular_triangle_is_refused(self):
        a = _triangle(4, lower=False, seed=8)
        a[2, 2] = 0.0
        with pytest.raises(NumericalError, match="diagonal entry 3"):
            trtri(a)

    def test_arguments_it_cannot_take_in_place_are_refused(self):
        a = _triangle(4, lower=False, seed=9)
        with pytest.raises(ValueError, match="contiguous columns"):
            trsm(1.0, a, np.zeros((4, 3)))  # C-ordered
        with pytest.raises(ValueError, match="contiguous columns"):
            trmm(1.0, np.ascontiguousarray(a), np.zeros((4, 3), order="F"))
        with pytest.raises(DimensionError):
            trsm(1.0, a, np.zeros((5, 3), order="F"))
        with pytest.raises(DimensionError):
            trsm(1.0, a, np.zeros((4, 3), dtype=np.float32, order="F"))
        frozen = np.zeros((4, 3), order="F")
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            trmm(1.0, a, frozen)

    def test_two_threads_at_once_get_one_threads_results(self):
        a = _triangle(200, lower=False, seed=10)
        bs = [np.asfortranarray(np.random.default_rng(s).standard_normal((200, 300)))
              for s in range(2)]

        def work(b):
            out = b.copy(order="F")
            for _ in range(5):
                trsm(1.0, a, out, trans=True)
                trmm(0.5, a, out)
            return out

        alone = [work(b) for b in bs]
        together = [None, None]
        threads = [threading.Thread(target=lambda i=i: together.__setitem__(i, work(bs[i])))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(together, alone):
            np.testing.assert_array_equal(got, want)

    def test_another_thread_runs_python_during_a_solve(self):
        # With a switch interval far longer than the test, a thread holding
        # the GIL is never made to hand it over, so the counting thread can
        # advance while the solve runs only if the solve released the GIL.
        a = _triangle(1200, lower=False, seed=11)
        b = np.asfortranarray(np.random.default_rng(12).standard_normal((1200, 1200)))
        count, started, stop = [0], threading.Event(), threading.Event()

        def counter():
            started.set()
            while not stop.is_set():
                count[0] += 1
                time.sleep(0)  # hands the GIL back every turn

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1000.0)
        thread = threading.Thread(target=counter)
        try:
            thread.start()
            started.wait()
            before = count[0]
            trsm(1.0, a, b, trans=True)
            during = count[0] - before
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(interval)
        assert during > 0


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
