"""Independent numpy oracles for the tests: Gaussian distributions and
divergences, a dense exact GP, and unwhitened sparse-GP formulas.

The library parameterizes each GP layer by the whitened posterior
q(v) = N(m, S S^T) with u = L v and L = chol(Kmm), held as named slices of a
model's flat parameter vector. ``layer_of`` reads such a layer into plain
arrays and ``u_space`` maps it to the equivalent posterior over the inducing
values themselves, q(u) = N(L m, (L S)(L S)^T), which the textbook
expressions below expect.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from rulkit.mathcore import (
    DimensionError,
    Kernel,
    _check_inputs,
    cholesky_jittered,
    gaussian_logpdf,
    kernel_eval,
)


# -- Gaussian distributions -------------------------------------------------------


@dataclass
class GaussianDist:
    """Univariate Gaussian, parameterized by mean and variance."""

    mean: float
    variance: float

    def __post_init__(self):
        self.mean = float(self.mean)
        self.variance = float(self.variance)
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass
class MultivariateNormal:
    """Gaussian with covariance given by its lower Cholesky factor."""

    mean: np.ndarray
    covariance_factor: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance_factor = np.asarray(self.covariance_factor, dtype=np.float64)
        d = self.mean.shape[0]
        if self.mean.ndim != 1 or self.covariance_factor.shape != (d, d):
            raise DimensionError("mean and covariance factor dimensions disagree")
        if np.any(np.diag(self.covariance_factor) <= 0.0):
            raise ValueError("covariance factor needs a positive diagonal")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def covariance(self) -> np.ndarray:
        return self.covariance_factor @ self.covariance_factor.T


def mvn_kl(q: MultivariateNormal, p: MultivariateNormal) -> float:
    """KL(q || p) between Gaussians, in closed form via the factors.

    KL = 1/2 (tr(Sp^{-1} Sq) + (mp-mq)^T Sp^{-1} (mp-mq) - d + log|Sp| - log|Sq|)
    """
    if q.dim != p.dim:
        raise DimensionError(f"dimension mismatch: q has {q.dim}, p has {p.dim}")
    lq, lp = q.covariance_factor, p.covariance_factor
    m = solve_triangular(lp, lq, lower=True, check_finite=False)
    trace = float(np.sum(m * m))
    alpha = solve_triangular(lp, p.mean - q.mean, lower=True, check_finite=False)
    quad = float(alpha @ alpha)
    logdet_p = float(np.sum(np.log(np.diag(lp))))
    logdet_q = float(np.sum(np.log(np.diag(lq))))
    return 0.5 * (trace + quad - q.dim) + logdet_p - logdet_q


def gaussian_nll(y: float, dist: GaussianDist) -> float:
    """Negative log density of y under a univariate Gaussian."""
    return float(-gaussian_logpdf(y, dist.mean, dist.variance))


# -- dense GP reference -------------------------------------------------------------


def kernel_diag(kernel: Kernel, X: np.ndarray) -> np.ndarray:
    """diag k(X, X); constant for a stationary kernel."""
    X = _check_inputs(kernel, X, "X")
    return np.full(X.shape[0], kernel.variance)


def exact_gp_predict(kernel: Kernel, noise: float, X: np.ndarray, y: np.ndarray, xstar):
    """Textbook GP posterior predictive for y* at xstar.

    mean = k*^T (K + noise I)^{-1} y
    var  = k(x*, x*) - k*^T (K + noise I)^{-1} k* + noise

    Dense, O(N^3); guarded to N <= 2000 since it exists as a test reference.
    Returns a GaussianDist for a single point, a list for a matrix of points.
    """
    X = _check_inputs(kernel, X, "X")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise DimensionError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if X.shape[0] > 2000:
        raise ValueError("exact_gp_predict is a reference implementation, N <= 2000")
    if noise < 0.0:
        raise ValueError("noise variance must be nonnegative")
    single = np.asarray(xstar).ndim == 1
    Xs = _check_inputs(kernel, xstar, "xstar")
    K = kernel_eval(kernel, X, X) + noise * np.eye(X.shape[0])
    L = cholesky_jittered(K).factor
    alpha = solve_triangular(L, y, lower=True, check_finite=False)
    alpha = solve_triangular(L, alpha, lower=True, trans="T", check_finite=False)
    ks = kernel_eval(kernel, X, Xs)
    v = solve_triangular(L, ks, lower=True, check_finite=False)
    means = ks.T @ alpha
    variances = kernel_diag(kernel, Xs) - np.sum(v * v, axis=0) + noise
    dists = [GaussianDist(m, s2) for m, s2 in zip(means, variances)]
    return dists[0] if single else dists


# -- sparse-GP layers ------------------------------------------------------------------


@dataclass
class Layer:
    """One GP layer as plain arrays: inducing inputs, posterior mean and
    covariance factor (whitened or, after ``u_space``, not) and kernel."""

    inducing_points: np.ndarray
    variational_mean: np.ndarray
    variational_cov_factor: np.ndarray
    kernel: Kernel

    @property
    def num_inducing(self) -> int:
        return self.inducing_points.shape[0]


def layer_of(params, prefix: str) -> Layer:
    """The GP layer a model keeps under ``prefix`` in its parameter vector."""
    return Layer(
        inducing_points=params.decode(f"{prefix}.z"),
        variational_mean=params.decode(f"{prefix}.m"),
        variational_cov_factor=params.decode(f"{prefix}.L"),
        kernel=Kernel(
            params.decode(f"{prefix}.kernel_variance"), params.decode(f"{prefix}.lengthscales")
        ),
    )


def u_space(layer: Layer) -> Layer:
    """The same layer with q(u) = N(L m, L S (L S)^T) in place of q(v)."""
    z = layer.inducing_points
    L = np.linalg.cholesky(kernel_eval(layer.kernel, z, z))
    return Layer(
        inducing_points=z,
        variational_mean=L @ layer.variational_mean,
        variational_cov_factor=L @ layer.variational_cov_factor,
        kernel=layer.kernel,
    )


def np_latent(layer: Layer, X):
    """Sparse-GP latent moments of an unwhitened layer, from scratch.

    mu = k(x, Z) Kmm^{-1} m_u,  s2 = k(x, x) - q(x, x) + ||S_u^T Kmm^{-1} k(Z, x)||^2
    """
    Z = layer.inducing_points
    ls = layer.kernel.lengthscales
    kv = layer.kernel.variance

    def k(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) / ls) ** 2
        return kv * np.exp(-0.5 * d2.sum(axis=2))

    L = np.linalg.cholesky(k(Z, Z))
    B = solve_triangular(L, k(X, Z).T, lower=True)
    C = solve_triangular(L.T, B, lower=False)
    mu = C.T @ layer.variational_mean
    var = kv - (B * B).sum(axis=0) + ((layer.variational_cov_factor.T @ C) ** 2).sum(axis=0)
    return mu, np.maximum(var, 1e-12)
