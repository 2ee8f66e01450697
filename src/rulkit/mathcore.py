"""Shared numerical primitives.

The squared-exponential kernel, stabilized Cholesky factorization, the
Gaussian log density, Gauss-Hermite quadrature and the normal CDF.
Everything here is plain numpy/scipy; the training objectives differentiate
the kernel and the factorization inside :func:`rulkit.svgp.sparse_gp_layer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

LOG_TWO_PI = math.log(2.0 * math.pi)
MAX_QUADRATURE_SITES = 50


class NumericalError(RuntimeError):
    """A numerical routine left its supported regime (indefinite matrix, ...)."""


class DimensionError(ValueError):
    """Shapes passed to a routine are inconsistent."""


# -- kernels ----------------------------------------------------------------


@dataclass
class Kernel:
    """Squared-exponential kernel with per-dimension lengthscales.

    k(x, z) = variance * exp(-1/2 * sum_d ((x_d - z_d) / lengthscale_d)^2)
    """

    variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        self.lengthscales = np.atleast_1d(np.asarray(self.lengthscales, dtype=np.float64))
        if not np.isfinite(self.variance) or self.variance <= 0.0:
            raise ValueError(f"kernel variance must be positive, got {self.variance}")
        if self.lengthscales.ndim != 1 or np.any(self.lengthscales <= 0.0):
            raise ValueError("lengthscales must be a vector of positive values")

    @property
    def input_dim(self) -> int:
        return self.lengthscales.shape[0]


def _check_inputs(kernel: Kernel, X: np.ndarray, name: str) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != kernel.input_dim:
        raise DimensionError(
            f"{name} has {X.shape[1]} columns, kernel expects {kernel.input_dim}"
        )
    return X


def kernel_eval(kernel: Kernel, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix k(X, Z) of shape (n, m)."""
    X = _check_inputs(kernel, X, "X")
    Z = _check_inputs(kernel, Z, "Z")
    xs = X / kernel.lengthscales
    zs = Z / kernel.lengthscales
    d2 = (
        np.sum(xs * xs, axis=1)[:, None]
        + np.sum(zs * zs, axis=1)[None, :]
        - 2.0 * xs @ zs.T
    )
    np.clip(d2, 0.0, None, out=d2)
    return kernel.variance * np.exp(-0.5 * d2)


# -- stabilized Cholesky ------------------------------------------------------


@dataclass
class CholeskyResult:
    factor: np.ndarray
    jitter: float


def cholesky_jittered(
    A: np.ndarray, base_jitter: float = 1e-6, max_retries: int = 5
) -> CholeskyResult:
    """Lower Cholesky factor of A + jitter*I.

    The first attempt uses no jitter; on failure the jitter starts at
    ``base_jitter`` and is multiplied by 10 for up to ``max_retries`` attempts.
    The jitter actually used is reported in the result.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NumericalError("matrix contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(A))))
    if np.max(np.abs(A - A.T)) > 1e-10 * scale:
        raise NumericalError("matrix is not symmetric within 1e-10 relative tolerance")
    jitters = [0.0] + [base_jitter * 10.0**k for k in range(max_retries)]
    eye = np.eye(A.shape[0])
    for jitter in jitters:
        try:
            L = np.linalg.cholesky(A if jitter == 0.0 else A + jitter * eye)
            return CholeskyResult(factor=L, jitter=jitter)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"matrix is not positive definite even with jitter {jitters[-1]:.1e}"
    )


# -- Gaussian density ---------------------------------------------------------


def gaussian_logpdf(y, mean, variance):
    """Elementwise log N(y | mean, variance); accepts arrays or scalars."""
    y = np.asarray(y, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if np.any(variance <= 0.0):
        raise ValueError("variance must be positive")
    resid = y - mean
    return -0.5 * (LOG_TWO_PI + np.log(variance) + resid * resid / variance)


# -- quadrature ---------------------------------------------------------------


@dataclass
class QuadratureRule:
    """Sites and simplex weights approximating E[f(eps)], eps ~ N(0, 1)."""

    sites: np.ndarray
    weights: np.ndarray


def gauss_hermite(s: int) -> QuadratureRule:
    """Gauss-Hermite rule with s sites, normalized for the standard normal.

    Exact for polynomials up to degree 2s - 1. Weights are renormalized by
    their sum so they lie on the simplex to machine precision.
    """
    if not 1 <= int(s) <= MAX_QUADRATURE_SITES:
        raise ValueError(f"number of sites must be in [1, {MAX_QUADRATURE_SITES}], got {s}")
    sites, weights = np.polynomial.hermite_e.hermegauss(int(s))
    weights = weights / weights.sum()
    return QuadratureRule(sites=sites, weights=weights)


# -- normal CDF ---------------------------------------------------------------


def gaussian_cdf(x, mean=0.0, std=1.0):
    """F(x; mean, std) = 1/2 (1 + erf((x - mean) / (std sqrt(2))))."""
    std = np.asarray(std, dtype=np.float64)
    if np.any(std <= 0.0):
        raise ValueError("std must be positive")
    z = (np.asarray(x, dtype=np.float64) - mean) / (std * math.sqrt(2.0))
    return 0.5 * (1.0 + erf(z))
