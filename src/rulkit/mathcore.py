"""Shared numerical primitives.

Stabilized Cholesky factorization, the Gaussian log density, Gauss-Hermite
quadrature and the normal CDF. Everything here is plain numpy/scipy; the
squared-exponential kernel lives with its VJP in :mod:`rulkit.svgp`, whose
:func:`~rulkit.svgp.sparse_gp_layer` differentiates the kernel and the
factorization.
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


# -- stabilized Cholesky ------------------------------------------------------


_SYMMETRY_TILE = 128


def _asymmetry(A: np.ndarray) -> float:
    """max |A - Aᵀ|, compared tile by tile against the other triangle so no
    full-size transpose or difference is formed."""
    t = _SYMMETRY_TILE
    worst = 0.0
    for i in range(0, A.shape[0], t):
        for j in range(0, i + 1, t):
            gap = np.abs(A[i : i + t, j : j + t] - A[j : j + t, i : i + t].T)
            worst = max(worst, float(np.max(gap)))
    return worst


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
    largest = float(np.max(np.abs(A)))  # nan or inf exactly when an entry is
    if not math.isfinite(largest):
        raise NumericalError("matrix contains non-finite entries")
    scale = max(1.0, largest)
    if _asymmetry(A) > 1e-10 * scale:
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
