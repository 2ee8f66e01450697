"""Shared numerical primitives.

Stabilized Cholesky factorization, in-place triangular BLAS that releases
the GIL, the Gaussian log density, Gauss-Hermite quadrature and the normal
CDF. Everything here is plain numpy/scipy; the squared-exponential kernel
lives with its VJP in :mod:`rulkit.svgp`, whose
:func:`~rulkit.svgp.sparse_gp_layer` differentiates the kernel and the
factorization.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_blas, cython_lapack
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


def cholesky_jittered(A: np.ndarray, base_jitter: float = 1e-6) -> CholeskyResult:
    """Lower Cholesky factor of A + jitter*I.

    The first attempt uses no jitter; on failure the jitter starts at
    ``base_jitter`` and is multiplied by 10 for up to five more attempts.
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
    jitters = [0.0] + [base_jitter * 10.0**k for k in range(5)]
    eye = None  # only a retry reads it
    for jitter in jitters:
        if jitter > 0.0 and eye is None:
            eye = np.eye(A.shape[0])
        try:
            L = np.linalg.cholesky(A if jitter == 0.0 else A + jitter * eye)
            return CholeskyResult(factor=L, jitter=jitter)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"matrix is not positive definite even with jitter {jitters[-1]:.1e}"
    )


# -- triangular BLAS without the GIL --------------------------------------------
#
# scipy.linalg.blas.dtrsm and friends are f2py wrappers that hold the GIL for
# the whole call, so two threads solving at once take turns. The routines
# below are the very dtrsm, dtrmm and dtrtri scipy links, taken from the
# function pointers scipy.linalg.cython_blas and cython_lapack export (their
# ``__pyx_capi__`` capsules) and called through ctypes, which releases the
# GIL for the call. They work in place on matrices whose columns are
# contiguous: Fortran-ordered arrays, their column blocks and the transposes
# of C-ordered arrays.

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _scipy_routine(module, name: str, *argtypes):
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, _capsule_name(capsule)))


_CHAR, _PTR = ctypes.c_char_p, ctypes.c_void_p
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb
_TRXM_ARGS = (_CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _DOUBLE, _PTR, _INT, _PTR, _INT)
_dtrsm = _scipy_routine(cython_blas, "dtrsm", *_TRXM_ARGS)
_dtrmm = _scipy_routine(cython_blas, "dtrmm", *_TRXM_ARGS)
# uplo, diag, n, a, lda, info
_dtrtri = _scipy_routine(cython_lapack, "dtrtri", _CHAR, _CHAR, _INT, _PTR, _INT, _INT)


def _columns(x: np.ndarray, name: str, rows: int, cols: int) -> int:
    """The leading dimension of ``x``, which must be a float64 (rows, cols)
    matrix with contiguous columns."""
    if not isinstance(x, np.ndarray) or x.dtype != np.float64 or x.shape != (rows, cols):
        raise DimensionError(f"{name} must be a float64 array of shape ({rows}, {cols})")
    if x.size == 0:
        return max(1, rows)
    step = x.strides[1] // 8 if cols > 1 else rows
    if (rows > 1 and x.strides[0] != 8) or x.strides[1] % 8 or step < rows:
        raise ValueError(f"{name} must have contiguous columns (Fortran order)")
    return max(1, step)


def _triangular_product(routine, alpha: float, a, b, trans: bool, right: bool):
    rows, cols = b.shape if b.ndim == 2 else (-1, -1)
    k = cols if right else rows
    lda = _columns(a, "a", k, k)
    ldb = _columns(b, "b", rows, cols)
    if not b.flags.writeable:
        raise ValueError("b must be writable; it is overwritten with the result")
    if b.size:
        routine(b"R" if right else b"L", b"U", b"T" if trans else b"N", b"N",
                ctypes.c_int(rows), ctypes.c_int(cols), ctypes.c_double(alpha),
                a.ctypes.data, ctypes.c_int(lda), b.ctypes.data, ctypes.c_int(ldb))
    return b


def trsm(alpha: float, a: np.ndarray, b: np.ndarray, *, trans: bool = False,
         right: bool = False) -> np.ndarray:
    """Overwrite b with alpha op(A)^{-1} b, or alpha b op(A)^{-1} with
    ``right``, and return it. A is the upper triangle of the square ``a`` (L.T
    for a lower L), op(A) is A or with ``trans`` its transpose; ``a`` and
    ``b`` are float64 with contiguous columns. scipy's own dtrsm, without the GIL."""
    return _triangular_product(_dtrsm, alpha, a, b, trans, right)


def trmm(alpha: float, a: np.ndarray, b: np.ndarray, *, trans: bool = False,
         right: bool = False) -> np.ndarray:
    """Overwrite b with alpha op(A) b, or alpha b op(A) with ``right``, and
    return it; arguments as for :func:`trsm`. scipy's own dtrmm, without the
    GIL."""
    return _triangular_product(_dtrmm, alpha, a, b, trans, right)


def trtri(a: np.ndarray) -> np.ndarray:
    """Overwrite the upper triangle of the square float64 ``a`` (contiguous
    columns) with the inverse of that triangle and return ``a``; the lower
    triangle is left as it was. scipy's own dtrtri, without the GIL. Raises
    NumericalError for a zero on the diagonal."""
    n = a.shape[0] if a.ndim == 2 else -1
    lda = _columns(a, "a", n, n)
    if not a.flags.writeable:
        raise ValueError("a must be writable; it is overwritten with the inverse")
    info = ctypes.c_int(0)
    if n:
        _dtrtri(b"U", b"N", ctypes.c_int(n), a.ctypes.data,
                ctypes.c_int(lda), info)
    if info.value > 0:
        raise NumericalError(f"triangular matrix is singular: diagonal entry {info.value} is 0")
    return a


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
    """Sites and simplex weights approximating E[f(eps)], eps ~ N(0, 1). The
    sites are (S,), or (S, W) for one rule replicated over W variables."""

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
