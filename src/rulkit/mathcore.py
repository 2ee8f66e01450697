"""Shared numerical primitives.

Stabilized Cholesky factorization, in-place triangular BLAS that releases
the GIL, the Gaussian log density, Gauss-Hermite quadrature, the normal CDF
and the logistic function. Everything here is plain numpy: the triangular
routines are those of numpy's own OpenBLAS, and ``erf`` and ``expit`` give
scipy.special's bits without importing scipy. The squared-exponential
kernel lives with its VJP in :mod:`rulkit.svgp`, whose
:func:`~rulkit.svgp.sparse_gp_layer` differentiates the kernel and the
factorization.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

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
# The routines below are the dtrsm, dtrmm and dtrtri of the OpenBLAS numpy
# itself links (the scipy-openblas64 build its wheels ship, under the symbol
# prefix ``scipy_`` and suffix ``64_``). numpy's core extension module loads
# that library, so its ctypes handle resolves the symbols through the
# module's own dependency. They are ILP64 routines: every integer argument is
# a 64-bit integer passed by reference. ctypes releases the GIL for each
# call, so two threads solving at once do not take turns. They work in place
# on matrices whose columns are contiguous: Fortran-ordered arrays, their
# column blocks and the transposes of C-ordered arrays.

_NUMPY_CORE = ctypes.CDLL(np._core._multiarray_umath.__file__)


def _numpy_blas(name: str, *argtypes):
    try:
        routine = getattr(_NUMPY_CORE, name)
    except AttributeError:
        raise ImportError(f"numpy's OpenBLAS does not export {name}") from None
    routine.argtypes, routine.restype = argtypes, None
    return routine


_CHAR, _PTR = ctypes.c_char_p, ctypes.c_void_p
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
# side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb
_TRXM_ARGS = (_CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _DOUBLE, _PTR, _INT, _PTR, _INT)
_dtrsm = _numpy_blas("scipy_dtrsm_64_", *_TRXM_ARGS)
_dtrmm = _numpy_blas("scipy_dtrmm_64_", *_TRXM_ARGS)
# uplo, diag, n, a, lda, info
_dtrtri = _numpy_blas("scipy_dtrtri_64_", _CHAR, _CHAR, _INT, _PTR, _INT, _INT)


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
                ctypes.c_int64(rows), ctypes.c_int64(cols), ctypes.c_double(alpha),
                a.ctypes.data, ctypes.c_int64(lda), b.ctypes.data, ctypes.c_int64(ldb))
    return b


def trsm(alpha: float, a: np.ndarray, b: np.ndarray, *, trans: bool = False,
         right: bool = False) -> np.ndarray:
    """Overwrite b with alpha op(A)^{-1} b, or alpha b op(A)^{-1} with
    ``right``, and return it. A is the upper triangle of the square ``a`` (L.T
    for a lower L), op(A) is A or with ``trans`` its transpose; ``a`` and
    ``b`` are float64 with contiguous columns. numpy's OpenBLAS dtrsm, without
    the GIL."""
    return _triangular_product(_dtrsm, alpha, a, b, trans, right)


def trmm(alpha: float, a: np.ndarray, b: np.ndarray, *, trans: bool = False,
         right: bool = False) -> np.ndarray:
    """Overwrite b with alpha op(A) b, or alpha b op(A) with ``right``, and
    return it; arguments as for :func:`trsm`. numpy's OpenBLAS dtrmm, without
    the GIL."""
    return _triangular_product(_dtrmm, alpha, a, b, trans, right)


def trtri(a: np.ndarray) -> np.ndarray:
    """Overwrite the upper triangle of the square float64 ``a`` (contiguous
    columns) with the inverse of that triangle and return ``a``; the lower
    triangle is left as it was. numpy's OpenBLAS dtrtri, without the GIL. Raises
    NumericalError for a zero on the diagonal."""
    n = a.shape[0] if a.ndim == 2 else -1
    lda = _columns(a, "a", n, n)
    if not a.flags.writeable:
        raise ValueError("a must be writable; it is overwritten with the inverse")
    info = ctypes.c_int64(0)
    if n:
        _dtrtri(b"U", b"N", ctypes.c_int64(n), a.ctypes.data,
                ctypes.c_int64(lda), info)
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


# -- normal CDF and the logistic function ---------------------------------------
#
# erf is cephes' ndtr.c erf, the one scipy.special.erf computes, ported
# operation for operation so that it gives scipy's bits: Horner's rule in
# cephes' order, no fused multiply-adds, and the exponential of libm
# (math.exp), whose last bits np.exp does not always reproduce. Like the C
# code it raises no floating-point warning, for any input.

_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
          6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERF_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
          1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2  # log of the largest double: exp is finite up to here


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] x^N + ... + coef[N] by Horner's rule, as cephes' polevl."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], as cephes' p1evl."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp of each entry of the 1-d ``x`` by libm, through math.exp."""
    return np.fromiter(map(math.exp, x.tolist()), np.float64, x.size)


def erf(x) -> np.ndarray:
    """The error function, bit for bit as scipy.special.erf.

    cephes computes erf(-x) as -erf(x), erf(x) as x T(x²)/U(x²) for
    |x| <= 1 and as 1 - erfc(x) beyond, where erfc(a) = exp(-a²) P(a)/Q(a)
    for a < 8, exp(-a²) R(a)/S(a) from 8 on, and 0 once -a² < -MAXLOG. NaN
    gives NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x).ravel()
    out = np.ones_like(a)  # 1 - erfc where erfc underflows, |x| >= 27 included
    with np.errstate(all="ignore"):  # the squares of subnormals underflow
        at = np.flatnonzero(a <= 1.0)  # index arrays: a boolean gather is slower
        s = a.take(at)
        z = s * s
        out.put(at, s * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U))
        # exp only where erfc is formed; 27² > MAXLOG, and no square overflows
        for at, numer, denom in ((np.flatnonzero((a > 1.0) & (a < 8.0)), _ERF_P, _ERF_Q),
                                 (np.flatnonzero((a >= 8.0) & (a < 27.0)), _ERF_R, _ERF_S)):
            if at.size:
                s = a.take(at)
                z = -s * s
                z[z < -_MAXLOG] = -math.inf  # erfc underflows: exp gives 0
                out.put(at, 1.0 - (_libm_exp(z) * _polevl(s, numer)) / _p1evl(s, denom))
    np.copysign(out, x.ravel(), out=out)
    out[np.isnan(a)] = math.nan
    return out.reshape(x.shape)[()]  # a scalar for a scalar, as from a ufunc


def expit(x) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), bit for bit as
    scipy.special.expit, which forms exactly that with libm's exp: exp(-x)
    overflows to inf, and the result to 0, where -x > MAXLOG. Like erf, it
    raises no floating-point warning."""
    x = np.asarray(x, dtype=np.float64)
    e = np.full(x.shape, math.inf)
    fits = ~(x < -_MAXLOG)
    e[fits] = _libm_exp(-x[fits])
    with np.errstate(all="ignore"):  # the result is subnormal below about -708
        return 1.0 / (1.0 + e)


def gaussian_cdf(x, mean=0.0, std=1.0):
    """F(x; mean, std) = 1/2 (1 + erf((x - mean) / (std sqrt(2))))."""
    std = np.asarray(std, dtype=np.float64)
    if np.any(std <= 0.0):
        raise ValueError("std must be positive")
    z = (np.asarray(x, dtype=np.float64) - mean) / (std * math.sqrt(2.0))
    return 0.5 * (1.0 + erf(z))
