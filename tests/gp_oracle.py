"""Independent numpy oracles for the tests: Gaussian distributions and
divergences, a squared-exponential kernel, a dense exact GP, unwhitened
sparse-GP formulas, and the tape ops the models no longer build.

The library parameterizes each GP layer by the whitened posterior
q(v) = N(m, S S^T) with u = L v and L = chol(Kmm), held as named slices of a
model's flat parameter vector; a deep model keeps each hidden layer as one
stack of GPs whose slices carry a leading stack axis. ``layer_of`` reads a
single GP, or one GP of a stack, into plain arrays and ``u_space`` maps it
to the equivalent posterior over the inducing values themselves,
q(u) = N(L m, (L S)(L S)^T), which the textbook expressions below expect. ``single_gp_layer`` is the one-GP layer node the
stacked ``rulkit.svgp.sparse_gp_layer`` must agree with GP by GP.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dtrtri

from rulkit import autodiff as ad
from rulkit.autodiff import Tensor
from rulkit.mathcore import (
    DimensionError,
    NumericalError,
    cholesky_jittered,
    gaussian_logpdf,
)
from rulkit.svgp import (
    DEFAULT_JITTER,
    NEG_VARIANCE_TOL,
    VARIANCE_FLOOR,
    _se_gram,
    _se_gram_vjp,
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


# -- squared-exponential kernel -----------------------------------------------------


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


def layer_of(params, prefix: str, gp=None) -> Layer:
    """The GP layer a model keeps under ``prefix`` in its parameter vector;
    for a stacked prefix, the stack's GP number ``gp``."""

    def read(name):
        value = params.decode(f"{prefix}.{name}")
        return value if gp is None else value[gp]

    return Layer(
        inducing_points=read("z"),
        variational_mean=read("m"),
        variational_cov_factor=read("L"),
        kernel=Kernel(float(read("kernel_variance")), read("lengthscales")),
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


def single_gp_layer(
    z: Tensor,
    kernel_variance: Tensor,
    lengthscales: Tensor,
    m: Tensor,
    s: Tensor,
    x: Tensor,
    jitter: float = DEFAULT_JITTER,
    factor: Optional[np.ndarray] = None,
):
    """One whitened single-GP sparse layer as one tape node: a literal copy
    of ``rulkit.svgp.sparse_gp_layer`` from before that node took a stack of
    GPs, kept as the per-GP oracle of the stacked node's values and
    gradients. Returns the Tensors (mu (n,), s2 (n,), kl)."""
    kernel_parents = (z, kernel_variance, lengthscales, x)
    if factor is not None and any(p.requires_grad for p in kernel_parents):
        raise ValueError("a given Kmm factor needs constant kernel inputs")
    zd, ell, md, sd, xd = z.data, lengthscales.data, m.data, s.data, x.data
    variance = float(kernel_variance.data)
    num, n = zd.shape[0], xd.shape[0]
    zs, xs = zd / ell, xd / ell
    zz, xx = (zs * zs).sum(axis=1), (xs * xs).sum(axis=1)
    kmm, kmm_live = _se_gram(zs, zs, zz, zz, variance)
    chol = cholesky_jittered(kmm, base_jitter=jitter).factor if factor is None else factor
    kxz, kxz_live = _se_gram(xs, zs, xx, zz, variance)
    # chol.T is the Fortran-ordered upper view of L that BLAS takes uncopied;
    # b and c are (M, n) Fortran-ordered like kxz.T
    b = dtrsm(1.0, chol.T, kxz.T, lower=0, trans_a=1)
    c = dtrmm(1.0, sd.T, b, lower=0)
    mu = b.T @ md
    raw = variance - np.einsum("ij,ij->j", b, b) + np.einsum("ij,ij->j", c, c)
    # only a negative minimum matters; initial=0.0 lets a zero-row batch through
    worst = float(raw.min(initial=0.0))
    if worst < NEG_VARIANCE_TOL:
        raise NumericalError(f"latent variance fell to {worst:.3e}; matrix too ill-conditioned")
    var_live = raw > VARIANCE_FLOOR
    kl = ((sd * sd).sum() + (md * md).sum() - float(num)) * 0.5 - np.log(np.diagonal(sd)).sum()
    packed = np.concatenate([mu, np.maximum(raw, VARIANCE_FLOOR), [kl]])

    def vjp(g):
        gmu, gkl = g[:n], g[2 * n]
        # the clamp passes no gradient on its floor side
        gvar = g[n : 2 * n] * var_live
        gvar2 = 2.0 * gvar
        gm = b @ gmu + gkl * md if m.requires_grad else None
        gs = None
        if s.requires_grad:
            gs = b @ (c * gvar2).T + gkl * sd
            gs[np.diag_indices(num)] -= gkl / np.diagonal(sd)
        if not any(p.requires_grad for p in kernel_parents):
            return None, None, None, gm, gs, None
        # d/db of mu, -||b||^2 and ||S^T b||^2
        gb = dtrmm(1.0, sd.T, c, lower=0, trans_a=1)
        gb -= b
        gb *= gvar2
        gb += np.outer(md, gmu)
        # b = L^{-1} Kzx gives Kzx the gradient L^{-T} gb and L the gradient
        # Lbar = -tril(L^{-T} gb b^T). The Cholesky update needs only the lower
        # triangle of L^T Lbar, which L^T (upper) takes from Lbar's lower
        # triangle alone, so Phi(L^T Lbar) = -Phi(gb b^T). np.triu of the
        # C-ordered transpose leaves phi Fortran-ordered for BLAS.
        phi = np.triu(b @ gb.T).T
        phi[np.diag_indices(num)] *= 0.5
        linv_t = dtrtri(chol.T, lower=0)[0]  # L^{-T}, upper, Fortran-ordered
        gkzx = dtrmm(1.0, linv_t, gb, lower=0, overwrite_b=1)
        phi = dtrmm(-1.0, linv_t, phi, lower=0, overwrite_b=1)
        phi = dtrmm(1.0, linv_t, phi, side=1, lower=0, trans_a=1, overwrite_b=1)
        gkmm = (phi + phi.T) / 2.0
        gd_mm, gkv_mm = _se_gram_vjp(gkmm, kmm, kmm_live, variance)
        gd_xz, gkv_xz = _se_gram_vjp(gkzx.T, kxz, kxz_live, variance)
        # d2 = |a|^2 + |b|^2 - 2 a.b per pair; gd_mm is symmetric
        gzs = 4.0 * (zs * gd_mm.sum(axis=1)[:, None] - gd_mm @ zs)
        gzs += 2.0 * (zs * gd_xz.sum(axis=0)[:, None] - gd_xz.T @ xs)
        gxs = 2.0 * (xs * gd_xz.sum(axis=1)[:, None] - gd_xz @ zs)
        gell = -((gzs * zs).sum(axis=0) + (gxs * xs).sum(axis=0)) / ell
        return (
            gzs / ell,
            np.asarray(gkv_mm + gkv_xz + gvar.sum()),
            gell,
            gm,
            gs,
            gxs / ell if x.requires_grad else None,
        )

    node = ad.make_node(packed, (z, kernel_variance, lengthscales, m, s, x), vjp)
    return node[:n], node[n : 2 * n], node[2 * n]


# -- tape ops the models no longer build --------------------------------------------


def relu(a: Tensor) -> Tensor:
    """max(a, 0) as its own node: the composed-graph reference of
    ``rulkit.autodiff.dense_relu``."""

    def vjp(g):
        return (g * (a.data > 0.0),)

    return ad.make_node(np.maximum(a.data, 0.0), (a,), vjp)


def transpose(a: Tensor) -> Tensor:
    """The transpose of a 2-d Tensor as its own node."""

    def vjp(g):
        return (g.T,)

    return ad.make_node(a.data.T, (a,), vjp)
