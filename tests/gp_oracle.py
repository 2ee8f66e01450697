"""Unwhitened sparse-GP formulas, kept as an independent oracle for the tests.

The library parameterizes each layer by the whitened posterior
q(v) = N(m, S S^T) with u = L v and L = chol(Kmm). ``u_space`` maps such a
layer to the equivalent posterior over the inducing values themselves,
q(u) = N(L m, (L S)(L S)^T), which the textbook expressions below expect.
"""

import numpy as np
from scipy.linalg import solve_triangular

from rulkit.mathcore import kernel_eval
from rulkit.svgp import VariationalGPLayer


def u_space(layer: VariationalGPLayer) -> VariationalGPLayer:
    """The same layer with q(u) = N(L m, L S (L S)^T) in place of q(v)."""
    z = layer.inducing_points
    L = np.linalg.cholesky(kernel_eval(layer.kernel, z, z))
    return VariationalGPLayer(
        inducing_points=z,
        variational_mean=L @ layer.variational_mean,
        variational_cov_factor=L @ layer.variational_cov_factor,
        kernel=layer.kernel,
    )


def np_latent(layer: VariationalGPLayer, X):
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
