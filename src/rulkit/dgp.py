"""Doubly-stochastic deep GP regression.

``depth`` hidden layers of ``width`` = W independent single-output sparse GPs
feed an output GP. Each hidden layer l is one stack of W GPs under the
parameter prefix ``h{l}``, whose slices carry a leading stack axis: ``z``
(W, M, d_l), ``m`` (W, M), ``L`` (W, M, M), stored packed as
(W, M(M+1)/2), ``kernel_variance`` (W,) and ``lengthscales`` (W, d_l); the
output GP is the single-GP layer ``out``. Every layer is one
:func:`rulkit.svgp.sparse_gp_layer` node, read through
:func:`rulkit.svgp.gp_layer`.

The T components of the hidden integral are one array axis. Hidden
activations are sampled by reparametrization, g = mu + e * sigma, with e the
(T, n, depth * W) block of standard-normal draws; the raw input is
concatenated onto the hidden features when the skip connection is on, so
each later layer reads (T n, W [+ d]) features, and the output moments are
(T, n). Training uses :func:`rulkit.svgp.objective_graph` on those moments:
the evidence bound averages the corrected likelihood over the T draws; the
predictive-variance variant scores the log of the T-sample average density
(a biased but well-behaved estimate of the predictive likelihood). The
predictive distribution is an equal-weight Gaussian mixture over T draws,
taken 512 rows at a time.

:class:`DeepGPModel` is :class:`rulkit.svgp.SVGPModel` plus hidden layers:
it overrides the hidden-layer hooks, the predictive's row chunk and its
weights, and inherits the moments path, the bound, ``objective_grad`` and
``predictive``. At depth 0 no hook adds a layer and the draws have zero
width (a zero-size draw leaves the stream where it was), so the model is the
flat GP by construction, under the output prefix ``out``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
# unused here, but the benchmark's span timer rebinds this module's name
from .mathcore import cholesky_jittered  # noqa: F401
from .params import ParamView, RngStream
from .svgp import DEFAULT_JITTER, SVGPModel, gp_layer, init_inducing, register_layer

MAX_DEPTH = 3


class DeepGPModel(SVGPModel):
    """Deep GP: ``depth`` hidden layers of ``width`` GPs each feeding the
    output GP of :class:`rulkit.svgp.SVGPModel`."""

    kind = "dgp"
    output_prefix = "out"
    _predict_chunk = 512

    def __init__(self, objective: str, beta_reg: float, input_dim: int, width: int, depth: int,
                 num_inducing: int, skip_connection: bool = True, num_train_samples: int = 10,
                 num_test_samples: int = 64, jitter: float = DEFAULT_JITTER,
                 target_shift: float = 0.0, target_scale: float = 1.0):
        if depth < 0 or depth > MAX_DEPTH:
            raise ValueError(f"supported hidden depth is 0 to {MAX_DEPTH}")
        if depth > 0 and width < 1:
            raise ValueError("hidden layers need width >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.skip_connection = bool(skip_connection)
        self.num_train_samples = int(num_train_samples)
        self.num_test_samples = int(num_test_samples)
        super().__init__(objective, beta_reg, input_dim, num_inducing, jitter, target_shift,
                         target_scale)

    def init_from_data(self, X: np.ndarray, rng: RngStream, inducing_init: str = "random-subset"):
        """Data-dependent initialization of every GP's inducing set.

        First hidden layer anchors on a subset of X's rows (or their k-means
        centers); deeper layers and the output layer see sampled prior
        activations in the hidden coordinates plus the same subset in the skip
        block.
        """
        subset = init_inducing(X, self.num_inducing, inducing_init, rng.derive(0))
        draw = rng.derive(1)
        for l in range(self.depth):
            stack = [subset if l == 0 else self._lifted(subset, draw) for _ in range(self.width)]
            self.params.set_value(f"h{l}.z", np.stack(stack))
        z_out = subset if self.depth == 0 else self._lifted(subset, draw)
        self.params.set_value("out.z", z_out)

    def _lifted(self, subset: np.ndarray, rng: RngStream) -> np.ndarray:
        g = rng.normal(size=(subset.shape[0], self.width))
        return np.hstack([g, subset]) if self.skip_connection else g

    # -- the hidden layers ----------------------------------------------------------

    def _register_hidden(self) -> int:
        # each layer's input: x, then the hidden features (and x with the skip)
        dim = self.input_dim
        for l in range(self.depth):
            register_layer(self.params, f"h{l}", self.num_inducing, dim, (self.width,))
            dim = self.width + (self.input_dim if self.skip_connection else 0)
        return dim

    def _multiplier(self, view: ParamView, eps):
        """The (T, n, depth * width) block that scales the hidden GPs' latent
        stds: the standard-normal draws ``eps``."""
        return eps

    def _hidden(self, view: ParamView, X: np.ndarray, eps, factors: Optional[dict]):
        """Hidden activations g = mu + e * sigma of every component, each
        layer reading the previous one's (with x concatenated on under the
        skip connection). ``eps`` is the (T, n, depth * width) block of
        standard-normal hidden draws, or None for the sigma-point model, whose
        sites replace it."""
        n, dim, width = X.shape[0], X.shape[1], self.width
        mult = self._multiplier(view, eps)
        num_comp = mult.shape[0]
        x = ad.constant(X)
        # the first hidden layer reads x once for every component
        feats, rows = x, 1
        hidden_kls = []
        for l in range(self.depth):
            mu, var, kl = gp_layer(view, f"h{l}", feats, self.jitter, factors)
            hidden_kls.append(kl)
            shape = (rows, n, width)
            g = ad.reshape(mu, shape) + ad.reshape(ad.sqrt(var), shape) * mult[
                :, :, l * width : (l + 1) * width
            ]
            if self.skip_connection:
                skip = ad.constant(np.broadcast_to(X, (num_comp, n, dim)))
                g = ad.concatenate([g, skip], axis=2)
            feats, rows = ad.reshape(g, (num_comp * n, g.shape[2])), num_comp
        return feats, rows, hidden_kls

    def _draw_eps(self, n: int, samples: int, rng: RngStream) -> np.ndarray:
        return rng.normal(size=(samples, n, self.depth * self.width))

    def _mixture_weights(self) -> np.ndarray:
        """Equal weights over the sampled forward passes (one at depth 0)."""
        t = self.num_test_samples if self.depth else 1
        return np.full(t, 1.0 / t)
