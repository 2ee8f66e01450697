"""Doubly-stochastic deep GP regression.

A hidden layer of W independent single-output sparse GPs feeds an output GP;
hidden activations are sampled by reparametrization, g = mu + eps * sigma,
and the raw input is concatenated onto the hidden features when the skip
connection is on. The evidence bound averages the per-sample corrected
likelihood over T draws and subtracts the KL of every inducing set; the
predictive-variance variant scores the log of the T-sample average density
(a biased but well-behaved estimate of the predictive likelihood). The
predictive distribution is an equal-weight Gaussian mixture over T draws.

Depth 0 collapses the model to the sparse GP layer it wraps: no sampling
happens and objective and predictions agree with :mod:`rulkit.svgp` exactly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import svgp
from .autodiff import Tensor
# unused here, but the benchmark's span timer rebinds this module's name
from .mathcore import cholesky_jittered  # noqa: F401
from .metrics import Predictions
from .params import POSITIVE, ParamVector, ParamView, RngStream, value_and_grad
from .svgp import (
    DEFAULT_JITTER,
    LayerTensors,
    ObjectiveSpec,
    gaussian_loglik_graph,
    init_inducing,
    input_rows,
    latent_graph,
    layer_from_view,
    register_layer,
)

_PREDICT_CHUNK = 512
MAX_DEPTH = 3


# -- differentiable propagation (shared with the sigma-point variant) ----------


def propagate_components(
    hidden_groups: list[list[LayerTensors]],
    x: Tensor,
    multipliers,
    skip: bool,
    jitter: float,
):
    """Push one input block through the hidden stack, once per component.

    ``multipliers[t][l][w]`` scales the latent std of hidden GP w in layer l
    for component t; entries are (n,) arrays (sampled eps) or scalar Tensors
    (trainable quadrature sites). Returns the per-component feature streams
    feeding the output layer plus the KL node of every hidden inducing set.
    Components whose streams are the same graph node are computed once.
    """
    num_comp = len(multipliers)
    n = x.shape[0]
    streams = [x] * num_comp
    kls = []
    for l, group in enumerate(hidden_groups):
        shared = all(s is streams[0] for s in streams)
        stacked = streams[0] if shared else ad.concatenate(streams, axis=0)
        mus, sigmas = [], []
        for lt in group:
            mu, var, kl = latent_graph(lt, stacked, jitter)
            kls.append(kl)
            mus.append(mu)
            sigmas.append(ad.sqrt(var))
        new_streams = []
        for t in range(num_comp):
            cols = []
            for w in range(len(group)):
                if shared:
                    mu_t, sig_t = mus[w], sigmas[w]
                else:
                    mu_t = mus[w][t * n : (t + 1) * n]
                    sig_t = sigmas[w][t * n : (t + 1) * n]
                mult = multipliers[t][l][w]
                scaled = (
                    mult * sig_t if isinstance(mult, Tensor) else sig_t * ad.constant(mult)
                )
                cols.append(ad.reshape(mu_t + scaled, (n, 1)))
            feats = cols + ([x] if skip else [])
            new_streams.append(feats[0] if len(feats) == 1 else ad.concatenate(feats, axis=1))
        streams = new_streams
    return streams, kls


def output_components(
    out_lt: LayerTensors, streams: list[Tensor], jitter: float
):
    """Output-layer latent moments per component stream.

    Identical streams (depth 0) are evaluated once and the component list
    collapses to length 1, which keeps the degenerate model bit-identical to
    the flat sparse GP. Returns (mus, vars, kl).
    """
    n = streams[0].shape[0]
    shared = all(s is streams[0] for s in streams)
    stacked = streams[0] if shared else ad.concatenate(streams, axis=0)
    mu, var, kl = latent_graph(out_lt, stacked, jitter)
    if shared:
        return [mu], [var], kl
    mus = [mu[t * n : (t + 1) * n] for t in range(len(streams))]
    vars_ = [var[t * n : (t + 1) * n] for t in range(len(streams))]
    return mus, vars_, kl


def deep_objective_graph(
    mus: list,
    vars_: list,
    kl_total: Tensor,
    obs_variance: Tensor,
    spec: ObjectiveSpec,
    y: Tensor,
    scale: float,
    log_weights,
) -> Tensor:
    """Negated deep bound on a batch from the per-component output moments.

    ``log_weights`` is None for equal-weight MC components (log 1/T handled in
    closed form) or a Tensor of per-component log weights (sigma points).
    """
    num_comp = len(mus)
    n = y.shape[0]
    if spec.kind == "elbo":
        if log_weights is not None:
            raise ValueError("weighted components require the ppgpr objective")
        ones = ad.constant(np.ones(n))
        acc = None
        for t in range(num_comp):
            ll = gaussian_loglik_graph(y, mus[t], obs_variance * ones)
            corrected = ll - vars_[t] / (obs_variance * 2.0)
            acc = corrected.sum() if acc is None else acc + corrected.sum()
        bound = (acc / float(num_comp)) * scale - kl_total
        return -bound
    rows = []
    for t in range(num_comp):
        ll = gaussian_loglik_graph(y, mus[t], vars_[t] + obs_variance)
        if log_weights is not None:
            ll = ll + log_weights[t]
        rows.append(ad.reshape(ll, (1, n)))
    stacked = rows[0] if num_comp == 1 else ad.concatenate(rows, axis=0)
    log_mix = ad.logsumexp(stacked, axis=0)
    if log_weights is None and num_comp > 1:
        log_mix = log_mix - math.log(num_comp)
    bound = log_mix.sum() * scale - spec.beta_reg * kl_total
    return -bound


# -- trainable model ---------------------------------------------------------------


class DeepGPModel:
    """Deep GP with one shared flat parameter vector.

    Structure: ``depth`` hidden layers of ``width`` GPs each, then a single
    output GP. Targets are standardized internally like the flat model.
    """

    kind = "dgp"

    def __init__(
        self,
        objective_spec: ObjectiveSpec,
        input_dim: int,
        width: int,
        depth: int,
        num_inducing: int,
        skip_connection: bool = True,
        num_train_samples: int = 10,
        num_test_samples: int = 64,
        jitter: float = DEFAULT_JITTER,
        target_shift: float = 0.0,
        target_scale: float = 1.0,
    ):
        if depth < 0 or depth > MAX_DEPTH:
            raise ValueError(f"supported hidden depth is 0 to {MAX_DEPTH}")
        if depth > 0 and width < 1:
            raise ValueError("hidden layers need width >= 1")
        self.objective_spec = objective_spec
        self.input_dim = int(input_dim)
        self.width = int(width)
        self.depth = int(depth)
        self.num_inducing = int(num_inducing)
        self.skip_connection = bool(skip_connection)
        self.num_train_samples = int(num_train_samples)
        self.num_test_samples = int(num_test_samples)
        self.jitter = float(jitter)
        self.target_shift = float(target_shift)
        self.target_scale = float(target_scale)
        self.params = ParamVector()
        hidden_dims, out_dim = self._layer_dims()
        hidden_prefixes, out_prefix = self._prefixes()
        for l, group in enumerate(hidden_prefixes):
            for prefix in group:
                register_layer(self.params, prefix, self.num_inducing, hidden_dims[l])
        register_layer(self.params, out_prefix, self.num_inducing, out_dim)
        self.params.register("obs_variance", (), POSITIVE, init=0.25)

    # widths of the GP inputs per hidden layer and for the output layer
    def _layer_dims(self):
        dims = []
        current = self.input_dim
        for _ in range(self.depth):
            dims.append(current)
            current = self.width + (self.input_dim if self.skip_connection else 0)
        return dims, current

    def _prefixes(self):
        hidden = [[f"h{l}.{w}" for w in range(self.width)] for l in range(self.depth)]
        return hidden, "out"

    @classmethod
    def create(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        *,
        width: int = 4,
        depth: int = 1,
        num_inducing: int = 100,
        objective_spec: Optional[ObjectiveSpec] = None,
        skip_connection: bool = True,
        num_train_samples: int = 10,
        num_test_samples: int = 64,
        rng: Optional[RngStream] = None,
        inducing_strategy: str = "random-subset",
        obs_variance_init: float = 0.25,
        standardize_targets: bool = True,
        jitter: float = DEFAULT_JITTER,
    ) -> "DeepGPModel":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if rng is None:
            rng = RngStream(0)
        shift, scale = svgp._target_stats(y, standardize_targets)
        model = cls(
            objective_spec or ObjectiveSpec("elbo"),
            X.shape[1],
            width,
            depth,
            num_inducing,
            skip_connection,
            num_train_samples,
            num_test_samples,
            jitter,
            shift,
            scale,
        )
        model.params.set_value("obs_variance", obs_variance_init)
        model._init_structure(X, rng, inducing_strategy)
        return model

    def _init_structure(
        self, X: np.ndarray, rng: RngStream, inducing_strategy: str = "random-subset"
    ):
        """Data-dependent initialization of every GP's inducing set.

        First hidden layer anchors on a data subset; deeper layers and the
        output layer see sampled prior activations in the hidden coordinates
        plus the same subset in the skip block.
        """
        subset = init_inducing(X, self.num_inducing, inducing_strategy, rng.derive(0))
        hidden_prefixes, out_prefix = self._prefixes()
        draw = rng.derive(1)
        for l, group in enumerate(hidden_prefixes):
            for prefix in group:
                z = subset if l == 0 else self._lifted(subset, draw)
                self.params.set_value(f"{prefix}.z", z)
        z_out = subset if self.depth == 0 else self._lifted(subset, draw)
        self.params.set_value(f"{out_prefix}.z", z_out)

    def _lifted(self, subset: np.ndarray, rng: RngStream) -> np.ndarray:
        g = rng.normal(size=(subset.shape[0], self.width))
        return np.hstack([g, subset]) if self.skip_connection else g

    # -- graph builders ---------------------------------------------------------

    def _multipliers(self, view: ParamView, eps: np.ndarray):
        """Slice a (T, n, depth * width) draw block into per-GP columns."""
        return [
            [
                [eps[t, :, l * self.width + w] for w in range(self.width)]
                for l in range(self.depth)
            ]
            for t in range(eps.shape[0])
        ]

    def _log_weights(self, view: ParamView):
        return None

    def _moments(self, view: ParamView, X: np.ndarray, eps):
        """Output-layer latent moments per component, in standardized target
        space, and the summed KL of every inducing set.

        ``eps`` is the (T, n, depth * width) block of standard-normal hidden
        draws, or None for the sigma-point model, whose sites replace it. The
        training objective and the predictive both build on this.
        """
        if eps is not None and eps.shape[1:] != (X.shape[0], self.depth * self.width):
            raise ValueError(
                f"eps has shape {eps.shape}, expected (T, {X.shape[0]}, {self.depth * self.width})"
            )
        hidden_prefixes, out_prefix = self._prefixes()
        groups = [[layer_from_view(view, pref) for pref in group] for group in hidden_prefixes]
        out_lt = layer_from_view(view, out_prefix)
        streams, kls = propagate_components(
            groups, ad.constant(X), self._multipliers(view, eps), self.skip_connection, self.jitter
        )
        mus, vars_, kl_total = output_components(out_lt, streams, self.jitter)
        for k in kls:
            kl_total = kl_total + k
        return mus, vars_, kl_total

    def _component_moments(self, X: np.ndarray, eps=None):
        """``_moments`` on a constant view of the parameters, as (T, n) arrays."""
        mus, vars_, _ = self._moments(ParamView(self.params, trainable=False), X, eps)
        return (
            np.stack([m.data for m in mus], axis=0),
            np.stack([v.data for v in vars_], axis=0),
        )

    def _draw_eps(self, n: int, samples: int, rng: Optional[RngStream]) -> np.ndarray:
        if self.depth == 0:
            # no hidden stochasticity: one exact component
            return np.zeros((1, n, 0))
        if rng is None:
            rng = RngStream(0)
        return rng.normal(size=(samples, n, self.depth * self.width))

    def _build(self, view: ParamView, X, y, scale: float, eps) -> Tensor:
        mus, vars_, kl_total = self._moments(view, X, eps)
        return deep_objective_graph(
            mus,
            vars_,
            kl_total,
            view.get("obs_variance"),
            self.objective_spec,
            ad.constant((y - self.target_shift) / self.target_scale),
            scale,
            self._log_weights(view),
        )

    def _mixture(
        self, X, weights: np.ndarray, chunk: int, rng: Optional[RngStream]
    ) -> Predictions:
        """Mixture over the model's components per row of X, in natural target
        units; hidden draws come from ``rng``, or none are drawn without one."""
        X = input_rows(X, self.input_dim)
        obs = self.params.decode("obs_variance")
        s = self.target_scale
        means, variances = [], []
        # one pass even for zero rows, so an empty input gives an empty batch
        for start in range(0, max(X.shape[0], 1), chunk):
            block = X[start : start + chunk]
            eps = None
            if rng is not None:
                eps = self._draw_eps(block.shape[0], self.num_test_samples, rng)
            mu, var = self._component_moments(block, eps)
            means.append((mu * s + self.target_shift).T)
            variances.append(((var + obs) * s * s).T)
        return Predictions.mixture(weights, np.concatenate(means), np.concatenate(variances))

    # -- training and prediction -------------------------------------------------

    def objective_grad(self, X, y, scale: float = 1.0, rng: Optional[RngStream] = None) -> float:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        eps = self._draw_eps(X.shape[0], self.num_train_samples, rng)
        return value_and_grad(self.params, lambda view: self._build(view, X, y, scale, eps))

    def predictive(self, X, rng: Optional[RngStream] = None) -> Predictions:
        """Equal-weight Gaussian mixture over sampled forward passes per row of
        X, in natural target units."""
        t = self.num_test_samples if self.depth else 1
        return self._mixture(X, np.full(t, 1.0 / t), _PREDICT_CHUNK, rng or RngStream(0))

    def config_dict(self) -> dict:
        return {
            "kind": self.kind,
            "input_dim": self.input_dim,
            "width": self.width,
            "depth": self.depth,
            "num_inducing": self.num_inducing,
            "skip_connection": self.skip_connection,
            "num_train_samples": self.num_train_samples,
            "num_test_samples": self.num_test_samples,
            "objective": self.objective_spec.kind,
            "beta_reg": self.objective_spec.beta_reg,
            "jitter": self.jitter,
            "target_shift": self.target_shift,
            "target_scale": self.target_scale,
        }
