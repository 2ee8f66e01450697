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
from .mathcore import Kernel
# unused here, but the benchmark's span timer rebinds this module's name
from .mathcore import cholesky_jittered  # noqa: F401
from .metrics import Predictions
from .params import IDENTITY, POSITIVE, CholeskyFactor, ParamVector, ParamView, RngStream, value_and_grad
from .svgp import (
    DEFAULT_JITTER,
    LayerTensors,
    LikelihoodParams,
    ObjectiveSpec,
    VariationalGPLayer,
    gaussian_loglik_graph,
    init_inducing,
    kl_graph,
    latent_graph,
    layer_from_view,
)

_PREDICT_CHUNK = 512


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
            mu, var = latent_graph(lt, stacked, jitter)
            kls.append(kl_graph(lt))
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
    mu, var = latent_graph(out_lt, stacked, jitter)
    kl = kl_graph(out_lt)
    if shared:
        return [mu], [var], kl
    mus = [mu[t * n : (t + 1) * n] for t in range(len(streams))]
    vars_ = [var[t * n : (t + 1) * n] for t in range(len(streams))]
    return mus, vars_, kl


def deep_objective_graph(
    hidden_groups,
    out_lt: LayerTensors,
    obs_variance: Tensor,
    spec: ObjectiveSpec,
    x: Tensor,
    y: Tensor,
    scale: float,
    multipliers,
    log_weights,
    skip: bool,
    jitter: float,
) -> Tensor:
    """Negated deep bound on a batch.

    ``log_weights`` is None for equal-weight MC components (log 1/T handled in
    closed form) or a Tensor of per-component log weights (sigma points).
    """
    streams, kls = propagate_components(hidden_groups, x, multipliers, skip, jitter)
    mus, vars_, out_kl = output_components(out_lt, streams, jitter)
    kl_total = out_kl
    for k in kls:
        kl_total = kl_total + k
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
        params: ParamVector,
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
        if depth < 0 or depth > 3:
            raise ValueError("supported hidden depth is 0 to 3")
        if depth > 0 and width < 1:
            raise ValueError("hidden layers need width >= 1")
        self.params = params
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
    def _register(cls, params: ParamVector, model: "DeepGPModel"):
        hidden_dims, out_dim = model._layer_dims()
        m = model.num_inducing
        hidden_prefixes, out_prefix = model._prefixes()
        for l, group in enumerate(hidden_prefixes):
            for prefix in group:
                cls._register_gp(params, prefix, m, hidden_dims[l])
        cls._register_gp(params, out_prefix, m, out_dim)
        params.register("obs_variance", (), POSITIVE, init=0.25)

    @staticmethod
    def _register_gp(params: ParamVector, prefix: str, m: int, dim: int):
        params.register(f"{prefix}.z", (m, dim), IDENTITY)
        params.register(f"{prefix}.m", (m,), IDENTITY)
        # q(v) starts at the whitened prior N(0, I)
        params.register(f"{prefix}.L", (m, m), CholeskyFactor(m), init=np.eye(m))
        params.register(f"{prefix}.kernel_variance", (), POSITIVE, init=1.0)
        params.register(f"{prefix}.lengthscales", (dim,), POSITIVE, init=np.ones(dim))

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
        params = ParamVector()
        model = cls(
            params,
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
        cls._register(params, model)
        params.set_value("obs_variance", obs_variance_init)
        cls._init_structure(model, X, rng, inducing_strategy)
        return model

    @classmethod
    def _init_structure(
        cls,
        model: "DeepGPModel",
        X: np.ndarray,
        rng: RngStream,
        inducing_strategy: str = "random-subset",
    ):
        """Data-dependent initialization of every GP's inducing set.

        First hidden layer anchors on a data subset; deeper layers and the
        output layer see sampled prior activations in the hidden coordinates
        plus the same subset in the skip block.
        """
        params = model.params
        subset = init_inducing(X, model.num_inducing, inducing_strategy, rng.derive(0))
        hidden_prefixes, out_prefix = model._prefixes()
        draw = rng.derive(1)
        for l, group in enumerate(hidden_prefixes):
            for prefix in group:
                z = subset if l == 0 else cls._lifted(subset, model, draw)
                params.set_value(f"{prefix}.z", z)
        z_out = subset if model.depth == 0 else cls._lifted(subset, model, draw)
        params.set_value(f"{out_prefix}.z", z_out)

    @staticmethod
    def _lifted(subset: np.ndarray, model: "DeepGPModel", rng: RngStream) -> np.ndarray:
        g = rng.normal(size=(subset.shape[0], model.width))
        return np.hstack([g, subset]) if model.skip_connection else g

    # -- decoded views ------------------------------------------------------

    def _decode_gp(self, prefix: str) -> VariationalGPLayer:
        p = self.params
        return VariationalGPLayer(
            inducing_points=p.decode(f"{prefix}.z"),
            variational_mean=p.decode(f"{prefix}.m"),
            variational_cov_factor=p.decode(f"{prefix}.L"),
            kernel=Kernel(
                p.decode(f"{prefix}.kernel_variance"), p.decode(f"{prefix}.lengthscales")
            ),
        )

    @property
    def hidden_layers(self) -> list[list[VariationalGPLayer]]:
        groups, _ = self._prefixes()
        return [[self._decode_gp(pref) for pref in group] for group in groups]

    @property
    def output_layer(self) -> VariationalGPLayer:
        return self._decode_gp("out")

    def likelihood(self) -> LikelihoodParams:
        return LikelihoodParams(self.params.decode("obs_variance"))

    # -- graph plumbing -------------------------------------------------------

    def _groups_from_view(self, view: ParamView):
        hidden_prefixes, out_prefix = self._prefixes()
        groups = [[layer_from_view(view, pref) for pref in group] for group in hidden_prefixes]
        return groups, layer_from_view(view, out_prefix)

    def _multipliers_from_eps(self, eps: np.ndarray):
        """Slice a (T, n, total_width) draw block into per-GP columns."""
        return [
            [
                [eps[t, :, l * self.width + w] for w in range(self.width)]
                for l in range(self.depth)
            ]
            for t in range(eps.shape[0])
        ]

    def _draw_eps(self, n: int, samples: int, rng: Optional[RngStream]) -> np.ndarray:
        if self.depth == 0:
            # no hidden stochasticity: one exact component
            return np.zeros((1, n, 0))
        if rng is None:
            rng = RngStream(0)
        return rng.normal(size=(samples, n, self.depth * self.width))

    def _build(self, view: ParamView, X, y, scale: float, eps: np.ndarray) -> Tensor:
        groups, out_lt = self._groups_from_view(view)
        return deep_objective_graph(
            groups,
            out_lt,
            view.get("obs_variance"),
            self.objective_spec,
            ad.constant(X),
            ad.constant((y - self.target_shift) / self.target_scale),
            scale,
            self._multipliers_from_eps(eps),
            None,
            self.skip_connection,
            self.jitter,
        )

    def objective_grad(self, X, y, scale: float = 1.0, rng: Optional[RngStream] = None) -> float:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        eps = self._draw_eps(X.shape[0], self.num_train_samples, rng)
        return value_and_grad(self.params, lambda view: self._build(view, X, y, scale, eps))

    def loss_fn(self, X, y, scale: float = 1.0, rng_seed: int = 0):
        """Frozen-draw objective closure for finite-difference checking."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        eps = self._draw_eps(X.shape[0], self.num_train_samples, RngStream(rng_seed))
        return lambda params: value_and_grad(
            params, lambda view: self._build(view, X, y, scale, eps)
        )

    # -- prediction -------------------------------------------------------------

    def predictive(self, X, rng: Optional[RngStream] = None) -> Predictions:
        """Equal-weight Gaussian mixture over sampled forward passes per row of
        X, in natural target units."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        obs = self.likelihood().obs_variance
        s = self.target_scale
        if rng is None:
            rng = RngStream(0)
        means, variances = [], []
        for start in range(0, X.shape[0], _PREDICT_CHUNK):
            block = X[start : start + _PREDICT_CHUNK]
            mu, var = forward_sample(self, block, rng=rng, samples=self.num_test_samples)
            means.append((mu * s + self.target_shift).T)
            variances.append(((var + obs) * s * s).T)
        t = means[0].shape[1]
        return Predictions.mixture(
            np.full(t, 1.0 / t), np.concatenate(means), np.concatenate(variances)
        )

    # -- checkpoint support --------------------------------------------------------

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

    def state_arrays(self) -> dict:
        return {"theta": self.params.values.copy()}

    @classmethod
    def from_state(cls, config: dict, arrays: dict) -> "DeepGPModel":
        params = ParamVector()
        model = cls(
            params,
            ObjectiveSpec(config["objective"], config["beta_reg"]),
            config["input_dim"],
            config["width"],
            config["depth"],
            config["num_inducing"],
            config["skip_connection"],
            config["num_train_samples"],
            config["num_test_samples"],
            config["jitter"],
            config["target_shift"],
            config["target_scale"],
        )
        cls._register(params, model)
        svgp._load_theta(params, arrays)
        return model


# -- functional API ------------------------------------------------------------------


def forward_sample(
    model: DeepGPModel,
    X: np.ndarray,
    rng: Optional[RngStream] = None,
    samples: Optional[int] = None,
    eps: Optional[np.ndarray] = None,
):
    """Sampled output-layer latent moments, shape (T, n) each.

    ``eps`` fixes the hidden standard-normal draws explicitly, e.g. zeros for
    mean propagation; otherwise ``samples`` draws come from ``rng``. Moments
    are in the model's standardized target space.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if eps is None:
        eps = model._draw_eps(n, samples or model.num_train_samples, rng)
    else:
        eps = np.asarray(eps, dtype=np.float64)
        expected = (eps.shape[0], n, model.depth * model.width)
        if eps.shape != expected:
            raise ValueError(f"eps has shape {eps.shape}, expected {expected}")
    groups = [[svgp.layer_constants(gp) for gp in group] for group in model.hidden_layers]
    out_lt = svgp.layer_constants(model.output_layer)
    streams, _ = propagate_components(
        groups, ad.constant(X), model._multipliers_from_eps(eps), model.skip_connection, model.jitter
    )
    mus, vars_, _ = output_components(out_lt, streams, model.jitter)
    t = eps.shape[0]
    if len(mus) == 1 and t > 1:
        mus = mus * t
        vars_ = vars_ * t
    return (
        np.stack([m.data for m in mus], axis=0),
        np.stack([v.data for v in vars_], axis=0),
    )


def objective(
    model: DeepGPModel,
    X: np.ndarray,
    y: np.ndarray,
    scale: float = 1.0,
    spec: Optional[ObjectiveSpec] = None,
    rng: Optional[RngStream] = None,
    eps: Optional[np.ndarray] = None,
) -> float:
    """Value of the negated deep bound on a batch (no gradient)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if eps is None:
        eps = model._draw_eps(X.shape[0], model.num_train_samples, rng)
    groups = [[svgp.layer_constants(gp) for gp in group] for group in model.hidden_layers]
    out_lt = svgp.layer_constants(model.output_layer)
    loss = deep_objective_graph(
        groups,
        out_lt,
        ad.constant(model.likelihood().obs_variance),
        spec or model.objective_spec,
        ad.constant(X),
        ad.constant((y - model.target_shift) / model.target_scale),
        scale,
        model._multipliers_from_eps(np.asarray(eps, dtype=np.float64)),
        None,
        model.skip_connection,
        model.jitter,
    )
    return float(loss.data)
