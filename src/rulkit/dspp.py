"""Deep sigma-point process regression.

Same layer stack as the deep GP, but the hidden integral is carried by a
small set of learnable quadrature sites instead of Monte-Carlo draws: hidden
activations for component s are mu + xi_w^(s) * sigma (one shared component
index across every hidden GP), weighted by a learnable simplex. Sites start
at the Gauss-Hermite nodes, log-weights at the Gauss-Hermite log-weights.
Both the objective and the predictive distribution are deterministic finite
mixtures, so training needs no sampling and two runs agree bit for bit.

Objective per point: log sum_s omega_s N(y_i | mu_f^(s), s2_f^(s) + s2_obs),
summed with the minibatch scale, minus beta_reg times the summed KL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import svgp
from .autodiff import Tensor
from .dgp import (
    DeepGPModel,
    deep_objective_graph,
    output_components,
    propagate_components,
)
from .mathcore import gauss_hermite
from .metrics import Predictions
from .params import IDENTITY, SIMPLEX, ParamVector, ParamView, RngStream, value_and_grad
from .svgp import DEFAULT_JITTER, ObjectiveSpec

_PREDICT_CHUNK = 2048


@dataclass
class SigmaPointSet:
    """Learnable quadrature: logits over components and per-GP sites."""

    logits: np.ndarray
    sites: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        self.sites = np.atleast_2d(np.asarray(self.sites, dtype=np.float64))
        if self.logits.ndim != 1 or self.sites.shape[0] != self.logits.shape[0]:
            raise ValueError("need one row of sites per logit")

    @property
    def num_components(self) -> int:
        return self.logits.shape[0]

    @property
    def weights(self) -> np.ndarray:
        e = np.exp(self.logits - self.logits.max())
        return e / e.sum()


def init_sigma_points(num_sites: int, total_width: int) -> SigmaPointSet:
    """Gauss-Hermite starting point: nodes replicated across hidden GPs."""
    rule = gauss_hermite(num_sites)
    sites = np.tile(rule.sites[:, None], (1, total_width))
    return SigmaPointSet(logits=np.log(rule.weights), sites=sites)


class DSPPModel(DeepGPModel):
    """Deep GP whose hidden integral runs over trainable sigma points."""

    kind = "dspp"

    def __init__(self, params, objective_spec, input_dim, width, depth, num_inducing,
                 num_sites: int = 15, skip_connection: bool = True,
                 jitter: float = DEFAULT_JITTER, target_shift: float = 0.0,
                 target_scale: float = 1.0):
        if depth < 1:
            raise ValueError("sigma-point models need at least one hidden layer")
        super().__init__(
            params,
            objective_spec,
            input_dim,
            width,
            depth,
            num_inducing,
            skip_connection,
            num_train_samples=num_sites,
            num_test_samples=num_sites,
            jitter=jitter,
            target_shift=target_shift,
            target_scale=target_scale,
        )
        self.num_sites = int(num_sites)

    @property
    def total_width(self) -> int:
        return self.depth * self.width

    @classmethod
    def _register(cls, params: ParamVector, model: "DSPPModel"):
        DeepGPModel._register(params, model)
        start = init_sigma_points(model.num_sites, model.total_width)
        params.register("sites", start.sites.shape, IDENTITY, init=start.sites)
        params.register("site_logits", (model.num_sites,), SIMPLEX, init=start.weights)

    @classmethod
    def create(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        *,
        width: int = 2,
        depth: int = 1,
        num_inducing: int = 100,
        num_sites: int = 15,
        objective_spec: Optional[ObjectiveSpec] = None,
        skip_connection: bool = True,
        rng: Optional[RngStream] = None,
        obs_variance_init: float = 0.25,
        standardize_targets: bool = True,
        jitter: float = DEFAULT_JITTER,
    ) -> "DSPPModel":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if rng is None:
            rng = RngStream(0)
        shift, scale = svgp._target_stats(y, standardize_targets)
        params = ParamVector()
        model = cls(
            params,
            objective_spec or ObjectiveSpec("ppgpr"),
            X.shape[1],
            width,
            depth,
            num_inducing,
            num_sites,
            skip_connection,
            jitter,
            shift,
            scale,
        )
        cls._register(params, model)
        params.set_value("obs_variance", obs_variance_init)
        cls._init_structure(model, X, rng)
        return model

    # -- sigma points ----------------------------------------------------------

    def sigma_points(self) -> SigmaPointSet:
        e = self.params.entry("site_logits")
        logits = self.params.values[e.offset : e.offset + e.size].copy()
        return SigmaPointSet(logits=logits, sites=self.params.decode("sites"))

    def _site_multipliers(self, view: ParamView):
        """[s][l][w] scalar Tensors pulled from the trainable site matrix."""
        sites = view.get("sites")
        return [
            [
                [sites[s, l * self.width + w] for w in range(self.width)]
                for l in range(self.depth)
            ]
            for s in range(self.num_sites)
        ]

    # -- training ----------------------------------------------------------------

    def _build_dspp(self, view: ParamView, X, y, scale: float) -> Tensor:
        if self.objective_spec.kind != "ppgpr":
            raise ValueError("sigma-point training uses the ppgpr objective")
        groups, out_lt = self._groups_from_view(view)
        log_w = view.log_simplex("site_logits")
        return deep_objective_graph(
            groups,
            out_lt,
            view.get("obs_variance"),
            self.objective_spec,
            ad.constant(X),
            ad.constant((y - self.target_shift) / self.target_scale),
            scale,
            self._site_multipliers(view),
            log_w,
            self.skip_connection,
            self.jitter,
        )

    def objective_grad(self, X, y, scale: float = 1.0, rng=None) -> float:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        return value_and_grad(self.params, lambda view: self._build_dspp(view, X, y, scale))

    def loss_fn(self, X, y, scale: float = 1.0, rng_seed: int = 0):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        return lambda params: value_and_grad(
            params, lambda view: self._build_dspp(view, X, y, scale)
        )

    # -- prediction ----------------------------------------------------------------

    def predictive(self, X, rng=None) -> Predictions:
        """Deterministic mixture over sigma points per row of X, in natural
        target units."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        obs = self.likelihood().obs_variance
        s = self.target_scale
        means, variances = [], []
        for start in range(0, X.shape[0], _PREDICT_CHUNK):
            mu, var = self._component_moments(X[start : start + _PREDICT_CHUNK])
            means.append((mu * s + self.target_shift).T)
            variances.append(((var + obs) * s * s).T)
        return Predictions.mixture(
            self.sigma_points().weights, np.concatenate(means), np.concatenate(variances)
        )

    def _component_moments(self, X: np.ndarray):
        """Output-layer latent moments per sigma point, shapes (S, n)."""
        theta = ad.constant(self.params.values)
        view = ParamView(self.params, theta)
        groups, out_lt = self._groups_from_view(view)
        streams, _ = propagate_components(
            groups, ad.constant(X), self._site_multipliers(view), self.skip_connection, self.jitter
        )
        mus, vars_, _ = output_components(out_lt, streams, self.jitter)
        return (
            np.stack([m.data for m in mus], axis=0),
            np.stack([v.data for v in vars_], axis=0),
        )

    # -- checkpoint support -----------------------------------------------------------

    def config_dict(self) -> dict:
        cfg = super().config_dict()
        cfg["num_sites"] = self.num_sites
        return cfg

    @classmethod
    def from_state(cls, config: dict, arrays: dict) -> "DSPPModel":
        params = ParamVector()
        model = cls(
            params,
            ObjectiveSpec(config["objective"], config["beta_reg"]),
            config["input_dim"],
            config["width"],
            config["depth"],
            config["num_inducing"],
            config["num_sites"],
            config["skip_connection"],
            config["jitter"],
            config["target_shift"],
            config["target_scale"],
        )
        cls._register(params, model)
        svgp._load_theta(params, arrays)
        return model


def objective(model: DSPPModel, X, y, scale: float = 1.0) -> float:
    """Value of the negated sigma-point bound on a batch (no gradient)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    theta = ad.constant(model.params.values)
    view = ParamView(model.params, theta)
    return float(model._build_dspp(view, X, y, scale).data)
