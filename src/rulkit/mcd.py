"""MC-dropout multilayer perceptron baselines.

A rectifier MLP trained with inverted dropout: each hidden activation is
multiplied by a Bernoulli(p) mask divided by the keep probability p, so the
masked pass is unbiased for the maskless one. Masks carry that 1/p: a drawn
mask holds 0 for a dropped unit and 1/p for a kept one. Each hidden layer is
one ``autodiff.dense_relu`` node. Training minimizes

    1/N sum_i E(y_i, f(x_i)) + lambda_wd sum_l ||W_l||^2

where E is the squared error for homoscedastic nets and the per-point
Gaussian NLL with a learned input-dependent noise head for heteroscedastic
ones (the head emits log noise variance, exponentiated with a 1e-8 floor).
Keeping dropout active at test time and averaging T passes gives the
predictive moments

    mean = 1/T sum_t f_t(x)
    var  = 1/T sum_t tau^{-1}_t(x) + 1/T sum_t f_t(x)^2 - mean^2.

With p = 1 the mask is a no-op and the epistemic part collapses to zero. The
same class doubles as the deterministic FFNN baseline: train with dropout,
predict with the maskless pass and no noise model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .metrics import Predictions
from .params import IDENTITY, ParamVector, ParamView, RngStream, value_and_grad

NOISE_FLOOR = 1e-8


@dataclass
class MLP:
    """Decoded network: per-layer (weights, bias), plus dropout and noise config."""

    weights: list
    biases: list
    keep_prob: float
    heteroscedastic: bool
    noise_variance: float = 1.0

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or len(self.weights) < 1:
            raise ValueError("need matching weight/bias lists with at least the output layer")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep probability must be in (0, 1], got {self.keep_prob}")
        if not self.heteroscedastic and self.noise_variance <= 0.0:
            raise ValueError("homoscedastic nets need a positive noise variance")

    @property
    def num_hidden(self) -> int:
        return len(self.weights) - 1

    @property
    def hidden_sizes(self) -> list[int]:
        return [w.shape[1] for w in self.weights[:-1]]


@dataclass
class DropoutMask:
    """Per-hidden-layer inverted-dropout multipliers in {0, 1/p}; row-shaped
    to the batch they apply to."""

    layer_masks: list


def sample_mask(net: MLP, n: int, rng: RngStream) -> DropoutMask:
    """Fresh masks for every hidden unit of an n-row batch: 1/keep_prob where
    a Bernoulli(keep_prob) draw keeps the unit, 0 where it drops it."""
    p = net.keep_prob
    return DropoutMask([(rng.random((n, h)) < p) * (1.0 / p) for h in net.hidden_sizes])


def _forward_graph(weights, biases, x: Tensor, masks, heteroscedastic: bool):
    """Shared forward pass; weights/biases/x are Tensors, masks a
    ``DropoutMask`` of pre-scaled numpy arrays or None."""
    h = x
    for i in range(len(weights) - 1):
        mask = None if masks is None else masks.layer_masks[i]
        h = ad.dense_relu(h, weights[i], biases[i], mask)
    out = h @ weights[-1] + biases[-1]
    mean = out[:, 0]
    if heteroscedastic:
        return mean, ad.clamp_min(ad.exp(out[:, 1]), NOISE_FLOOR)
    return mean, None


def forward(net: MLP, x: np.ndarray, mask: Optional[DropoutMask] = None):
    """Prediction (and noise variance when heteroscedastic) for x.

    Accepts a single point (d,) or a batch (n, d); the mask, when given, must
    be row-shaped to match. ``mask=None`` is the deterministic maskless pass.
    """
    single = np.asarray(x).ndim == 1
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    wts = [ad.constant(w) for w in net.weights]
    bts = [ad.constant(b) for b in net.biases]
    masks = None
    if mask is not None:
        masks = DropoutMask([np.atleast_2d(m) for m in mask.layer_masks])
    mean, noise = _forward_graph(wts, bts, ad.constant(xb), masks, net.heteroscedastic)
    mean = mean.data
    noise = noise.data if noise is not None else None
    if single:
        return float(mean[0]), (float(noise[0]) if noise is not None else None)
    return mean, noise


def loss(net: MLP, X: np.ndarray, y: np.ndarray, weight_decay: float, rng: RngStream) -> float:
    """Training loss on a batch with fresh masks (no gradient)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    masks = sample_mask(net, X.shape[0], rng) if net.keep_prob < 1.0 else None
    wts = [ad.constant(w) for w in net.weights]
    bts = [ad.constant(b) for b in net.biases]
    value = _loss_graph(wts, bts, ad.constant(X), ad.constant(y), masks, net, weight_decay)
    return float(value.data)


def _loss_graph(weights, biases, x, y, masks, net_cfg, weight_decay: float) -> Tensor:
    mean, noise = _forward_graph(weights, biases, x, masks, net_cfg.heteroscedastic)
    if net_cfg.heteroscedastic:
        resid = y - mean
        fit = ((ad.log(noise) + resid * resid / noise + np.log(2.0 * np.pi)) * 0.5).mean()
    else:
        resid = y - mean
        fit = (resid * resid).mean()
    penalty = None
    for w in weights:
        term = (w * w).sum()
        penalty = term if penalty is None else penalty + term
    return fit + penalty * weight_decay


class MCDModel:
    """Trainable dropout MLP over a flat parameter vector.

    ``point_baseline=True`` turns the trained net into the deterministic FFNN
    variant: dropout still regularizes training, prediction is the maskless
    pass with no predictive distribution.
    """

    kind = "mcd"

    def __init__(
        self,
        params: ParamVector,
        input_dim: int,
        hidden_layers: int,
        hidden_units: int,
        keep_prob: float,
        heteroscedastic: bool = True,
        noise_variance: float = 1.0,
        weight_decay: float = 1e-6,
        test_samples: int = 128,
        point_baseline: bool = False,
        target_shift: float = 0.0,
        target_scale: float = 1.0,
    ):
        if hidden_layers < 1:
            raise ValueError("need at least one hidden layer")
        if point_baseline and heteroscedastic:
            raise ValueError("the point baseline has no noise head")
        self.params = params
        self.input_dim = int(input_dim)
        self.hidden_layers = int(hidden_layers)
        self.hidden_units = int(hidden_units)
        self.keep_prob = float(keep_prob)
        self.heteroscedastic = bool(heteroscedastic)
        self.noise_variance = float(noise_variance)
        self.weight_decay = float(weight_decay)
        self.test_samples = int(test_samples)
        self.point_baseline = bool(point_baseline)
        self.target_shift = float(target_shift)
        self.target_scale = float(target_scale)

    def _shapes(self):
        sizes = [self.input_dim] + [self.hidden_units] * self.hidden_layers
        sizes.append(2 if self.heteroscedastic else 1)
        return [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]

    @classmethod
    def _register(cls, params: ParamVector, model: "MCDModel"):
        for i, shape in enumerate(model._shapes()):
            params.register(f"w{i}", shape, IDENTITY)
            params.register(f"b{i}", (shape[1],), IDENTITY)

    @classmethod
    def create(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        *,
        hidden_layers: int = 5,
        hidden_units: int = 200,
        keep_prob: float = 0.4642,
        heteroscedastic: bool = True,
        noise_variance: float = 1.0,
        weight_decay: float = 1e-6,
        test_samples: int = 128,
        point_baseline: bool = False,
        rng: Optional[RngStream] = None,
        standardize_targets: bool = True,
    ) -> "MCDModel":
        from .svgp import _target_stats

        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if rng is None:
            rng = RngStream(0)
        shift, scale = _target_stats(y, standardize_targets)
        params = ParamVector()
        model = cls(
            params,
            X.shape[1],
            hidden_layers,
            hidden_units,
            keep_prob,
            heteroscedastic,
            noise_variance,
            weight_decay,
            test_samples,
            point_baseline,
            shift,
            scale,
        )
        cls._register(params, model)
        shapes = model._shapes()
        for i, (fan_in, fan_out) in enumerate(shapes):
            last = i == len(shapes) - 1
            sd = 0.01 if last else np.sqrt(2.0 / fan_in)
            params.set_value(f"w{i}", sd * rng.normal(size=(fan_in, fan_out)))
            if last and heteroscedastic:
                # start the noise head at log 0.25 in standardized space
                params.set_value(f"b{i}", np.array([0.0, np.log(0.25)]))
        return model

    # -- decoded views ---------------------------------------------------------

    def net(self) -> MLP:
        n = len(self._shapes())
        return MLP(
            weights=[self.params.decode(f"w{i}") for i in range(n)],
            biases=[self.params.decode(f"b{i}") for i in range(n)],
            keep_prob=self.keep_prob,
            heteroscedastic=self.heteroscedastic,
            noise_variance=self.noise_variance,
        )

    # -- training ------------------------------------------------------------------

    def _build(self, view: ParamView, X, y, masks) -> Tensor:
        n = len(self._shapes())
        wts = [view.get(f"w{i}") for i in range(n)]
        bts = [view.get(f"b{i}") for i in range(n)]
        return _loss_graph(
            wts,
            bts,
            ad.constant(X),
            ad.constant((y - self.target_shift) / self.target_scale),
            masks,
            self,
            self.weight_decay,
        )

    def objective_grad(self, X, y, scale: float = 1.0, rng: Optional[RngStream] = None) -> float:
        """Batch-mean training loss (scale is irrelevant for a mean and ignored)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if rng is None:
            rng = RngStream(0)
        masks = sample_mask(self.net(), X.shape[0], rng) if self.keep_prob < 1.0 else None
        return value_and_grad(self.params, lambda view: self._build(view, X, y, masks))

    def loss_fn(self, X, y, scale: float = 1.0, rng_seed: int = 0):
        """Frozen-mask objective closure for finite-difference checking."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        masks = (
            sample_mask(self.net(), X.shape[0], RngStream(rng_seed))
            if self.keep_prob < 1.0
            else None
        )
        return lambda params: value_and_grad(params, lambda view: self._build(view, X, y, masks))

    # -- prediction ----------------------------------------------------------------

    def predictive(self, X, rng: Optional[RngStream] = None) -> Predictions:
        """Gaussians from MC moments per row of X, or point estimates for the
        point baseline, in natural target units."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of shape (n, {self.input_dim}), got {X.shape}")
        net = self.net()
        s = self.target_scale
        if self.point_baseline:
            mean, _ = forward(net, X)
            return Predictions.point(mean * s + self.target_shift)
        if rng is None:
            rng = RngStream(0)
        n = X.shape[0]
        t = self.test_samples
        draws = np.zeros((t, n))
        taus = np.zeros((t, n))
        for k in range(t):
            mask = sample_mask(net, n, rng)
            f, tau = forward(net, X, mask)
            draws[k] = f
            taus[k] = tau if tau is not None else net.noise_variance
        mean = draws.mean(axis=0)
        var = taus.mean(axis=0) + np.mean((draws - mean) ** 2, axis=0)
        return Predictions.gaussian(
            mean * s + self.target_shift, np.maximum(var, NOISE_FLOOR) * s * s
        )

    # -- checkpoint support -----------------------------------------------------------

    def config_dict(self) -> dict:
        return {
            "kind": "ffnn" if self.point_baseline else "mcd",
            "input_dim": self.input_dim,
            "hidden_layers": self.hidden_layers,
            "hidden_units": self.hidden_units,
            "keep_prob": self.keep_prob,
            "heteroscedastic": self.heteroscedastic,
            "noise_variance": self.noise_variance,
            "weight_decay": self.weight_decay,
            "test_samples": self.test_samples,
            "target_shift": self.target_shift,
            "target_scale": self.target_scale,
        }

    def state_arrays(self) -> dict:
        return {"theta": self.params.values.copy()}

    @classmethod
    def from_state(cls, config: dict, arrays: dict) -> "MCDModel":
        from .svgp import _load_theta

        params = ParamVector()
        model = cls(
            params,
            config["input_dim"],
            config["hidden_layers"],
            config["hidden_units"],
            config["keep_prob"],
            config["heteroscedastic"],
            config["noise_variance"],
            config["weight_decay"],
            config["test_samples"],
            config["kind"] == "ffnn",
            config["target_shift"],
            config["target_scale"],
        )
        cls._register(params, model)
        _load_theta(params, arrays)
        return model
