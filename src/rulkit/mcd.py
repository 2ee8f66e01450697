"""MC-dropout multilayer perceptron baselines.

A rectifier network trained with inverted dropout: each hidden activation is
multiplied by a Bernoulli(p) mask divided by the keep probability p, so the
masked pass is unbiased for the maskless one. Masks carry that 1/p: a drawn
mask holds 0 for a dropped unit and 1/p for a kept one. Each hidden layer is
one ``autodiff.dense_relu`` node. The weights live only in the model's flat
parameter vector; training builds the graph below on a trainable view of it
and prediction on a constant one. Training minimizes

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

The T passes run in contiguous blocks on one thread per usable CPU
(``parallel.run_indexed``; numpy's matmuls, ufuncs and uniform draws release
the GIL) once a call draws at least ``PARALLEL_MIN_UNIFORMS`` mask uniforms;
smaller calls run on the calling thread, where thread start-up and hand-offs
would cost more than they save. Inside a grid cell, usable CPUs means the
cell's share of them, so a grid that already runs a cell per CPU leaves its
cells' passes on one thread.
Pass k's masks come from a copy of the caller's stream moved on by the
k * n * sum(hidden sizes) uniforms the passes before it take
(``RngStream.ahead``), and the caller's stream ends past all T passes. Every
pass therefore sees the masks, and the prediction the bytes, of a one-thread
loop, whatever the thread count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .metrics import Predictions
from .parallel import run_indexed, usable_cpus
from .params import IDENTITY, ParamVector, ParamView, RngStream, value_and_grad
from .svgp import input_rows

NOISE_FLOOR = 1e-8
# Fewest mask uniforms (T * n * sum of hidden sizes) for which a prediction
# spreads its passes over threads. Starting, waking and joining threads and
# handing the GIL between them costs milliseconds on a small VM; below this
# the one-thread loop is faster (on a 2-vCPU x86-64 VM, 10^7 uniforms are
# 0.1-0.3 s of passes, depending on the layer sizes).
PARALLEL_MIN_UNIFORMS = 10_000_000


def sample_mask(keep_prob: float, hidden_sizes, n: int, rng: RngStream) -> list:
    """Fresh masks for every hidden unit of an n-row batch, one (n, h) array
    per hidden layer: 1/keep_prob where a Bernoulli(keep_prob) draw keeps the
    unit, 0 where it drops it."""
    return draw_masks(keep_prob, [np.empty((n, h)) for h in hidden_sizes], rng)


def draw_masks(keep_prob: float, masks: list, rng: RngStream) -> list:
    """Overwrite each (n, h) array of ``masks`` in turn with the masks
    ``sample_mask`` would draw from ``rng``, and return the list."""
    for m in masks:
        rng.random(out=m)
        np.multiply(m < keep_prob, 1.0 / keep_prob, out=m)
    return masks


def _forward_graph(weights, biases, x: Tensor, masks, heteroscedastic: bool):
    """Shared forward pass; weights/biases/x are Tensors, masks a list of
    pre-scaled numpy arrays (one per hidden layer) or None."""
    h = x
    for i in range(len(weights) - 1):
        mask = None if masks is None else masks[i]
        h = ad.dense_relu(h, weights[i], biases[i], mask)
    out = h @ weights[-1] + biases[-1]
    mean = out[:, 0]
    if heteroscedastic:
        return mean, ad.clamp_min(ad.exp(out[:, 1]), NOISE_FLOOR)
    return mean, None


def _loss_graph(
    weights, biases, x, y, masks, heteroscedastic: bool, weight_decay: float
) -> Tensor:
    mean, noise = _forward_graph(weights, biases, x, masks, heteroscedastic)
    if heteroscedastic:
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
    """Trainable dropout network over a flat parameter vector.

    ``point_baseline=True`` turns the trained net into the deterministic FFNN
    variant: dropout still regularizes training, prediction is the maskless
    pass with no predictive distribution.
    """

    kind = "mcd"

    def __init__(
        self,
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
        if not 0.0 < keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
        if not heteroscedastic and not noise_variance > 0.0:
            raise ValueError(
                f"noise_variance must be positive for a homoscedastic net, got {noise_variance}"
            )
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
        self.params = ParamVector()
        for i, shape in enumerate(self._shapes()):
            self.params.register(f"w{i}", shape, IDENTITY)
            self.params.register(f"b{i}", (shape[1],), IDENTITY)

    def _shapes(self):
        sizes = [self.input_dim] + [self.hidden_units] * self.hidden_layers
        sizes.append(2 if self.heteroscedastic else 1)
        return [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]

    def init_from_data(self, X: np.ndarray, rng: RngStream):
        """He-initialized hidden weights and a small output layer drawn from
        ``rng``, with the noise head starting at log 0.25 in standardized
        space; the sizes alone set the scales, so X is not read."""
        shapes = self._shapes()
        for i, (fan_in, fan_out) in enumerate(shapes):
            last = i == len(shapes) - 1
            sd = 0.01 if last else np.sqrt(2.0 / fan_in)
            self.params.set_value(f"w{i}", sd * rng.normal(size=(fan_in, fan_out)))
            if last and self.heteroscedastic:
                self.params.set_value(f"b{i}", np.array([0.0, np.log(0.25)]))

    # -- graph builders --------------------------------------------------------------

    def _layers(self, view: ParamView):
        n = len(self._shapes())
        return [view.get(f"w{i}") for i in range(n)], [view.get(f"b{i}") for i in range(n)]

    def _masks(self, n: int, rng: RngStream):
        return sample_mask(self.keep_prob, [self.hidden_units] * self.hidden_layers, n, rng)

    def _build(self, view: ParamView, X, y, masks) -> Tensor:
        wts, bts = self._layers(view)
        return _loss_graph(
            wts,
            bts,
            ad.constant(X),
            ad.constant((y - self.target_shift) / self.target_scale),
            masks,
            self.heteroscedastic,
            self.weight_decay,
        )

    # -- training and prediction -----------------------------------------------------

    def objective_grad(self, X, y, scale: float = 1.0, rng: Optional[RngStream] = None) -> float:
        """Batch-mean training loss (scale is irrelevant for a mean and ignored)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if rng is None:
            rng = RngStream(0)
        masks = self._masks(X.shape[0], rng) if self.keep_prob < 1.0 else None
        return value_and_grad(self.params, lambda view: self._build(view, X, y, masks))

    def predictive(self, X, rng: Optional[RngStream] = None) -> Predictions:
        """Gaussians from MC moments per row of X, or point estimates for the
        point baseline, in natural target units. Large calls run the MC
        passes on ``min(T, usable_cpus())`` threads; see the module docstring."""
        X = input_rows(X, self.input_dim)
        wts, bts = self._layers(ParamView(self.params, trainable=False))
        x = ad.constant(X)
        s = self.target_scale
        if self.point_baseline:
            mean, _ = _forward_graph(wts, bts, x, None, self.heteroscedastic)
            return Predictions.point(mean.data * s + self.target_shift)
        if rng is None:
            rng = RngStream(0)
        n = X.shape[0]
        t = self.test_samples
        per_pass = n * self.hidden_units * self.hidden_layers  # uniforms one pass's masks take
        draws = np.empty((t, n))
        taus = np.empty((t, n))

        def run(passes: range, masks: list):
            # pass k draws its masks from where the sequential loop would
            stream = rng.ahead(passes.start * per_pass)
            for k in passes:
                draw_masks(self.keep_prob, masks, stream)
                f, tau = _forward_graph(wts, bts, x, masks, self.heteroscedastic)
                draws[k] = f.data
                taus[k] = tau.data if tau is not None else self.noise_variance

        workers = max(1, min(t, usable_cpus())) if t * per_pass >= PARALLEL_MIN_UNIFORMS else 1
        blocks = [range(t * w // workers, t * (w + 1) // workers) for w in range(workers)]
        # Each block's mask arrays are allocated here and refilled every pass,
        # so the helper threads allocate as little as they can (their malloc
        # arenas keep their high-water marks; see rulkit.parallel).
        buffers = [[np.empty((n, self.hidden_units)) for _ in range(self.hidden_layers)]
                   for _ in blocks]
        run_indexed(lambda k: run(blocks[k], buffers[k]), workers, workers)
        rng.skip(t * per_pass)
        mean = draws.mean(axis=0)
        var = taus.mean(axis=0) + np.mean((draws - mean) ** 2, axis=0)
        return Predictions.gaussian(
            mean * s + self.target_shift, np.maximum(var, NOISE_FLOOR) * s * s
        )

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
