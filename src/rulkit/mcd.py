"""MC-dropout multilayer perceptron baselines.

A rectifier network trained with inverted dropout: each hidden activation is
multiplied by a Bernoulli(p) mask divided by the keep probability p, so the
masked pass is unbiased for the maskless one. A drawn mask is boolean, True
for a kept unit, and a layer applies it in place as ``*= keep`` and then
``*= 1/p``. Each hidden layer is one ``autodiff.dense_relu`` node. The
weights live only in the model's flat parameter vector; training builds the
graph below on a trainable view of it, and prediction runs the same layers
on the arrays (``autodiff.dense_relu_forward``). Training minimizes

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

Training and prediction draw every mask with ``draw_masks``. The T passes
run in contiguous blocks on one thread per usable CPU (``run_indexed``;
numpy's matmuls, ufuncs and uniform draws release the GIL) once a call draws
at least ``PARALLEL_MIN_UNIFORMS`` mask uniforms; a smaller call is one
block, run on the calling thread, where thread start-up and hand-offs
would cost more than they save. Inside a grid cell, usable CPUs means the
cell's share of them, so a grid that already runs a cell per CPU leaves its
cells' passes on one thread.
Pass k's masks come from a copy of the caller's stream moved on by the
k * n * sum(hidden sizes) uniforms the passes before it take
(``RngStream.ahead``), and the caller's stream ends past all T passes. Every
pass therefore sees the masks, and the prediction the bytes, of a one-thread
loop, whatever the thread count. The first hidden layer's activations come
before its mask, so a prediction computes them once and each pass masks a
copy; each block of passes refills its own buffers, so passes allocate
nothing. The point baseline and p = 1 run the same loop over one pass
instead of T, with no masks: that maskless pass is the point baseline's
prediction, and with p = 1, where every mask keeps every unit, it stands
for all T.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .metrics import Predictions
from .parallel import run_indexed, usable_cpus
from .params import IDENTITY, ParamVector, ParamView, RngStream, value_and_grad
from .svgp import gaussian_loglik_graph, input_rows, training_rows

NOISE_FLOOR = 1e-8
# Fewest mask uniforms (T * n * sum of hidden sizes) for which a prediction
# spreads its passes over threads. Starting, waking and joining threads and
# handing the GIL between them costs milliseconds on a small VM; below this
# the one-thread loop is faster (on a 2-vCPU x86-64 VM, 10^7 uniforms are
# 0.1-0.3 s of passes, depending on the layer sizes).
PARALLEL_MIN_UNIFORMS = 10_000_000


def draw_masks(keep_prob: float, keeps: list, rng: RngStream, uniforms: np.ndarray) -> list:
    """Overwrite each boolean array of ``keeps`` in turn with ``u < keep_prob``
    for fresh uniforms u from ``rng``, drawn into the flat float64 scratch
    ``uniforms`` (at least as long as the largest mask), and return the list:
    True where a Bernoulli(keep_prob) draw keeps the unit."""
    for keep in keeps:
        u = uniforms[: keep.size].reshape(keep.shape)
        rng.random(out=u)
        np.less(u, keep_prob, out=keep)
    return keeps


def _forward_graph(weights, biases, x: Tensor, keeps, keep_prob: float, heteroscedastic: bool):
    """Shared forward pass; weights/biases/x are Tensors, keeps a list of
    boolean keep masks (one per hidden layer) or None."""
    h = x
    for i in range(len(weights) - 1):
        keep = None if keeps is None else keeps[i]
        h = ad.dense_relu(h, weights[i], biases[i], keep, keep_prob)
    out = h @ weights[-1] + biases[-1]
    mean = out[:, 0]
    if heteroscedastic:
        return mean, ad.clamp_min(ad.exp(out[:, 1]), NOISE_FLOOR)
    return mean, None


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

    def _masks(self, n: int, rng: RngStream) -> list:
        """Fresh keep masks for an n-row batch from ``rng``: one boolean
        (n, hidden_units) array per hidden layer."""
        keeps = [np.empty((n, self.hidden_units), dtype=bool) for _ in range(self.hidden_layers)]
        return draw_masks(self.keep_prob, keeps, rng, np.empty(n * self.hidden_units))

    def _build(self, view: ParamView, X, y, keeps) -> Tensor:
        wts, bts = self._layers(view)
        x = ad.constant(X)
        y = ad.constant((y - self.target_shift) / self.target_scale)
        mean, noise = _forward_graph(wts, bts, x, keeps, self.keep_prob, self.heteroscedastic)
        if self.heteroscedastic:
            fit = -gaussian_loglik_graph(y, mean, noise).mean()
        else:
            resid = y - mean
            fit = (resid * resid).mean()
        penalty = None
        for w in wts:
            term = (w * w).sum()
            penalty = term if penalty is None else penalty + term
        return fit + penalty * self.weight_decay

    # -- training and prediction -----------------------------------------------------

    def objective_grad(self, X, y, scale: float = 1.0, rng: Optional[RngStream] = None) -> float:
        """Batch-mean training loss (scale is irrelevant for a mean and ignored)."""
        X, y = training_rows(X, y, self.input_dim)
        if rng is None:
            rng = RngStream(0)
        keeps = self._masks(X.shape[0], rng) if self.keep_prob < 1.0 else None
        return value_and_grad(self.params, lambda view: self._build(view, X, y, keeps))

    def predictive(self, X, rng: Optional[RngStream] = None) -> Predictions:
        """Gaussians from MC moments per row of X, or point estimates for the
        point baseline, in natural target units. Large calls run the MC
        passes on ``min(T, usable_cpus())`` threads; see the module docstring."""
        X = input_rows(X, self.input_dim)
        wts, bts = self._layers(ParamView(self.params, trainable=False))
        wts, bts = [w.data for w in wts], [b.data for b in bts]
        n, h = X.shape[0], self.hidden_units
        # the first hidden layer before its mask is the same in every pass
        h0 = ad.dense_relu_forward(X, wts[0], bts[0])
        s = self.target_scale
        t = 1 if self.point_baseline else self.test_samples
        draws = np.empty((t, n))
        taus = np.empty((t, n))
        if rng is None:
            rng = RngStream(0)
        per_pass = n * h * self.hidden_layers  # uniforms one pass's masks take
        # the point baseline, and p = 1, whose masks keep every unit, take one
        # maskless pass, which p = 1 copies to all T rows
        masked = self.keep_prob < 1.0 and not self.point_baseline
        passes = t if masked else 1
        workers = max(1, min(passes, usable_cpus())) if t * per_pass >= PARALLEL_MIN_UNIFORMS else 1
        blocks = [range(passes * w // workers, passes * (w + 1) // workers) for w in range(workers)]
        # Each block's buffers are allocated here and refilled every pass, so
        # the passes allocate nothing (helper threads' malloc arenas keep
        # their high-water marks; see rulkit.parallel): its keep masks and
        # uniforms, if any, two (n, h) activation arrays the hidden layers
        # alternate between, and the output layer's (n, 1 or 2)
        buffers = [
            ([np.empty((n, h), dtype=bool) for _ in range(self.hidden_layers)] if masked else None,
             np.empty(n * h) if masked else None,
             [np.empty((n, h)), np.empty((n, h))], np.empty((n, len(bts[-1]))))
            for _ in blocks
        ]

        def run(k: int):
            # block k of passes into rows of draws and taus; pass j draws its
            # masks from where the sequential loop would
            keeps, uniforms, acts, head = buffers[k]
            stream = rng.ahead(blocks[k].start * per_pass) if masked else None
            for j in blocks[k]:
                x = h0
                if masked:
                    draw_masks(self.keep_prob, keeps, stream, uniforms)
                    x = ad.inverted_dropout(h0, keeps[0], self.keep_prob, out=acts[0])
                for i in range(1, len(wts) - 1):
                    keep = keeps[i] if masked else None
                    x = ad.dense_relu_forward(x, wts[i], bts[i], keep, self.keep_prob,
                                              out=acts[i % 2])
                np.matmul(x, wts[-1], out=head)
                head += bts[-1]
                draws[j] = head[:, 0]
                if self.heteroscedastic:
                    np.exp(head[:, 1], out=taus[j])
                    np.maximum(taus[j], NOISE_FLOOR, out=taus[j])
                else:
                    taus[j] = self.noise_variance

        run_indexed(run, workers, workers)
        if self.point_baseline:
            return Predictions.point(draws[0] * s + self.target_shift)
        draws[passes:] = draws[0]
        taus[passes:] = taus[0]
        rng.skip(t * per_pass)
        mean = draws.mean(axis=0)
        var = taus.mean(axis=0) + np.mean((draws - mean) ** 2, axis=0)
        return Predictions.gaussian(
            mean * s + self.target_shift, np.maximum(var, NOISE_FLOOR) * s * s
        )
