"""Trainable-parameter registry and optimization utilities.

All model state lives in one flat float64 vector of unconstrained values.
Named slices carry a transform (identity, positive via softplus, simplex via
softmax, packed Cholesky factor) that maps raw values to the constrained
quantity the model consumes. Objectives are callables ``f(params) -> float``
that populate ``params.grad`` with the gradient in raw coordinates; Adam,
the finite-difference checker and the training loops all speak this contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np
from scipy.special import expit as _expit

from . import autodiff as ad
from .autodiff import Tensor
from .mathcore import NumericalError


class GradientError(RuntimeError):
    """Raised when a gradient turns non-finite; names the offending slices."""


# -- transforms ---------------------------------------------------------------


class Identity:
    name = "identity"

    def raw_size(self, shape: tuple) -> int:
        return int(np.prod(shape, dtype=int)) if shape else 1

    def apply(self, t: Tensor, shape: tuple) -> Tensor:
        return ad.reshape(t, shape) if shape else ad.reshape(t, ())

    def apply_np(self, x: np.ndarray, shape: tuple) -> np.ndarray:
        return x.reshape(shape)

    def invert(self, value: np.ndarray, shape: tuple) -> np.ndarray:
        return np.asarray(value, dtype=np.float64).reshape(-1)


class Positive:
    """Softplus map to (0, inf); invert is the stable softplus inverse."""

    name = "positive"

    def raw_size(self, shape: tuple) -> int:
        return int(np.prod(shape, dtype=int)) if shape else 1

    def apply(self, t: Tensor, shape: tuple) -> Tensor:
        return ad.reshape(ad.softplus(t), shape)

    def apply_np(self, x: np.ndarray, shape: tuple) -> np.ndarray:
        return np.logaddexp(0.0, x).reshape(shape)

    def invert(self, value: np.ndarray, shape: tuple) -> np.ndarray:
        y = np.asarray(value, dtype=np.float64).reshape(-1)
        if np.any(y <= 0.0):
            raise ValueError("positive transform got a nonpositive value")
        # softplus^{-1}(y) = y + log(1 - exp(-y))
        return y + np.log1p(-np.exp(-y))


class Simplex:
    """Softmax map from logits to the probability simplex."""

    name = "simplex"

    def raw_size(self, shape: tuple) -> int:
        return int(np.prod(shape, dtype=int))

    def apply(self, t: Tensor, shape: tuple) -> Tensor:
        return ad.reshape(ad.exp(self.log_apply(t, shape)), shape)

    def log_apply(self, t: Tensor, shape: tuple) -> Tensor:
        return t - ad.logsumexp(t)

    def apply_np(self, x: np.ndarray, shape: tuple) -> np.ndarray:
        e = np.exp(x - np.max(x))
        return (e / e.sum()).reshape(shape)

    def invert(self, value: np.ndarray, shape: tuple) -> np.ndarray:
        w = np.asarray(value, dtype=np.float64).reshape(-1)
        if np.any(w <= 0.0):
            raise ValueError("simplex transform got a nonpositive weight")
        return np.log(w)


class CholeskyFactor:
    """Packed lower-triangular factor of size n with softplus-positive diagonal.

    Raw entries are laid out row-major over the lower triangle.
    """

    name = "tril"

    def __init__(self, n: int):
        self.n = int(n)
        self._rows, self._cols = np.tril_indices(self.n)
        self._diag = np.flatnonzero(self._rows == self._cols)
        # positions of the packed entries in the row-major n*n matrix
        self._flat = self._rows * self.n + self._cols

    def raw_size(self, shape: tuple) -> int:
        return self.n * (self.n + 1) // 2

    def apply(self, t: Tensor, shape: tuple) -> Tensor:
        raw = t.data

        def vjp(g):
            gp = g.take(self._flat)
            gp[self._diag] *= _expit(raw[self._diag])
            return (gp,)

        return ad.make_node(self.apply_np(raw, shape), (t,), vjp)

    def apply_np(self, x: np.ndarray, shape: tuple) -> np.ndarray:
        if x.shape != self._flat.shape:
            raise ValueError(f"packed vector must have length {self._flat.size}, got {x.shape}")
        vals = x.copy()
        vals[self._diag] = np.logaddexp(0.0, vals[self._diag])
        out = np.zeros(self.n * self.n)
        out[self._flat] = vals
        return out.reshape(self.n, self.n)

    def invert(self, value: np.ndarray, shape: tuple) -> np.ndarray:
        L = np.asarray(value, dtype=np.float64)
        if L.shape != (self.n, self.n):
            raise ValueError(f"expected a ({self.n}, {self.n}) factor, got {L.shape}")
        d = np.diag(L)
        if np.any(d <= 0.0):
            raise ValueError("factor diagonal must be positive")
        packed = L[self._rows, self._cols].copy()
        packed[self._diag] = d + np.log1p(-np.exp(-d))
        return packed


IDENTITY = Identity()
POSITIVE = Positive()
SIMPLEX = Simplex()


# -- the flat parameter vector -------------------------------------------------


@dataclass
class _Entry:
    offset: int
    size: int
    shape: tuple
    transform: object
    trainable: bool


class ParamVector:
    """Flat vector of raw parameters with named, transformed slices."""

    def __init__(self):
        self.values = np.zeros(0)
        self.grad = np.zeros(0)
        self._entries: dict[str, _Entry] = {}

    @property
    def size(self) -> int:
        return self.values.size

    def names(self) -> Iterator[str]:
        return iter(self._entries)

    def register(self, name: str, shape, transform=IDENTITY, init=None, trainable: bool = True):
        """Append a named slice; ``init`` is given in constrained space."""
        if name in self._entries:
            raise ValueError(f"parameter {name!r} already registered")
        shape = tuple(shape) if not isinstance(shape, int) else (shape,)
        size = transform.raw_size(shape)
        raw = (
            np.zeros(size)
            if init is None
            else transform.invert(np.asarray(init, dtype=np.float64), shape)
        )
        if raw.shape != (size,):
            raise ValueError(f"init for {name!r} produced raw shape {raw.shape}, expected ({size},)")
        self._entries[name] = _Entry(self.values.size, size, shape, transform, trainable)
        self.values = np.concatenate([self.values, raw])
        self.grad = np.zeros_like(self.values)

    def entry(self, name: str) -> _Entry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def decode(self, name: str):
        """Constrained value of a slice as a numpy array (or scalar)."""
        e = self.entry(name)
        out = e.transform.apply_np(self.values[e.offset : e.offset + e.size], e.shape)
        return float(out) if e.shape == () else out

    def set_value(self, name: str, value):
        """Overwrite a slice from a constrained-space value."""
        e = self.entry(name)
        self.values[e.offset : e.offset + e.size] = e.transform.invert(
            np.asarray(value, dtype=np.float64), e.shape
        )

    def set_trainable(self, name: str, flag: bool):
        self.entry(name).trainable = flag

    def trainable_mask(self) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        for e in self._entries.values():
            mask[e.offset : e.offset + e.size] = e.trainable
        return mask

    def slices_containing(self, flat_indices) -> list[str]:
        names = []
        for name, e in self._entries.items():
            if np.any((flat_indices >= e.offset) & (flat_indices < e.offset + e.size)):
                names.append(name)
        return names


class ParamView:
    """Graph-side view of a ParamVector: named slices as transformed Tensors.

    Each slice a build touches gets its own raw Tensor, kept in ``raw``: a
    leaf in a trainable view, so :func:`value_and_grad` can write its
    gradient straight into that slice of ``params.grad``, and a constant in a
    view built with ``trainable=False``, which evaluates the same graph
    builders without gradient plumbing (prediction).
    """

    def __init__(self, params: ParamVector, trainable: bool = True):
        self._params = params
        self._make = ad.leaf if trainable else ad.constant
        self.raw: dict[str, Tensor] = {}
        self._cache: dict[str, Tensor] = {}

    def _raw(self, name: str) -> Tensor:
        if name not in self.raw:
            e = self._params.entry(name)
            self.raw[name] = self._make(self._params.values[e.offset : e.offset + e.size])
        return self.raw[name]

    def get(self, name: str) -> Tensor:
        if name not in self._cache:
            e = self._params.entry(name)
            self._cache[name] = e.transform.apply(self._raw(name), e.shape)
        return self._cache[name]

    def log_simplex(self, name: str) -> Tensor:
        """Log-weights of a simplex slice, computed stably from the logits."""
        e = self._params.entry(name)
        return e.transform.log_apply(self._raw(name), e.shape)


def value_and_grad(params: ParamVector, build: Callable[[ParamView], Tensor]) -> float:
    """Evaluate a graph-building objective and leave its gradient on params;
    slices the objective does not depend on get a zero gradient."""
    view = ParamView(params)
    loss = build(view)
    loss.backward()
    params.grad[:] = 0.0
    for name, raw in view.raw.items():
        if raw.grad is not None:
            e = params.entry(name)
            params.grad[e.offset : e.offset + e.size] = raw.grad
    return float(loss.data)


# -- Adam ----------------------------------------------------------------------


@dataclass
class OptimizerState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: Optional[np.ndarray] = None
    second_moment: Optional[np.ndarray] = None


def adam_step(state: OptimizerState, params: ParamVector):
    """One Adam update on the trainable slices; mutates both arguments."""
    g = params.grad
    if not np.all(np.isfinite(g)):
        bad = params.slices_containing(np.flatnonzero(~np.isfinite(g)))
        raise GradientError(f"non-finite gradient in parameters: {', '.join(bad)}")
    if state.first_moment is None:
        state.first_moment = np.zeros_like(params.values)
        state.second_moment = np.zeros_like(params.values)
    state.step_count += 1
    state.first_moment = state.beta1 * state.first_moment + (1.0 - state.beta1) * g
    state.second_moment = state.beta2 * state.second_moment + (1.0 - state.beta2) * g * g
    m_hat = state.first_moment / (1.0 - state.beta1**state.step_count)
    v_hat = state.second_moment / (1.0 - state.beta2**state.step_count)
    step = state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    params.values -= step * params.trainable_mask()
    return params, state


# -- RNG streams -----------------------------------------------------------------


class RngStream:
    """Seeded random stream with derived substreams for reproducibility.

    Substreams are derived from (seed, path) through numpy's SeedSequence, so
    two runs with the same seed and derivation path draw identical values
    regardless of what other streams consumed in between.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in _path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed,) + self.path))
        )

    def derive(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(indices))

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def random(self, size=None) -> np.ndarray:
        """Uniform [0, 1) draws; the same values ``uniform(size=size)`` gives."""
        return self._gen.random(size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def bernoulli(self, p: float, size) -> np.ndarray:
        return (self._gen.random(size) < p).astype(np.float64)


# -- minibatching ------------------------------------------------------------------


@dataclass
class Minibatch:
    indices: np.ndarray
    scale: float


def minibatch_iter(n: int, batch_size: int, rng: RngStream) -> Iterator[Minibatch]:
    """Shuffled partition of range(n) for one epoch.

    Every batch carries scale = n / len(batch) so a scaled batch sum is an
    unbiased estimate of the full-data sum. A short final batch is kept.
    """
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield Minibatch(indices=idx, scale=n / idx.size)


# -- finite-difference gradient check ------------------------------------------------


def fd_check(
    loss: Callable[[ParamVector], float],
    params: ParamVector,
    probes: int = 20,
    rng: Optional[RngStream] = None,
    step_scale: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss`` must follow the gradient contract (fill ``params.grad``). The
    step is h = step_scale * max(1, |theta_k|) per probed coordinate. For
    stochastic objectives the caller must freeze the randomness inside
    ``loss``, otherwise the comparison is meaningless: e.g.
    ``lambda p: model.objective_grad(X, y, rng=RngStream(seed))`` draws the
    same samples on every evaluation.
    """
    if rng is None:
        rng = RngStream(0)
    value = loss(params)
    if not math.isfinite(value):
        raise NumericalError(f"objective is non-finite at the evaluation point: {value}")
    analytic = params.grad.copy()
    coords = rng.choice(params.size, size=min(probes, params.size), replace=False)
    worst = 0.0
    for k in coords:
        theta_k = params.values[k]
        h = step_scale * max(1.0, abs(theta_k))
        params.values[k] = theta_k + h
        up = loss(params)
        params.values[k] = theta_k - h
        down = loss(params)
        params.values[k] = theta_k
        if not (math.isfinite(up) and math.isfinite(down)):
            raise NumericalError(f"objective non-finite while probing coordinate {k}")
        fd = (up - down) / (2.0 * h)
        worst = max(worst, abs(analytic[k] - fd) / (abs(fd) + 1e-8))
    # restore the gradient of the unperturbed point
    loss(params)
    return worst
