"""Trainable-parameter registry and optimization utilities.

All model state lives in one flat float64 vector of unconstrained values.
Named slices carry a transform (identity, positive via softplus, packed
Cholesky factor) that maps raw values to the constrained quantity the model
consumes. A transform's one forward map is its graph op ``apply``: the
training graph, prediction's constant views and ``ParamVector.decode`` all
evaluate it. Objectives are callables ``f(params) -> float``
that populate ``params.grad`` with the gradient in raw coordinates; Adam,
the finite-difference checker and the training loops all speak this contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mathcore import NumericalError, expit


class GradientError(RuntimeError):
    """Raised when a gradient turns non-finite; names the offending slices."""


# -- transforms ---------------------------------------------------------------


class Identity:
    def raw_size(self, shape: tuple) -> int:
        return int(np.prod(shape, dtype=int)) if shape else 1

    def apply(self, t: Tensor, shape: tuple) -> Tensor:
        return ad.reshape(t, shape)

    def invert(self, value: np.ndarray, shape: tuple) -> np.ndarray:
        return np.asarray(value, dtype=np.float64).reshape(-1)


class Positive:
    """Softplus map to (0, inf); invert is the stable softplus inverse."""

    def raw_size(self, shape: tuple) -> int:
        return int(np.prod(shape, dtype=int)) if shape else 1

    def apply(self, t: Tensor, shape: tuple) -> Tensor:
        return ad.reshape(ad.softplus(t), shape)

    def invert(self, value: np.ndarray, shape: tuple) -> np.ndarray:
        y = np.asarray(value, dtype=np.float64).reshape(-1)
        if np.any(y <= 0.0):
            raise ValueError("positive transform got a nonpositive value")
        # softplus^{-1}(y) = y + log(1 - exp(-y))
        return y + np.log1p(-np.exp(-y))


class CholeskyFactor:
    """Packed lower-triangular factors of size n with softplus-positive diagonal.

    A slice of shape (n, n) holds one factor and one of shape (W, n, n) a
    stack of W, the leading axis outermost in the raw layout. Each factor's
    raw entries are laid out row-major over its lower triangle, so a stack of
    one has the same raw bytes as a single factor.
    """

    def __init__(self, n: int):
        self.n = int(n)
        rows, cols = np.tril_indices(self.n)
        self._diag = np.flatnonzero(rows == cols)
        # positions of the packed entries in the row-major n*n matrix
        self._flat = rows * self.n + cols

    def raw_size(self, shape: tuple) -> int:
        return int(np.prod(shape[:-2], dtype=int)) * self._flat.size

    def apply(self, t: Tensor, shape: tuple) -> Tensor:
        if t.shape != (self.raw_size(shape),):
            raise ValueError(
                f"packed vector must have length {self.raw_size(shape)}, got {t.shape}"
            )
        raw = t.data.reshape(-1, self._flat.size)
        out = np.zeros((raw.shape[0], self.n * self.n))
        for row, packed in zip(out, raw):  # 1-d scatters: 2-d ones take twice as long
            row[self._flat] = packed
        # then the diagonal entries, softplus-positive
        out[:, self._flat[self._diag]] = np.logaddexp(0.0, raw[:, self._diag])

        def vjp(g):
            gp = g.reshape(raw.shape[0], -1).take(self._flat, axis=1)
            gp[:, self._diag] *= expit(raw[:, self._diag])
            return (gp.reshape(-1),)

        return ad.make_node(out.reshape(shape), (t,), vjp)

    def invert(self, value: np.ndarray, shape: tuple) -> np.ndarray:
        L = np.asarray(value, dtype=np.float64)
        if L.shape != tuple(shape):
            raise ValueError(f"expected a {tuple(shape)} factor, got {L.shape}")
        packed = L.reshape(-1, self.n * self.n).take(self._flat, axis=1)
        d = packed[:, self._diag]
        if np.any(d <= 0.0):
            raise ValueError("factor diagonal must be positive")
        packed[:, self._diag] = d + np.log1p(-np.exp(-d))
        return packed.reshape(-1)


IDENTITY = Identity()
POSITIVE = Positive()


# -- the flat parameter vector -------------------------------------------------


@dataclass
class _Entry:
    offset: int
    size: int
    shape: tuple
    transform: object
    trainable: bool = True


def _exact(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` copied as a float array of exactly slice ``name``'s shape."""
    value = np.array(value, dtype=np.float64)
    if value.shape != shape:
        raise ValueError(f"parameter {name!r} has shape {shape}, got a value of shape {value.shape}")
    return value


class ParamVector:
    """Flat vector of raw parameters with named, transformed slices.

    ``register`` only queues a slice's raw values: the first read of
    ``values`` or ``grad`` after it allocates θ and a zeroed gradient once
    for every queued slice, in registration order.
    """

    def __init__(self):
        self._values = np.zeros(0)
        self._grad = np.zeros(0)
        self._queued: list[np.ndarray] = []
        self._size = 0
        self._entries: dict[str, _Entry] = {}

    @property
    def size(self) -> int:
        return self._size

    def _allocate(self):
        if self._queued:
            self._values = np.concatenate([self._values, *self._queued])
            self._grad = np.zeros_like(self._values)
            self._queued.clear()

    @property
    def values(self) -> np.ndarray:
        """θ, the raw values of every slice."""
        self._allocate()
        return self._values

    @values.setter
    def values(self, theta: np.ndarray):  # so that ``params.values += step`` works
        self._allocate()
        self._values = theta

    @property
    def grad(self) -> np.ndarray:
        """The gradient in raw coordinates, one entry per entry of θ."""
        self._allocate()
        return self._grad

    def register(self, name: str, shape, transform=IDENTITY, init=None):
        """Append a named slice; ``init`` is given in constrained space."""
        if name in self._entries:
            raise ValueError(f"parameter {name!r} already registered")
        shape = tuple(shape) if not isinstance(shape, int) else (shape,)
        size = transform.raw_size(shape)
        # init is copied: the raw values wait in the queue until θ is allocated
        raw = np.zeros(size) if init is None else transform.invert(_exact(name, init, shape), shape)
        self._entries[name] = _Entry(self._size, size, shape, transform)
        self._queued.append(raw)
        self._size += size

    def entry(self, name: str) -> _Entry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def decode(self, name: str):
        """Constrained value of a slice as a new numpy array (or scalar): the
        transform's ``apply`` on a copy of the raw values as a constant."""
        e = self.entry(name)
        raw = ad.constant(self.values[e.offset : e.offset + e.size].copy())
        out = e.transform.apply(raw, e.shape).data
        return float(out) if e.shape == () else out

    def set_value(self, name: str, value):
        """Overwrite a slice from a constrained-space value."""
        e = self.entry(name)
        self.values[e.offset : e.offset + e.size] = e.transform.invert(
            _exact(name, value, e.shape), e.shape
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
        """The constrained value of a slice."""
        if name not in self._cache:
            e = self._params.entry(name)
            self._cache[name] = e.transform.apply(self._raw(name), e.shape)
        return self._cache[name]


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


# Adam's moment decay rates and the offset of its denominator
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    learning_rate: float = 1e-3
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
    # in place, by the operations of m = b1 m + (1 - b1) g, v = b2 v + (1 -
    # b2) g g and lr m_hat / (sqrt(v_hat) + eps) in their order, so the bits
    # are those of the formulas
    m, v = state.first_moment, state.second_moment
    step = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += step
    np.multiply(g, 1.0 - BETA2, out=step)
    step *= g
    v *= BETA2
    v += step
    np.divide(m, 1.0 - BETA1**state.step_count, out=step)
    step *= state.learning_rate
    v_hat = np.divide(v, 1.0 - BETA2**state.step_count)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    step /= v_hat
    step *= params.trainable_mask()
    params.values -= step
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

    def random(self, size=None, out=None) -> np.ndarray:
        """Uniform [0, 1) draws; the same values ``uniform(size=size)`` gives.
        With ``out`` (a C-contiguous float64 array) they fill it in place."""
        return self._gen.random(size, out=out)

    def ahead(self, draws: int) -> "RngStream":
        """A copy of this stream moved on as if ``draws`` float64 uniforms
        had been taken from it; this stream itself does not move.

        numpy's ``random`` turns each PCG64 output into one float64, so the
        copy starts where the (draws+1)-th uniform would. PCG64 jumps there
        in O(log draws) steps. The buffered half of a 32-bit draw, which
        float64 draws neither use nor clear, is carried over as it is.
        """
        state = self._gen.bit_generator.state
        bits = np.random.PCG64()
        bits.state = state
        moved = bits.advance(int(draws)).state  # advance clears the buffer
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        bits.state = moved
        copy = object.__new__(RngStream)
        copy.seed, copy.path, copy._gen = self.seed, self.path, np.random.Generator(bits)
        return copy

    def skip(self, draws: int) -> None:
        """Move this stream on by ``draws`` float64 uniforms without drawing them."""
        self._gen = self.ahead(draws)._gen

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
