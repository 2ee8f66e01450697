"""Reverse-mode automatic differentiation on numpy arrays.

A small tape engine in the closure style: every operation returns a new
``Tensor`` holding the forward value plus a vector-Jacobian closure that maps
the output gradient onto the operation's parents. ``Tensor.backward()`` runs
the closures in reverse topological order. Only the operations the model
objectives actually need are implemented (dense linear algebra, reductions,
elementwise transforms). Everything is float64.

Operations whose parents all have ``requires_grad=False`` return detached
constants, so prediction paths pay no graph overhead. Within a graph, a VJP
returns ``None`` for a parent that needs no gradient instead of computing a
product that would be thrown away.

Gradient arrays are never changed in place. A VJP may hand back its incoming
gradient, or a view of it, as a parent's gradient (``add`` does), so the
backward pass takes the first contribution to a node as-is and sums later
ones out of place.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular as _solve_tri
from scipy.special import expit as _expit

Array = np.ndarray


class Tensor:
    """Node in the computation graph: a float64 array plus backward plumbing."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple = (),
        _vjp: Optional[Callable[[Array], Sequence[Optional[Array]]]] = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(node.grad)):
                if pg is None or not parent.requires_grad:
                    continue
                parent.grad = pg if parent.grad is None else parent.grad + pg

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, wrap(other))

    def __sub__(self, other):
        return sub(self, wrap(other))

    def __mul__(self, other):
        return mul(self, wrap(other))

    def __rmul__(self, other):
        return mul(wrap(other), self)

    def __truediv__(self, other):
        return div(self, wrap(other))

    def __neg__(self):
        return mul(self, wrap(-1.0))

    def __matmul__(self, other):
        return matmul(self, wrap(other))

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return total(self, axis=axis, keepdims=keepdims)

    def mean(self):
        return total(self) / self.data.size

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x)


def leaf(x) -> Tensor:
    return Tensor(np.array(x, dtype=np.float64, copy=True), requires_grad=True)


def make_node(data, parents, vjp) -> Tensor:
    """The node of one operation: ``data`` with ``vjp`` mapping its gradient
    onto ``parents``, or a detached constant when no parent needs a gradient.
    Operations with a hand-derived VJP outside this module build on it."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(data)


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Sum gradient g down to the given parent shape (inverse of broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ps) in enumerate(zip(g.shape, shape)) if ps == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return make_node(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        )

    return make_node(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return make_node(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
            (
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if b.requires_grad
                else None
            ),
        )

    return make_node(a.data / b.data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two 2-d tensors."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul takes 2-d tensors, got {ad.ndim}-d and {bd.ndim}-d")

    def vjp(g):
        return (
            g @ bd.T if a.requires_grad else None,
            ad.T @ g if b.requires_grad else None,
        )

    return make_node(ad @ bd, (a, b), vjp)


def inverted_dropout(a: Array, keep: Array, keep_prob: float, out: Optional[Array] = None) -> Array:
    """``a * keep / keep_prob`` for a boolean keep mask, formed as
    ``(a * keep) * (1 / keep_prob)`` and written into ``out`` (which may be
    ``a``; None allocates). A kept entry is ``(a * 1) * s = a * s`` and a dropped
    one ``(a * 0) * s``, which keeps the sign and NaN of ``a * 0``, so the result
    equals ``a * (keep * s)`` bit for bit."""
    out = np.multiply(a, keep, out=out)
    out *= 1.0 / keep_prob
    return out


def dense_relu_forward(
    x: Array, w: Array, b: Array, keep: Optional[Array] = None, keep_prob: float = 1.0,
    out: Optional[Array] = None,
) -> Array:
    """The value of :func:`dense_relu` on arrays: the matmul goes into ``out``
    (a C-contiguous (n, h) float64 array, or None to allocate), and the bias,
    relu and mask are applied to it in place."""
    out = np.matmul(x, w, out=out)
    out += b
    np.maximum(out, 0.0, out=out)
    if keep is not None:
        inverted_dropout(out, keep, keep_prob, out=out)
    return out


def dense_relu(
    x: Tensor, w: Tensor, b: Tensor, keep: Optional[Array] = None, keep_prob: float = 1.0
) -> Tensor:
    """One hidden layer with inverted dropout, ``relu(x @ w + b) * keep /
    keep_prob``, as a single node.

    ``keep`` is a constant boolean keep mask (or None for no mask). The bias,
    relu and mask are applied in place on the fresh matmul output
    (:func:`dense_relu_forward`), the mask as ``*= keep`` then
    ``*= 1 / keep_prob`` (:func:`inverted_dropout`); the VJP scales the
    incoming gradient the same way before gating it, forming the same products
    in the same order as the composed graph
    ``relu(x @ w + b) * constant(keep * (1 / keep_prob))``, so values and
    gradients match it bit for bit.
    """
    xd, wd = x.data, w.data
    out = dense_relu_forward(xd, wd, b.data, keep, keep_prob)

    def vjp(g):
        if keep is None:
            gz = g * (out > 0.0)
        else:  # gated in place on the fresh masked copy
            gz = inverted_dropout(g, keep, keep_prob)
            gz *= out > 0.0
        return (
            gz @ wd.T if x.requires_grad else None,
            xd.T @ gz if w.requires_grad else None,
            gz.sum(axis=0) if b.requires_grad else None,
        )

    return make_node(out, (x, w, b), vjp)


# -- reductions and shape -------------------------------------------------


def _expand_reduced(g: Array, shape: tuple, axis, keepdims: bool) -> Array:
    if axis is None:
        return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(ax % len(shape) for ax in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape).copy()


def total(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        return (_expand_reduced(g, a.data.shape, axis, keepdims),)

    return make_node(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    def vjp(g):
        return (g.reshape(a.data.shape),)

    return make_node(a.data.reshape(shape), (a,), vjp)


def take(a: Tensor, idx) -> Tensor:
    """Basic indexing; gradient scatters back with np.add.at."""

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return make_node(a.data[idx], (a,), vjp)


def concatenate(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [wrap(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return make_node(np.concatenate([p.data for p in parts], axis=axis), parts, vjp)


# -- elementwise transforms -----------------------------------------------


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return make_node(out, (a,), vjp)


def log(a: Tensor) -> Tensor:
    def vjp(g):
        return (g / a.data,)

    return make_node(np.log(a.data), (a,), vjp)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return make_node(out, (a,), vjp)


def softplus(a: Tensor) -> Tensor:
    def vjp(g):
        return (g * _expit(a.data),)

    return make_node(np.logaddexp(0.0, a.data), (a,), vjp)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor) with subgradient 0 on the clamped side."""

    def vjp(g):
        return (g * (a.data > floor),)

    return make_node(np.maximum(a.data, floor), (a,), vjp)


def logsumexp(a: Tensor, axis=None) -> Tensor:
    m = np.max(a.data, axis=axis, keepdims=True)
    out_keep = m + np.log(np.sum(np.exp(a.data - m), axis=axis, keepdims=True))
    out = out_keep.reshape(()) if axis is None else np.squeeze(out_keep, axis=axis)

    def vjp(g):
        soft = np.exp(a.data - out_keep)
        return (soft * _expand_reduced(g, a.data.shape, axis, False),)

    return make_node(out, (a,), vjp)


# -- structured linear algebra ---------------------------------------------
# No model builds these two (the sparse-GP layer is one node in rulkit.svgp):
# the benchmark's span timer wraps them by name, and tests/test_svgp.py's
# composed layer, the oracle of that node, is built from them.


def cholesky(a: Tensor, base_jitter: float = 1e-6) -> Tensor:
    """Jittered Cholesky factor with the standard reverse-mode update.

    The forward pass delegates to the shared jitter ladder so graph and
    plain-numpy code paths stabilize matrices identically.
    """
    from . import mathcore

    L = mathcore.cholesky_jittered(a.data, base_jitter=base_jitter).factor

    def vjp(g):
        n = L.shape[0]
        # Murray's expression: Abar = 1/2 (S + S^T), S = L^{-T} phi(L^T g) L^{-1}
        p = np.tril(L.T @ g)
        p /= 1.0 + np.eye(n)
        t1 = _solve_tri(L, p.T, lower=True, trans="T", check_finite=False)
        s = _solve_tri(L, t1.T, lower=True, trans="T", check_finite=False)
        return ((s + s.T) / 2.0,)

    return make_node(L, (a,), vjp)


def solve_triangular(l: Tensor, b: Tensor, trans: bool = False) -> Tensor:
    """Solve L x = b (or L^T x = b when ``trans``) for lower-triangular L."""
    b1d = b.data.ndim == 1
    bd = b.data[:, None] if b1d else b.data
    x = _solve_tri(l.data, bd, lower=True, trans="T" if trans else "N", check_finite=False)

    def vjp(g):
        gm = g[:, None] if b1d else g
        if trans:
            # x = L^{-T} b: bbar = L^{-1} g, lbar = -tril(x bbar^T)
            bbar = _solve_tri(l.data, gm, lower=True, trans="N", check_finite=False)
            lbar = -np.tril(x @ bbar.T)
        else:
            # x = L^{-1} b: bbar = L^{-T} g, lbar = -tril(bbar x^T)
            bbar = _solve_tri(l.data, gm, lower=True, trans="T", check_finite=False)
            lbar = -np.tril(bbar @ x.T)
        return lbar, bbar[:, 0] if b1d else bbar

    return make_node(x[:, 0] if b1d else x, (l, b), vjp)
