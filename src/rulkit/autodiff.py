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

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        return float(self.data)

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

    def __radd__(self, other):
        return add(wrap(other), self)

    def __sub__(self, other):
        return sub(self, wrap(other))

    def __rsub__(self, other):
        return sub(wrap(other), self)

    def __mul__(self, other):
        return mul(self, wrap(other))

    def __rmul__(self, other):
        return mul(wrap(other), self)

    def __truediv__(self, other):
        return div(self, wrap(other))

    def __rtruediv__(self, other):
        return div(wrap(other), self)

    def __neg__(self):
        return mul(self, wrap(-1.0))

    def __pow__(self, exponent):
        return power(self, float(exponent))

    def __matmul__(self, other):
        return matmul(self, wrap(other))

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return total(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return average(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        return reshape(self, shape)

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


def power(a: Tensor, exponent: float) -> Tensor:
    def vjp(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return make_node(a.data**exponent, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product covering the 2d/1d combinations used by the models."""
    ad, bd = a.data, b.data
    out = ad @ bd

    def vjp(g):
        if ad.ndim == 2 and bd.ndim == 2:
            ga = g @ bd.T if a.requires_grad else None
            gb = ad.T @ g if b.requires_grad else None
        elif ad.ndim == 2 and bd.ndim == 1:
            ga = np.outer(g, bd) if a.requires_grad else None
            gb = ad.T @ g if b.requires_grad else None
        elif ad.ndim == 1 and bd.ndim == 2:
            ga = bd @ g if a.requires_grad else None
            gb = np.outer(ad, g) if b.requires_grad else None
        else:
            ga = g * bd if a.requires_grad else None
            gb = g * ad if b.requires_grad else None
        return ga, gb

    return make_node(out, (a, b), vjp)


def dense_relu(x: Tensor, w: Tensor, b: Tensor, mask: Optional[Array] = None) -> Tensor:
    """One hidden layer, ``relu(x @ w + b) * mask``, as a single node.

    ``mask`` is a constant array (or None for no mask). The bias, relu and
    mask are applied in place on the fresh matmul output, and the VJP forms
    the same products in the same order as the composed graph
    ``relu(x @ w + b) * constant(mask)``, so values and gradients match it
    bit for bit.
    """
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data
    np.maximum(out, 0.0, out=out)
    if mask is not None:
        out *= mask

    def vjp(g):
        if mask is not None:
            g = g * mask
        gz = g * (out > 0.0)
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


def average(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))

    def vjp(g):
        return (_expand_reduced(g, a.data.shape, axis, keepdims) / count,)

    return make_node(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    def vjp(g):
        return (g.reshape(a.data.shape),)

    return make_node(a.data.reshape(shape), (a,), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose is defined for 2d tensors")

    def vjp(g):
        return (g.T,)

    return make_node(a.data.T, (a,), vjp)


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


def relu(a: Tensor) -> Tensor:
    def vjp(g):
        return (g * (a.data > 0.0),)

    return make_node(np.maximum(a.data, 0.0), (a,), vjp)


def softplus(a: Tensor) -> Tensor:
    def vjp(g):
        return (g * _expit(a.data),)

    return make_node(np.logaddexp(0.0, a.data), (a,), vjp)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor) with subgradient 0 on the clamped side."""

    def vjp(g):
        return (g * (a.data > floor),)

    return make_node(np.maximum(a.data, floor), (a,), vjp)


def logsumexp(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    m = np.max(a.data, axis=axis, keepdims=True)
    out_keep = m + np.log(np.sum(np.exp(a.data - m), axis=axis, keepdims=True))
    if keepdims:
        out = out_keep
    elif axis is None:
        out = out_keep.reshape(())
    else:
        out = np.squeeze(out_keep, axis=axis)

    def vjp(g):
        soft = np.exp(a.data - out_keep)
        return (soft * _expand_reduced(g, a.data.shape, axis, keepdims),)

    return make_node(out, (a,), vjp)


# -- structured linear algebra ---------------------------------------------
# No model builds these two any more (the sparse-GP layer is one node in
# rulkit.svgp); the benchmark's span timer still wraps them by name.


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
