"""Sparse variational Gaussian-process regression.

A GP prior is summarized by M inducing points Z. The inducing values are
whitened, u = L v with L the Cholesky factor of Kmm = k(Z, Z), so the prior
is p(v) = N(0, I) and the Gaussian posterior q(v) = N(m, S S^T) keeps S as
its Cholesky factor (Hensman, Matthews & Ghahramani 2015). Training
maximizes either the classic evidence lower bound

    sum_i [log N(y_i | mu_f(x_i), s2_obs) - s2_f(x_i) / (2 s2_obs)] * scale - KL

or the predictive-variance objective that scores each point against the full
latent predictive and down-weights the KL by a regularization constant

    sum_i log N(y_i | mu_f(x_i), s2_f(x_i) + s2_obs) * scale - beta * KL.

The differentiable graph builders here are the model's only representation:
training evaluates them on trainable views of the flat parameter vector and
prediction on constant ones. A layer is one tape node, ``sparse_gp_layer``,
whose forward pass and vector-Jacobian product are written by hand in
numpy: per GP, one Cholesky factor, one triangular solve and one
triangular product forward, and one triangular inverse reused for every
L^{-T} product backward. The triangular routines are those of numpy's
OpenBLAS, called without the GIL (:func:`rulkit.mathcore.trsm` and
friends).

A layer is one GP or a stack of W independent GPs that read the same input.
A stack's slices carry a leading axis of length W, and one GP's raw values
are laid out as a stack of one. The node takes the GPs of a stack one after
another. Each GP's forward pass computes the kernel matrix, the triangular
solve and product and the variances in contiguous blocks of rows of x, each
worker taking a contiguous run of them, and its VJP has independent
products (the gradient of S, S c and L^{-1}; then L^{-T} gb and the
two-sided L^{-T} product). Both go to ``parallel.run_indexed``: spread over
``usable_cpus()`` threads once the triangular products reach
``PARALLEL_MIN_WORK`` multiply-adds, and in order on the calling thread
below that. The Cholesky factorization stays on the calling thread, every
sum over rows stays whole, and blocks start at multiples of ``ROW_ALIGN``
rows, so each BLAS call and each sum sees the operands of the one-thread
computation in the same order: the values and gradients do not depend on
the thread count or the block length. The threads write only into arrays
the calling thread allocated, since each thread that allocates keeps its
own malloc arena at its high-water mark.

The (n, M) buffers of a GP (Kzx, the side of its clamp that passes
gradients, b = L^{-1} Kzx and c = S^T b) set a layer's memory. Each worker
computes its blocks of Kzx and its mask into scratch that the calling
thread allocates once per worker and each of the worker's blocks refills,
at most ``BLOCK_BYTES`` of it up to M = 3,495 (that budget alone sets a
block's length, see ``_row_blocks``), and Kmm goes once it is factored.
When some parent requires a gradient, the forward keeps b and c full-size
with L, the variance clamp mask and the GP's small vectors; without one
(prediction), b and c are block scratch too, so a call holds one block's
buffers per worker. The VJP takes a GP's buffers when its backward starts,
drops b and c after its first round of products and inverts L in place.
Only after its second round, and only when a kernel input requires a
gradient, does it rebuild Kmm and then Kzx with their masks, on the calling
thread, over the forward's row blocks. One routine, ``_se_gram``, forms
every Kmm and Kzx block, cross product included, in the forward and in the
rebuild, so the rebuild has the forward's bits; each goes after its kernel
gradient.

Every layer is read through :func:`gp_layer`, which takes its five slices
from a parameter view. A GP's L = chol(Kmm) depends only on its scaled
inducing inputs Z / ell, its kernel variance and the jitter, so prediction
passes the model's memo, a dict of layer prefix to GP to its last factor,
and the node's forward, the only place that builds and factors Kmm, reuses
a GP's factor while those values are exactly equal. Training factors Kmm on
every evaluation and never reads the memo.

:class:`SVGPModel` is the GP with no hidden layer, and the deep models of
:mod:`rulkit.dgp` and :mod:`rulkit.dspp` extend it with hidden layers. All of
them build (T, n) output moments in ``SVGPModel._moments``, T = 1 here, train
on the one bound :func:`objective_graph` and predict through the one
``SVGPModel.predictive``; a deep model sets only how many rows a predictive
pass takes and how its components are weighted. So a depth-0 deep GP
computes the flat model's objective and predictive by construction.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mathcore import NumericalError, trmm, trsm, trtri
# the benchmark's span timer counts factorizations through this binding
from .mathcore import cholesky_jittered
from .metrics import Predictions
from .parallel import run_indexed, usable_cpus
from .params import (
    IDENTITY,
    POSITIVE,
    CholeskyFactor,
    ParamVector,
    ParamView,
    RngStream,
    value_and_grad,
)

DEFAULT_JITTER = 1e-6
# worst tolerated negative latent variance before erroring; values above it
# are clamped to the floor
NEG_VARIANCE_TOL = -1e-9
VARIANCE_FLOOR = 1e-12
# Fewest multiply-adds of one GP's triangular products, M^2 (n + M), for
# which a layer spreads that GP's work over threads (see sparse_gp_layer).
# Starting, waking and joining threads and handing the GIL between them costs
# about 0.2-0.7 ms per GP and training step on a 2-vCPU x86-64 VM; at this
# size (M = 200 on 1,033 rows) the step takes 15-20 ms on one thread, and
# smaller layers gained nothing measurable from a second one.
PARALLEL_MIN_WORK = 50_000_000
# Row blocks of x start at multiples of this. A block's triangular product
# has the bits of the whole one only where OpenBLAS cuts both into the same
# column panels: with its Haswell kernels, dtrmm gives other bits in the last
# M mod 8 rows when a block starts at a column that is not a multiple of 12
# (3 x the kernel's unroll width). 48 is a multiple of 3 x each unroll width
# 2, 4, 8 and 16. Blocks of at least this many rows also keep numpy from
# taking its one-row (gemv, dot) paths for a matrix product.
ROW_ALIGN = 48
# Bytes of row-block scratch per worker, the one bound on a block's length:
# a block row of Kzx, its mask, b and c takes 25 M bytes (see _row_blocks;
# 384 rows at M = 800). On one thread at M = 800, dtrsm and dtrmm ran at
# about the same rate on 192 columns as on 1,033.
BLOCK_BYTES = 8 << 20
_OUTER_COLUMNS = 128  # columns of the VJP's outer-product scratch


# -- inducing-point initialization --------------------------------------------


def init_inducing(
    X: np.ndarray, num: int, strategy: str = "random-subset", rng: Optional[RngStream] = None
) -> np.ndarray:
    """Pick inducing inputs from data by random subset or k-means centers."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not 1 <= num <= X.shape[0]:
        raise ValueError(f"num must be in [1, {X.shape[0]}], got {num}")
    if rng is None:
        rng = RngStream(0)
    subset = X[np.sort(rng.choice(X.shape[0], num, replace=False))].copy()
    if strategy == "random-subset":
        return subset
    if strategy == "kmeans":
        return _lloyd(X, subset, iters=25)
    raise ValueError(f"unknown inducing strategy {strategy!r}")


def _lloyd(X: np.ndarray, centers: np.ndarray, iters: int) -> np.ndarray:
    centers = centers.copy()
    for _ in range(iters):
        d2 = (
            np.sum(X * X, axis=1)[:, None]
            + np.sum(centers * centers, axis=1)[None, :]
            - 2.0 * X @ centers.T
        )
        assign = np.argmin(d2, axis=1)
        for k in range(centers.shape[0]):
            members = X[assign == k]
            if members.shape[0]:
                centers[k] = members.mean(axis=0)
        # empty clusters keep their previous center
    return centers


# -- differentiable layer computation ------------------------------------------


def register_layer(
    params: ParamVector, prefix: str, num_inducing: int, input_dim: int, batch_shape: tuple = ()
):
    """Register the slices of one GP layer under ``prefix``: a single GP, or
    with ``batch_shape=(W,)`` a stack of W GPs."""
    m, b = num_inducing, tuple(batch_shape)
    params.register(f"{prefix}.z", b + (m, input_dim), IDENTITY)
    params.register(f"{prefix}.m", b + (m,), IDENTITY)
    # q(v) starts at the whitened prior N(0, I)
    eye = np.broadcast_to(np.eye(m), b + (m, m))
    params.register(f"{prefix}.L", b + (m, m), CholeskyFactor(m), init=eye)
    params.register(f"{prefix}.kernel_variance", b, POSITIVE, init=np.ones(b))
    shape = b + (input_dim,)
    params.register(f"{prefix}.lengthscales", shape, POSITIVE, init=np.ones(shape))


def gp_layer(view: ParamView, prefix: str, x: Tensor, jitter: float = DEFAULT_JITTER,
             factors: Optional[dict] = None):
    """Latent moments (mu, s2) at rows of x and the KL of the GP layer under
    ``prefix``: :func:`sparse_gp_layer` of its five slices read from
    ``view``. A model's memo ``factors`` (constant views only) maps each
    layer prefix to that layer's memo of its GPs' factors of Kmm."""
    z, m, s, kernel_variance, lengthscales = (
        view.get(f"{prefix}.{name}") for name in ("z", "m", "L", "kernel_variance", "lengthscales")
    )
    memo = None if factors is None else factors.setdefault(prefix, {})
    return sparse_gp_layer(z, kernel_variance, lengthscales, m, s, x, jitter, memo)


def sparse_gp_layer(
    z: Tensor,
    kernel_variance: Tensor,
    lengthscales: Tensor,
    m: Tensor,
    s: Tensor,
    x: Tensor,
    jitter: float = DEFAULT_JITTER,
    memo: Optional[dict] = None,
):
    """One whitened sparse-GP layer, a single GP or a stack, as one tape node.

    Per GP, with Kmm = k(Z, Z), L = chol(Kmm), b = L^{-1} k(Z, x) and c = S^T b:

    mu  = b^T m
    s2  = k(x, x) - ||b||^2 + ||c||^2          (per column, clamped at the floor)
    kl  = 1/2 (||S||_F^2 + ||m||^2 - M) - log|S|

    S must be lower triangular. z, the kernel variance, the lengthscales, m
    and S carry a leading stack axis of length W together, or none does (one
    GP); every GP reads the same x (n, d). A stack returns the Tensors mu
    (n, W), s2 (n, W) and kl (W,), one GP mu (n,), s2 (n,) and kl (). The VJP
    inverts each L once and applies L^{-T} with triangular products, both to
    the gradient of b and in the Cholesky update sym(L^{-T} Phi(L^T Lbar)
    L^{-1}) (Murray 2016), where Phi keeps the lower triangle and halves the
    diagonal.

    A ``memo``, for constant z, kernel variance, lengthscales and x only,
    maps GP w of the stack to ((kernel variance, jitter), Z / ell, L) of its
    last factorization. GP w reuses that read-only L while its kernel
    variance, the jitter and its scaled inducing inputs Z / ell are exactly
    equal to the stored ones, so Kmm is then neither built nor factored;
    otherwise it factors Kmm and stores the new entry. A factorization that
    raises stores nothing.

    From ``PARALLEL_MIN_WORK`` on, each GP runs on ``usable_cpus()`` threads
    (see the module docstring); the values and gradients are the same bits
    for every thread count. Each worker takes a run of row blocks, sized by
    ``BLOCK_BYTES`` alone, whose scratch (Kzx and its mask, and b and c
    without a VJP) keeps within that budget up to M = 3,495. When a parent
    requires a gradient, the forward keeps each GP's full-size b and c, and
    the VJP frees each after its last read and, for a kernel input's
    gradient, rebuilds Kmm and Kzx with the forward's bits, so the node can
    be differentiated once; when none does, nothing full-size is kept.
    """
    parents = (z, kernel_variance, lengthscales, m, s, x)
    kernel_parents = (z, kernel_variance, lengthscales, x)
    if memo is not None and any(p.requires_grad for p in kernel_parents):
        raise ValueError("a Kmm factor memo needs constant kernel inputs")
    # the stack axis explicit, W = 1 for a single GP: the lengthscales (W, d),
    # the scaled inducing inputs Z / ell (W, M, d) and the kernel variances (W,)
    num, dim = z.shape[-2:]
    ells = lengthscales.data.reshape(-1, dim)
    zss = z.data.reshape(-1, num, dim) / ells[:, None, :]
    width, variances = len(zss), kernel_variance.data.reshape(-1)
    # C-ordered, so each S.T (and L.T below) is the Fortran-ordered upper
    # triangle the BLAS routines take uncopied
    md = m.data.reshape(width, num)
    sd = np.ascontiguousarray(s.data).reshape(width, num, num)
    xd = x.data
    n = xd.shape[0]
    # a VJP reads the forward's b and c; without one they are block scratch too
    keep = any(p.requires_grad for p in parents)
    # a thread per usable CPU once one GP's triangular products reach
    # PARALLEL_MIN_WORK multiply-adds, else the calling thread alone
    workers = usable_cpus() if num * num * (n + num) >= PARALLEL_MIN_WORK else 1
    # each worker's run of row blocks, each block's scratch within BLOCK_BYTES
    runs = _row_blocks(n, num, workers)
    blocks = [r for run in runs for r in run]
    longest = max(r.stop - r.start for r in blocks)

    def kernel_block(rows: int):
        """Kzx and where its clamp passes gradients (rows, M)."""
        return np.empty((rows, num)), np.empty((rows, num), dtype=bool)

    def solves(rows: int):
        """b = L^{-1} Kzx and c = S^T b (M, rows), Fortran-ordered so that a
        block of rows of x is a block of their columns."""
        return np.empty((num, rows), order="F"), np.empty((num, rows), order="F")

    # each worker refills its own scratch, allocated here once for every GP
    # (threads that allocate keep their malloc arenas' peaks): Kzx and its
    # mask, and b and c too without a VJP
    scratch = [kernel_block(longest) + (() if keep else solves(longest)) for _ in runs]
    # rows: mu (n), clamped s2 (n), kl (1); one column per GP
    packed = np.empty((2 * n + 1, width))

    def forward(w: int):
        """Fill GP w's column of ``packed``; returns what the VJP reuses, or
        None without one."""
        zs, xs, variance = zss[w], xd / ells[w], float(variances[w])
        zz, xx = (zs * zs).sum(axis=1), (xs * xs).sum(axis=1)
        hit = None if memo is None else memo.get(w)
        if hit is not None and hit[0] == (variance, jitter) and np.array_equal(hit[1], zs):
            chol = hit[2]
        else:
            # Kmm goes once it is factored; a VJP rebuilds it
            chol = cholesky_jittered(_se_gram(zs, zs, zz, zz, variance)[0], base_jitter=jitter)
            chol = np.ascontiguousarray(chol.factor)
            if memo is not None:
                chol.flags.writeable = False
                memo[w] = ((variance, jitter), zs, chol)
        full = solves(n) if keep else None
        raw = np.empty(n)

        def rows(r: slice, kr, lr, br, cr):
            """Rows r of x into Kzx, its live side, b and c blocks ``kr``,
            ``lr``, ``br``, ``cr``, and into ``raw`` and ``packed``."""
            cross = br.T  # the cross product goes into the b block it becomes
            _se_gram(xs[r], zs, xx[r], zz, variance, out=kr, live=lr, cross=cross)
            np.copyto(cross, kr)
            trsm(1.0, chol.T, br, trans=True)
            np.copyto(cr, br)
            trmm(1.0, sd[w].T, cr)
            raw[r] = variance - np.einsum("ij,ij->j", br, br) + np.einsum("ij,ij->j", cr, cr)
            packed[r, w] = cross @ md[w]

        def run(k: int):
            # worker k's blocks: Kzx and its mask into the front of its
            # scratch, b and c into the kept buffers or its scratch too
            kzx, live, *own = scratch[k]
            b, c = full if keep else own
            for r in runs[k]:
                at = slice(0, r.stop - r.start)
                cols = r if keep else at
                rows(r, kzx[at], live[at], b[:, cols], c[:, cols])

        run_indexed(run, len(runs), workers)
        # only a negative minimum matters; initial=0.0 lets a zero-row batch through
        worst = float(raw.min(initial=0.0))
        if worst < NEG_VARIANCE_TOL:
            raise NumericalError(f"latent variance fell to {worst:.3e}; matrix too ill-conditioned")
        packed[n : 2 * n, w] = np.maximum(raw, VARIANCE_FLOOR)
        packed[2 * n, w] = (
            ((sd[w] * sd[w]).sum() + (md[w] * md[w]).sum() - float(num)) * 0.5
            - np.log(np.diagonal(sd[w])).sum()
        )
        if keep:
            return (xs, xx, zz, chol, *full, raw > VARIANCE_FLOOR)

    state = [forward(w) for w in range(width)]

    def vjp(g):
        kernel = any(p.requires_grad for p in kernel_parents)
        gm = np.empty((width, num)) if m.requires_grad else None
        gs = np.empty((width, num, num)) if s.requires_grad else None
        gz = gkv = gell = gx = None
        if kernel:
            gz, gkv, gell = np.empty(zss.shape), np.empty(width), np.empty(ells.shape)

        def backward(w: int):
            """GP w's gradients into row w of gz, gkv, gell, gm and gs; returns
            its x gradient (None unless x needs one). Takes GP w's forward
            buffers out of ``state`` and drops each after its last read."""
            if state[w] is None:
                raise RuntimeError("a sparse-GP layer is differentiated once")
            xs, xx, zz, chol, b, c, var_live = state[w]
            state[w] = None
            zs, variance, gmu, gkl = zss[w], float(variances[w]), g[:n, w], g[2 * n, w]
            # the clamp passes no gradient on its floor side
            gvar = g[n : 2 * n, w] * var_live
            gvar2 = 2.0 * gvar
            if gm is not None:
                gm[w] = b @ gmu + gkl * md[w]
            # Independent products run at once on the layer's workers, into
            # buffers allocated here. First the S gradient, S c and L^{-1}.
            products = []
            if gs is not None:

                def s_grad():
                    np.multiply(c, gvar2, out=c)
                    np.matmul(b, c.T, out=gs[w])

                products.append(s_grad)
            if kernel:
                # gb starts as c, copied before s_grad scales c in place
                gb, prod = c.copy(order="F"), np.empty((num, num))
                outer = np.empty((num, min(n, _OUTER_COLUMNS)), order="F")
                below = np.tri(num, k=-1, dtype=bool)
                # L is this evaluation's own factor (a memo comes only with
                # constant kernel inputs), so it is inverted in place
                linv_t = chol.T

                def b_grad():
                    # d/db of mu, -||b||^2 and ||S^T b||^2, with the outer
                    # product m gmu^T added a block of columns at a time
                    trmm(1.0, sd[w].T, gb, trans=True)
                    np.subtract(gb, b, out=gb)
                    np.multiply(gb, gvar2, out=gb)
                    for j in range(0, n, _OUTER_COLUMNS):
                        cols = slice(j, min(n, j + _OUTER_COLUMNS))
                        part = outer[:, : cols.stop - j]
                        np.multiply(md[w][:, None], gmu[cols], out=part)
                        gb[:, cols] += part
                    np.matmul(b, gb.T, out=prod)
                    np.copyto(prod, 0.0, where=below)  # np.triu

                def inverse():
                    trtri(linv_t)  # L^{-T}, upper, Fortran-ordered

                products += [b_grad, inverse]
            run_indexed(lambda k: products[k](), len(products), workers)
            # free the first round's inputs and scratch before the second
            b = c = outer = None
            if gs is not None:
                gs[w] += gkl * sd[w]
                gs[w][np.diag_indices(num)] -= gkl / np.diagonal(sd[w])
            if not kernel:
                return None
            # b = L^{-1} Kzx gives Kzx the gradient L^{-T} gb and L the gradient
            # Lbar = -tril(L^{-T} gb b^T). The Cholesky update needs only the lower
            # triangle of L^T Lbar, which L^T (upper) takes from Lbar's lower
            # triangle alone, so Phi(L^T Lbar) = -Phi(gb b^T). The transpose of
            # the C-ordered triu(b gb^T) is phi, Fortran-ordered for BLAS.
            phi = prod.T
            phi[np.diag_indices(num)] *= 0.5

            def two_sided():
                trmm(-1.0, linv_t, phi)
                trmm(1.0, linv_t, phi, trans=True, right=True)

            # then L^{-T} gb and the two-sided product on phi
            products = [lambda: trmm(1.0, linv_t, gb), two_sided]
            run_indexed(lambda k: products[k](), len(products), workers)
            gkmm = phi + phi.T
            gkmm /= 2.0
            phi = prod = linv_t = None
            # Kmm, then Kzx over the forward's row blocks, rebuilt here by the
            # forward's own _se_gram calls, so with the forward's bits
            gd_mm, gkv_mm = _se_gram_vjp(gkmm, *_se_gram(zs, zs, zz, zz, variance), variance)
            kxz, kxz_live = kernel_block(n)
            cross = np.empty((longest, num))
            for r in blocks:
                _se_gram(xs[r], zs, xx[r], zz, variance, out=kxz[r], live=kxz_live[r],
                         cross=cross[: r.stop - r.start])
            cross = None
            # gb holds the gradient of Kzx (transposed); it becomes gd_xz
            gd_xz, gkv_xz = _se_gram_vjp(gb.T, kxz, kxz_live, variance)
            kxz = kxz_live = gb = None
            # d2 = |a|^2 + |b|^2 - 2 a.b per pair; gd_mm is symmetric
            gzs = 4.0 * (zs * gd_mm.sum(axis=1)[:, None] - gd_mm @ zs)
            gzs += 2.0 * (zs * gd_xz.sum(axis=0)[:, None] - gd_xz.T @ xs)
            gxs = 2.0 * (xs * gd_xz.sum(axis=1)[:, None] - gd_xz @ zs)
            ell = ells[w]
            gz[w] = gzs / ell
            gkv[w] = gkv_mm + gkv_xz + gvar.sum()
            gell[w] = -((gzs * zs).sum(axis=0) + (gxs * xs).sum(axis=0)) / ell
            return gxs / ell if x.requires_grad else None

        for w in range(width):
            gxs = backward(w)
            if gxs is not None:
                gx = gxs if gx is None else gx + gxs
        grads = (gz, gkv, gell, gm, gs, gx)
        return tuple(None if g_ is None else g_.reshape(p.shape) for g_, p in zip(grads, parents))

    node = ad.make_node(packed, parents, vjp)
    if z.ndim == 2:  # a single GP
        return node[:n, 0], node[n : 2 * n, 0], node[2 * n, 0]
    return node[:n], node[n : 2 * n], node[2 * n]


def _row_blocks(n: int, num: int, workers: int) -> list:
    """Each worker's contiguous run of blocks of the n rows of x for a GP of
    ``num`` inducing points: at most ``workers`` runs that tile the rows in
    order. A block row's scratch takes 25 ``num`` bytes, so each worker takes
    as many blocks as keep each within ``rows`` = BLOCK_BYTES // (25 num),
    rounded down to a multiple of ``ROW_ALIGN`` (at least one). Blocks start
    at multiples of ``ROW_ALIGN`` and, unless one takes every row, have at
    least that many rows, so none is longer than max(rows, ROW_ALIGN + n mod
    ROW_ALIGN): within the budget up to M = 3,495."""
    rows = max(ROW_ALIGN, BLOCK_BYTES // (25 * num) // ROW_ALIGN * ROW_ALIGN)
    parts = workers * max(1, -(-n // (workers * rows)))
    # cut i after ceil(units i / parts) whole ROW_ALIGN units; the last block
    # takes the rest, which a cut after the last whole unit would leave short
    units = n // ROW_ALIGN
    cuts = {ROW_ALIGN * -(-units * i // parts) for i in range(1, parts)} - {0, ROW_ALIGN * units}
    bounds = [0, *sorted(cuts), n]
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    tasks = min(workers, len(blocks))
    return [blocks[len(blocks) * k // tasks : len(blocks) * (k + 1) // tasks] for k in range(tasks)]


def _se_gram(a: np.ndarray, b: np.ndarray, aa: np.ndarray, bb: np.ndarray, variance: float,
             out: Optional[np.ndarray] = None, live: Optional[np.ndarray] = None,
             cross: Optional[np.ndarray] = None):
    """Squared-exponential Gram matrix variance * exp(-d2 / 2) between the
    scaled rows ``a`` and ``b``, from their squared norms ``aa`` and ``bb``,
    with d2 = |a|^2 + |b|^2 - 2 a.b clamped at 0; the one routine that forms
    every Kmm and Kzx block. The cross product a b^T goes into ``cross``
    when given and is overwritten; with ``b`` the same array as ``a`` it is
    one symmetric product, so Kmm is exactly symmetric. Also returns where
    d2 > 0, the side on which the clamp passes gradients. Both results go
    into ``out`` and ``live`` when given."""
    cross = np.matmul(a, b.T, out=cross)
    d2 = np.add(aa[:, None], bb, out=out)
    cross *= -2.0
    d2 += cross
    live = np.greater(d2, 0.0, out=live)
    np.maximum(d2, 0.0, out=d2)
    d2 *= -0.5
    np.exp(d2, out=d2)
    d2 *= variance
    return d2, live


def _se_gram_vjp(gk: np.ndarray, k: np.ndarray, live: np.ndarray, variance: float):
    """Gradients of a :func:`_se_gram` output with respect to d2 and to the
    kernel variance, from its gradient ``gk``, which becomes the first."""
    gk *= k
    gvariance = gk.sum() / variance
    gk *= -0.5
    gk *= live
    return gk, gvariance


def gaussian_loglik_graph(y: Tensor, mu: Tensor, var: Tensor) -> Tensor:
    """Elementwise log N(y | mu, var) as a graph node."""
    resid = y - mu
    return (ad.log(var) + resid * resid / var + np.log(2.0 * np.pi)) * -0.5


def objective_graph(
    mu: Tensor,
    var: Tensor,
    kl_total: Tensor,
    obs_variance: Tensor,
    objective: str,
    beta_reg: float,
    y: Tensor,
    scale: float,
    log_weights: Optional[Tensor] = None,
) -> Tensor:
    """Negated training bound on a batch from the (T, n) output-layer latent
    moments of its T components (T = 1 without hidden layers) and the summed
    KL of every inducing set. ``objective`` names the bound: 'elbo', the
    evidence bound, averages the corrected likelihood over the components;
    'ppgpr', the predictive-variance bound, scores the log of their mixture
    density and weights the KL by ``beta_reg``. ``log_weights`` is None for equal-weight
    components or a (T,) Tensor of per-component log weights (sigma points),
    which only the predictive-variance bound takes.
    """
    num_comp, n = mu.shape
    if objective == "elbo":
        if log_weights is not None:
            raise ValueError("weighted components require the ppgpr objective")
        ll = gaussian_loglik_graph(y, mu, obs_variance * ad.constant(np.ones(n)))
        corrected = ll - var / (obs_variance * 2.0)
        bound = (corrected.sum() / float(num_comp)) * scale - kl_total
        return -bound
    ll = gaussian_loglik_graph(y, mu, var + obs_variance)
    if log_weights is not None:
        ll = ll + ad.reshape(log_weights, (num_comp, 1))
    log_mix = ad.logsumexp(ll, axis=0)
    if log_weights is None and num_comp > 1:
        log_mix = log_mix - math.log(num_comp)
    bound = log_mix.sum() * scale - beta_reg * kl_total
    return -bound


# -- trainable model --------------------------------------------------------------


class SVGPModel:
    """Sparse variational GP regressor backed by a flat parameter vector.

    ``objective`` is the bound it trains on, 'elbo' or 'ppgpr', and
    ``beta_reg`` the positive weight of the KL in 'ppgpr'. Deep models
    override the hidden-layer and prediction hooks. Targets are standardized
    internally (shift/scale recorded with the model) so the zero-mean prior
    is sensible on natural-unit labels; predictions are mapped back before
    they leave the model.
    """

    kind = "svgp"
    output_prefix = "gp"
    # no hidden draws: one exact component
    num_train_samples = num_test_samples = 1
    # rows per predictive pass; None: every row in one pass
    _predict_chunk: Optional[int] = None

    def __init__(self, objective: str, beta_reg: float, input_dim: int, num_inducing: int,
                 jitter: float = DEFAULT_JITTER, target_shift: float = 0.0,
                 target_scale: float = 1.0):
        if objective not in ("elbo", "ppgpr"):
            raise ValueError(f"objective kind must be 'elbo' or 'ppgpr', got {objective!r}")
        if not beta_reg > 0.0:
            raise ValueError(f"beta_reg must be positive, got {beta_reg}")
        self.objective, self.beta_reg = objective, beta_reg
        self.input_dim = int(input_dim)
        self.num_inducing = int(num_inducing)
        self.jitter = float(jitter)
        self.target_shift = float(target_shift)
        self.target_scale = float(target_scale)
        self.params = ParamVector()
        dim = self._register_hidden()
        register_layer(self.params, self.output_prefix, self.num_inducing, dim)
        self.params.register("obs_variance", (), POSITIVE, init=0.25)
        # prediction's memo of L = chol(Kmm): layer prefix -> GP -> entry
        self._factors: dict = {}

    def init_from_data(
        self,
        X: np.ndarray,
        rng: RngStream,
        inducing_init: str = "random-subset",
        freeze_inducing: bool = False,
    ):
        """Start the inducing inputs at a random subset of the rows of X, or at
        k-means centers seeded from one; frozen ones stay there in training."""
        self.params.set_value("gp.z", init_inducing(X, self.num_inducing, inducing_init, rng))
        if freeze_inducing:
            self.params.set_trainable("gp.z", False)

    # -- hidden-layer hooks, no-ops without hidden layers -----------------------

    def _register_hidden(self) -> int:
        """Register hidden-layer slices; returns the output GP's input dim."""
        return self.input_dim

    def _hidden(self, view: ParamView, X: np.ndarray, eps, factors: Optional[dict]):
        """The output GP's input rows (T n, d), the component count T and
        each hidden layer's KL."""
        return ad.constant(X), 1, []

    def _draw_eps(self, n: int, samples: int, rng: RngStream):
        return None

    def _log_weights(self, view: ParamView):
        return None

    def _mixture_weights(self) -> Optional[np.ndarray]:
        """The predictive's (T,) component weights, or None for the Gaussian
        of the one exact component."""
        return None

    def _moments(
        self, view: ParamView, X: np.ndarray, eps, factors: Optional[dict] = None
    ):
        """Output-layer latent moments of every component, each (T, n) in
        standardized target space, and the summed KL of every inducing set.

        The training objective and the predictive both build on this;
        prediction passes the model's factor memo.
        """
        feats, rows, hidden_kls = self._hidden(view, X, eps, factors)
        mu, var, kl_total = gp_layer(view, self.output_prefix, feats, self.jitter, factors)
        for kl in hidden_kls:
            kl_total = kl_total + kl.sum()
        n = X.shape[0]
        return ad.reshape(mu, (rows, n)), ad.reshape(var, (rows, n)), kl_total

    def _component_moments(self, X: np.ndarray, eps=None):
        """``_moments`` on a constant view of the parameters, as (T, n) arrays."""
        view = ParamView(self.params, trainable=False)
        mu, var, _ = self._moments(view, X, eps, self._factors)
        return mu.data, var.data

    def _build(self, view: ParamView, X: np.ndarray, y: np.ndarray, scale: float, eps) -> Tensor:
        mu, var, kl_total = self._moments(view, X, eps)
        y_std = ad.constant((y - self.target_shift) / self.target_scale)
        return objective_graph(mu, var, kl_total, view.get("obs_variance"), self.objective,
                               self.beta_reg, y_std, scale, self._log_weights(view))

    # -- training and prediction -------------------------------------------

    def objective_grad(self, X, y, scale: float = 1.0, rng: Optional[RngStream] = None) -> float:
        """Loss on a batch; leaves the gradient on ``self.params``. Hidden
        draws, if any, come from ``rng``, by default ``RngStream(0)``."""
        X, y = training_rows(X, y, self.input_dim)
        eps = self._draw_eps(X.shape[0], self.num_train_samples, rng or RngStream(0))
        return value_and_grad(self.params, lambda view: self._build(view, X, y, scale, eps))

    def predictive(self, X, rng: Optional[RngStream] = None) -> Predictions:
        """Observation-space N(mu_f, s2_f + s2_obs) of each component per row
        of X, in natural target units: the Gaussian of the one component, or
        the mixture under ``_mixture_weights``. Rows go ``_predict_chunk`` at
        a time, and hidden draws, if any, come from ``rng``, by default
        ``RngStream(0)``."""
        X = input_rows(X, self.input_dim)
        rng = rng or RngStream(0)
        obs = self.params.decode("obs_variance")
        s = self.target_scale
        n = X.shape[0]
        chunk = self._predict_chunk or max(n, 1)
        means, variances = [], []
        # one pass even for zero rows, so an empty input gives an empty batch
        for start in range(0, max(n, 1), chunk):
            block = X[start : start + chunk]
            eps = self._draw_eps(block.shape[0], self.num_test_samples, rng)
            mu, var = self._component_moments(block, eps)
            means.append((mu * s + self.target_shift).T)
            variances.append(((var + obs) * s * s).T)
        mean, var = np.concatenate(means), np.concatenate(variances)
        weights = self._mixture_weights()
        if weights is None:
            return Predictions.gaussian(mean[:, 0], var[:, 0])
        return Predictions.mixture(weights, mean, var)


def input_rows(X, input_dim: int) -> np.ndarray:
    """Every model's predictive input rule: a float (n, input_dim) array, n >= 0
    (a single (input_dim,) row is taken as n = 1)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise ValueError(f"expected inputs of shape (n, {input_dim}), got {X.shape}")
    return X


def training_rows(X, y, input_dim: int):
    """Every model's training input rule: rows X as :func:`input_rows` checks
    them, and y a float vector of exactly one target per row."""
    X = input_rows(X, input_dim)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError(f"expected targets of shape ({X.shape[0]},), got {y.shape}")
    return X, y
