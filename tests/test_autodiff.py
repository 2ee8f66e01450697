"""Reverse-mode tape checks: every vector-Jacobian product against central
finite differences on random instances, plus graph mechanics."""

import numpy as np
import pytest

from gp_oracle import relu, transpose
import rulkit.autodiff as ad
from rulkit.params import CholeskyFactor


def finite_diff(fn, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    g = np.zeros_like(x0)
    for i in range(x0.size):
        step = h * max(1.0, abs(x0[i]))
        plus, minus = x0.copy(), x0.copy()
        plus[i] += step
        minus[i] -= step
        g[i] = (fn(plus) - fn(minus)) / (2.0 * step)
    return g


def check_grad(build, x0: np.ndarray, rtol: float = 1e-6):
    """build(tensor) -> scalar Tensor; compares tape gradient with FD."""

    def value(x):
        return float(build(ad.constant(x)).data)

    t = ad.leaf(x0.copy())
    loss = build(t)
    loss.backward()
    fd = finite_diff(value, x0)
    err = np.max(np.abs(t.grad - fd) / (np.abs(fd) + 1e-8))
    assert err < rtol, f"max relative gradient error {err:.3e}"


RNG = np.random.default_rng(99)


class TestElementwise:
    def test_add_mul_broadcast(self):
        w = ad.constant(RNG.standard_normal((3, 4)))
        row = ad.constant(RNG.standard_normal((1, 4)))

        def build(t):
            m = ad.reshape(t, (3, 4))
            return ad.total(m * w + row * m - m / ad.constant(2.0))

        check_grad(build, RNG.standard_normal(12))

    def test_div_by_variable(self):
        def build(t):
            num = ad.constant(np.array([1.0, -2.0, 3.0]))
            return ad.total(num / (ad.softplus(t) + ad.constant(0.5)))

        check_grad(build, RNG.standard_normal(3))

    def test_exp_log_sqrt(self):
        def build(t):
            pos = ad.softplus(t) + ad.constant(0.1)
            return ad.total(ad.exp(ad.constant(0.3) * t) + ad.log(pos) + ad.sqrt(pos))

        check_grad(build, RNG.standard_normal(6))

    def test_clamp_min_passthrough_and_block(self):
        t = ad.leaf(np.array([-1.0, 2.0]))
        out = ad.total(ad.clamp_min(t, 0.0) * ad.constant(np.array([5.0, 7.0])))
        out.backward()
        assert t.grad.tolist() == [0.0, 7.0]


class TestReductionsAndShape:
    def test_total_axis_keepdims(self):
        def build(t):
            m = ad.reshape(t, (2, 3))
            s = ad.total(m, axis=0, keepdims=True)
            return ad.total(s * s)

        check_grad(build, RNG.standard_normal(6))

    def test_average(self):
        def build(t):
            return (t * t).mean()

        check_grad(build, RNG.standard_normal(7))

    def test_matmul(self):
        B = ad.constant(RNG.standard_normal((2, 4)))
        C = ad.constant(RNG.standard_normal((5, 3)))

        def build(t):
            A = ad.reshape(t, (3, 2))
            return ad.total(ad.matmul(A, B)) + ad.total(ad.matmul(C, A) * ad.matmul(C, A))

        check_grad(build, RNG.standard_normal(6))

    def test_matmul_refuses_vectors(self):
        a, v = ad.leaf(np.ones((3, 2))), ad.constant(np.ones(2))
        for x, y in ((a, v), (v, ad.constant(np.ones((2, 3)))), (v, v)):
            with pytest.raises(ValueError, match="2-d"):
                ad.matmul(x, y)

    def test_take_accumulates_repeats(self):
        t = ad.leaf(np.array([1.0, 2.0, 3.0]))
        out = ad.total(ad.take(t, np.array([0, 0, 2])))
        out.backward()
        assert t.grad.tolist() == [2.0, 0.0, 1.0]

    def test_concatenate(self):
        def build(t):
            a = ad.reshape(ad.take(t, np.arange(4)), (2, 2))
            b = ad.reshape(ad.take(t, np.arange(4, 10)), (2, 3))
            joined = ad.concatenate([a, b], axis=1)
            return ad.total(joined * joined)

        check_grad(build, RNG.standard_normal(10))


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [None, 0])
    def test_against_fd(self, axis):
        def build(t):
            m = ad.reshape(t, (3, 4))
            return ad.total(ad.logsumexp(m, axis=axis))

        check_grad(build, RNG.standard_normal(12))

    def test_extreme_stability(self):
        t = ad.leaf(np.array([-1e5, -1e5 + 2.0]))
        out = ad.logsumexp(t)
        out.backward()
        assert np.isfinite(out.data)
        assert np.all(np.isfinite(t.grad))
        assert t.grad.sum() == pytest.approx(1.0, abs=1e-12)


class TestStructured:
    # the packed-factor unpack lives in the CholeskyFactor transform
    def test_cholesky_factor_transform_weighted(self):
        n = 3
        w = ad.constant(RNG.standard_normal((n, n)))

        def build(t):
            L = CholeskyFactor(n).apply(t, (n, n))
            return ad.total(L * w)

        check_grad(build, RNG.standard_normal(n * (n + 1) // 2))

    def test_cholesky_factor_transform_squared(self):
        n = 4

        def build(t):
            L = CholeskyFactor(n).apply(t, (n, n))
            return ad.total(L * L)

        check_grad(build, RNG.standard_normal(n * (n + 1) // 2))

    def test_stacked_cholesky_factor_transform(self):
        n, width = 3, 2
        rng = np.random.default_rng(5)
        w = ad.constant(rng.standard_normal((width, n, n)))

        def build(t):
            L = CholeskyFactor(n).apply(t, (width, n, n))
            return ad.total(L * L * w)

        check_grad(build, rng.standard_normal(width * n * (n + 1) // 2))

    def test_cholesky_murray_vjp(self):
        base = RNG.standard_normal((4, 4))
        spd = base @ base.T + 4.0 * np.eye(4)
        w = ad.constant(np.tril(RNG.standard_normal((4, 4))))

        def build(t):
            delta = ad.reshape(t, (4, 4))
            sym = (delta + transpose(delta)) / ad.constant(2.0)
            A = ad.constant(spd) + sym * ad.constant(0.1)
            L = ad.cholesky(A, base_jitter=0.0)
            return ad.total(L * w)

        check_grad(build, 0.05 * RNG.standard_normal(16), rtol=1e-5)

    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("vector_rhs", [False, True])
    def test_solve_triangular(self, trans, vector_rhs):
        n = 4
        L0 = np.tril(RNG.standard_normal((n, n))) + 3.0 * np.eye(n)
        rhs_shape = (n,) if vector_rhs else (n, 2)
        rhs0 = RNG.standard_normal(rhs_shape)
        split = n * n

        def build(t):
            L = ad.reshape(ad.take(t, np.arange(split)), (n, n)) * ad.constant(
                np.tril(np.ones((n, n)))
            )
            b = ad.reshape(ad.take(t, np.arange(split, split + rhs0.size)), rhs_shape)
            x = ad.solve_triangular(L, b, trans=trans)
            return ad.total(x * x)

        check_grad(build, np.concatenate([L0.ravel(), rhs0.ravel()]), rtol=1e-5)


class TestGraphMechanics:
    def test_constant_branches_do_not_require_grad(self):
        c = ad.constant(np.ones(3)) * ad.constant(2.0)
        assert not c.requires_grad

    def test_grad_accumulates_across_reuse(self):
        t = ad.leaf(np.array([2.0]))
        out = ad.total(t * t) + ad.total(t * ad.constant(3.0))
        out.backward()
        assert t.grad.tolist() == [7.0]

    def test_backward_requires_scalar(self):
        t = ad.leaf(np.ones(3))
        with pytest.raises(ValueError):
            (t * t).backward()

    def test_diamond_graph(self):
        # d/dx of (x^2 + x^2) with shared subexpression counted twice
        t = ad.leaf(np.array([3.0]))
        sq = t * t
        out = ad.total(sq + sq)
        out.backward()
        assert t.grad.tolist() == [12.0]

    def test_shared_node_keeps_every_gradient(self):
        # add hands its incoming gradient to both parents as the same array;
        # summing later contributions out of place leaves each node's own
        # gradient as the reference value after the pass
        x = ad.leaf(np.array([3.0, -1.0]))
        y = x * x
        doubled = y + y
        out = ad.total(doubled)
        out.backward()
        assert x.grad.tolist() == [12.0, -4.0]
        assert y.grad.tolist() == [2.0, 2.0]
        assert doubled.grad.tolist() == [1.0, 1.0]

    def test_pass_through_add_gradient_is_not_changed(self):
        # x's first contribution is u's gradient itself (add passes it
        # through); x's second contribution must not be summed into it
        x = ad.leaf(np.array([1.0, 2.0]))
        v = ad.leaf(np.array([0.5, -0.5]))
        c = ad.constant(np.array([3.0, 4.0]))
        d = ad.constant(np.array([10.0, 20.0]))
        u = x + v
        out = ad.total(u * c) + ad.total(x * d)
        out.backward()
        assert x.grad.tolist() == [13.0, 24.0]
        assert v.grad.tolist() == [3.0, 4.0]
        assert u.grad.tolist() == [3.0, 4.0]

    def test_constant_parents_get_no_gradient(self):
        # binary VJPs skip parents that need no gradient
        t = ad.leaf(np.ones((2, 3)))
        c = ad.constant(np.full((3, 2), 2.0))
        out = ad.total(ad.matmul(t, c) * ad.constant(3.0) - ad.constant(1.0))
        stack, binary = [out], 0
        while stack:
            node = stack.pop()
            if node._vjp is None:
                continue
            grads = node._vjp(np.ones_like(node.data))
            binary += len(node._parents) == 2
            for parent, pg in zip(node._parents, grads):
                assert (pg is None) == (not parent.requires_grad)
            stack.extend(node._parents)
        assert binary == 3


class TestDenseRelu:
    """The fused layer against the composed graph it replaces."""

    P = 0.6

    def _inputs(self, n=5, d=3, h=4, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        w = rng.standard_normal((d, h))
        b = rng.standard_normal(h)
        keep = rng.random((n, h)) < self.P
        return x, w, b, keep

    def _run(self, x0, w0, b0, keep, up, fused, x_is_leaf=True):
        """The layer's value and the gradients of sum(h * up) for x, w, b."""
        x = ad.leaf(x0) if x_is_leaf else ad.constant(x0)
        w, b = ad.leaf(w0), ad.leaf(b0)
        if fused:
            h = ad.dense_relu(x, w, b, keep, self.P)
        else:
            h = relu(x @ w + b)
            if keep is not None:
                h = h * ad.constant(keep * (1.0 / self.P))
        out = ad.total(h * ad.constant(up))
        out.backward()
        return h.data, [t.grad for t in (x, w, b)]

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("x_is_leaf", [True, False])
    def test_bit_identical_to_composed_graph(self, masked, x_is_leaf):
        x0, w0, b0, keep = self._inputs()
        keep = keep if masked else None
        up = np.random.default_rng(1).standard_normal((5, 4))  # a downstream weighting
        (h_f, g_f), (h_c, g_c) = (self._run(x0, w0, b0, keep, up, fused, x_is_leaf)
                                  for fused in (True, False))
        np.testing.assert_array_equal(h_f, h_c)
        for gf, gc in zip(g_f, g_c):
            if gc is None:
                assert gf is None
            else:
                assert gf.tobytes() == gc.tobytes()
        assert (g_f[0] is None) == (not x_is_leaf)

    def test_boolean_mask_matches_float_mask_on_special_values(self):
        # a * keep * (1/p) against a * (keep * (1/p)): a dropped negative entry
        # gives -0, a dropped infinity NaN, and a NaN stays NaN either way
        a = np.array([-3.0, -3.0, 2.5, 2.5, -0.0, 0.0, np.inf, np.inf, -np.inf, np.nan, np.nan])
        keep = np.array([1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0], dtype=bool)
        with np.errstate(invalid="ignore"):
            got = ad.inverted_dropout(a, keep, self.P)
            want = a * (keep * (1.0 / self.P))
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[1]) and got[1] == 0.0 and np.isnan(got[7])

    def test_bit_identical_on_infinite_and_nan_rows(self):
        # rows of infinite and NaN pre-activations under an incoming gradient
        # that is negative everywhere, so that every dropped unit passes back
        # a -0 gradient and a dropped infinite unit holds inf * 0 = NaN
        x0, w0, b0, keep = self._inputs(n=8)
        x0[1] = np.inf
        x0[2] = -np.inf
        x0[3, 0] = np.nan
        keep[1:4] = [True, False, True, False]  # kept and dropped units in each
        up = -np.abs(np.random.default_rng(2).standard_normal((8, 4))) - 0.5
        with np.errstate(invalid="ignore"):
            (h_f, g_f), (h_c, g_c) = (self._run(x0, w0, b0, keep, up, fused)
                                      for fused in (True, False))
        assert np.isnan(h_f[1:4]).any(axis=1).all() and not np.isnan(h_f[4:]).any()
        assert h_f.tobytes() == h_c.tobytes()
        for gf, gc in zip(g_f, g_c):
            assert gf.tobytes() == gc.tobytes()

    @pytest.mark.parametrize("masked", [True, False])
    def test_against_fd(self, masked):
        x0, w0, b0, keep = self._inputs(n=4, d=2, h=3)
        keep = keep if masked else None
        sizes = np.cumsum([x0.size, w0.size])

        def build(t):
            x = ad.reshape(ad.take(t, np.arange(sizes[0])), x0.shape)
            w = ad.reshape(ad.take(t, np.arange(sizes[0], sizes[1])), w0.shape)
            b = ad.take(t, np.arange(sizes[1], sizes[1] + b0.size))
            h = ad.dense_relu(x, w, b, keep, self.P)
            return ad.total(h * h)

        # finite differences need pre-activations away from the relu kink
        theta = np.concatenate([x0.ravel(), w0.ravel(), b0])
        pre = x0 @ w0 + b0
        assert np.min(np.abs(pre)) > 1e-3
        check_grad(build, theta)
