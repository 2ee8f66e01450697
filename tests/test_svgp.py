"""Sparse variational GP layer: predictive algebra, both bounds, inducing init.

Hand instances are models whose layer is set slice by slice, built so every
quantity has a closed form: inducing points separated by many lengthscales
make K_MM the identity to float precision, so the latent variance reduces to
the variational S_ii and the KL term to the standard Gaussian expression
checked against mvn_kl. The layer posterior is whitened; on general layers
the unwhitened formulas in ``gp_oracle`` serve as the oracle, fed the
posterior mapped to u-space.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp_oracle import (
    MultivariateNormal,
    kernel_eval,
    layer_of,
    mvn_kl,
    np_latent,
    single_gp_layer,
    transpose,
    u_space,
)
from rulkit import autodiff as ad
from rulkit import svgp
from rulkit.experiment import ExperimentConfig, build_model, model_config, model_from_config
from rulkit.mathcore import NumericalError, cholesky_jittered
from rulkit.parallel import run_indexed
from rulkit.params import (
    IDENTITY,
    POSITIVE,
    CholeskyFactor,
    OptimizerState,
    ParamVector,
    ParamView,
    RngStream,
    adam_step,
    fd_check,
    value_and_grad,
)
from rulkit.svgp import (
    VARIANCE_FLOOR,
    SVGPModel,
    gp_layer,
    init_inducing,
    sparse_gp_layer,
)

RNG = np.random.default_rng(31)


def _model(z, mean, cov_factor, variance, lengthscales, obs_variance=0.25):
    """An SVGPModel in natural target units (shift 0, scale 1) whose layer
    and noise are set through ``params.set_value``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    model = SVGPModel("elbo", 1.0, z.shape[1], z.shape[0])
    p = model.params
    p.set_value("gp.z", z)
    p.set_value("gp.m", mean)
    p.set_value("gp.L", cov_factor)
    p.set_value("gp.kernel_variance", variance)
    p.set_value("gp.lengthscales", lengthscales)
    p.set_value("obs_variance", obs_variance)
    return model


def _far_apart_model(mean, cov_factor, variance=1.0, obs_variance=0.25):
    """1-D model whose inducing points are 100 lengthscales apart.

    Cross-covariances are exp(-5000) = 0 in float64, so K_MM is exactly the
    identity scaled by the kernel variance.
    """
    m = np.asarray(mean, dtype=np.float64)
    z = 100.0 * np.arange(m.size, dtype=np.float64)[:, None]
    cov_factor = np.asarray(cov_factor, dtype=np.float64)
    return _model(z, m, cov_factor, variance, np.ones(1), obs_variance)


def _random_model(input_dim=2, num_inducing=4, seed=0, obs_variance=0.25):
    rng = np.random.default_rng(seed)
    raw = np.tril(rng.standard_normal((num_inducing, num_inducing)))
    np.fill_diagonal(raw, np.abs(np.diag(raw)) + 0.3)
    return _model(
        rng.standard_normal((num_inducing, input_dim)),
        rng.standard_normal(num_inducing),
        raw,
        1.3,
        np.full(input_dim, 0.8),
        obs_variance,
    )


def _latent(model: SVGPModel, X):
    """Latent moments (mu_f, s2_f) per row of X from the model's own builder."""
    view = ParamView(model.params, trainable=False)
    mu, var, _ = gp_layer(view, "gp", ad.constant(X), model.jitter)
    return mu.data, var.data


def _objective(model: SVGPModel, objective: str, X, y, beta_reg=1.0) -> float:
    """Value of the negated training bound on a batch at scale 1."""
    model.objective, model.beta_reg = objective, beta_reg
    return model.objective_grad(X, y)


# -- latent predictive moments ---------------------------------------------------


class TestLatentPredict:
    def test_single_inducing_point_returns_its_mean(self):
        c = 1.7
        model = _model([[0.4, -0.2]], [c], [[0.5]], 1.0, np.ones(2))
        mu, _ = _latent(model, np.array([[0.4, -0.2]]))
        assert mu[0] == pytest.approx(c, abs=1e-12)

    def test_variance_at_inducing_points_is_variational(self):
        # with K_MM = I the data-fit term cancels, leaving S_ii
        L = np.array([[0.6, 0.0, 0.0], [0.2, 0.9, 0.0], [-0.1, 0.3, 0.4]])
        model = _far_apart_model([0.0, 0.0, 0.0], L)
        _, var = _latent(model, model.params.decode("gp.z"))
        np.testing.assert_allclose(var, np.diag(L @ L.T), rtol=1e-4)

    def test_prior_reversion_far_from_inducing(self):
        model = _random_model()
        xstar = model.params.decode("gp.z").mean(axis=0) + 50.0
        mu, var = _latent(model, xstar[None, :])
        assert abs(mu[0]) < 1e-8
        assert var[0] == pytest.approx(model.params.decode("gp.kernel_variance"), rel=1e-8)

    def test_rejects_wrong_input_dimension(self):
        model = _random_model(input_dim=2)
        with pytest.raises(ValueError):
            model.predictive(np.zeros((3, 5)))


class TestPredict:
    def test_variances_add(self):
        # sigma_f^2 = 0.2 at the inducing point, observation noise 0.3
        model = _far_apart_model([0.0], [[math.sqrt(0.2)]], obs_variance=0.3)
        dists = model.predictive(model.params.decode("gp.z"))
        assert dists.var[0] == pytest.approx(0.5, abs=1e-9)

    def test_prior_reversion_variance(self):
        model = _random_model(seed=3, obs_variance=0.7)
        xstar = model.params.decode("gp.z").mean(axis=0) - 40.0
        (var,) = model.predictive(xstar[None, :]).var
        assert var == pytest.approx(model.params.decode("gp.kernel_variance") + 0.7, rel=1e-8)

    @given(
        coords=st.lists(
            st.floats(min_value=-20.0, max_value=20.0), min_size=2, max_size=2
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_variance_never_below_observation_noise(self, coords):
        model = _random_model(seed=8, obs_variance=0.4)
        (var,) = model.predictive(np.array([coords])).var
        assert var >= model.params.decode("obs_variance")


class TestWhitening:
    def test_moments_and_kl_match_unwhitened_oracle(self):
        # q(v) = N(m, S S^T) is q(u) = N(L m, L S (L S)^T) with L = chol(Kmm)
        model = _random_model(seed=5)
        layer = layer_of(model.params, "gp")
        unwhitened = u_space(layer)
        X = RNG.standard_normal((7, 2))
        mu, var = _latent(model, X)
        mu_ref, var_ref = np_latent(unwhitened, X)
        np.testing.assert_allclose(mu, mu_ref, rtol=1e-10)
        np.testing.assert_allclose(var, var_ref, rtol=1e-10)
        z = layer.inducing_points
        kl_ref = mvn_kl(
            MultivariateNormal(unwhitened.variational_mean, unwhitened.variational_cov_factor),
            MultivariateNormal(np.zeros(4), np.linalg.cholesky(kernel_eval(layer.kernel, z, z))),
        )
        view = ParamView(model.params, trainable=False)
        _, _, kl = gp_layer(view, "gp", ad.constant(X), model.jitter)
        kl = float(kl.data)
        assert kl == pytest.approx(kl_ref, rel=1e-10)


# -- the fused layer node -----------------------------------------------------------


def _composed_layer(z, kernel_variance, lengthscales, m, s, x, jitter):
    """The layer as a composed tape graph: a literal copy of the ``gram``,
    ``latent_graph`` and ``kl_graph`` builders the fused node replaced, kept
    as the oracle of its values and gradients. S's diagonal is taken with
    ``take`` where the copy used a dedicated diagonal op, transposes are the
    oracle ``transpose`` node, squares are products and the matrix-vector
    product is a one-column matrix product."""

    def gram(a, b):
        ascaled = a / lengthscales
        bscaled = b / lengthscales
        d2 = (
            (ascaled * ascaled).sum(axis=1, keepdims=True)
            + (bscaled * bscaled).sum(axis=1)
            - 2.0 * (ascaled @ transpose(bscaled))
        )
        d2 = ad.clamp_min(d2, 0.0)
        return kernel_variance * ad.exp(d2 * -0.5)

    kmm = gram(z, z)
    kxz = gram(x, z)
    chol = ad.cholesky(kmm, base_jitter=jitter)
    b = ad.solve_triangular(chol, transpose(kxz))
    num = z.shape[0]
    mu = ad.reshape(transpose(b) @ ad.reshape(m, (num, 1)), (x.shape[0],))
    kdiag = kernel_variance * ad.constant(np.ones(x.shape[0]))
    qdiag = (b * b).sum(axis=0)
    sb = transpose(s) @ b
    sdiag = (sb * sb).sum(axis=0)
    raw = kdiag - qdiag + sdiag
    trace = (s * s).sum()
    quad = (m * m).sum()
    logdet_q = ad.log(s[np.diag_indices(num)]).sum()
    kl = (trace + quad - float(num)) * 0.5 - logdet_q
    return mu, ad.clamp_min(raw, VARIANCE_FLOOR), kl


def _layer_inputs(num, n, d, seed, clamp=False):
    """Inputs (Z, kernel variance, lengthscales, m, S, x) of one layer, S
    lower-triangular. With ``clamp``, Z sits on cube corners, S is tiny and
    x's first two rows are inducing points, so their latent variance is at
    the floor, where an fd step moves it only at second order."""
    rng = np.random.default_rng(seed)
    if clamp:
        corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
        z = corners[rng.permutation(len(corners))[:num]]
        x = rng.uniform(-1.0, 1.0, (n, d))
        x[:2] = z[:2]
        return [z, np.array(0.1), np.ones(d), rng.standard_normal(num), 1e-7 * np.eye(num), x]
    s = np.tril(rng.standard_normal((num, num))) * 0.3
    np.fill_diagonal(s, np.abs(np.diag(s)) + 0.5)
    return [rng.standard_normal((num, d)), np.array(0.5 + rng.random()),
            0.8 + rng.random(d), rng.standard_normal(num), s, rng.standard_normal((n, d))]


def _weighted_loss(outputs, weights):
    mu, var, kl = outputs
    return (mu * ad.constant(weights[0])).sum() + (var * ad.constant(weights[1])).sum() + kl * 0.7


def _stack_loss(mu, var, kl, weights, kl_weights):
    return ((mu * ad.constant(weights[0])).sum() + (var * ad.constant(weights[1])).sum()
            + (kl * ad.constant(kl_weights)).sum())


class TestSparseGPLayer:
    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("num,n,d,clamp", [
        (1, 3, 1, False), (4, 7, 2, False), (9, 5, 3, False), (5, 8, 3, True),
    ])
    def test_against_fd(self, num, n, d, clamp, x_grad):
        z, variance, ell, m, s, x = _layer_inputs(num, n, d, seed=num * 10 + n, clamp=clamp)
        p = ParamVector()
        p.register("z", z.shape, init=z)
        p.register("kernel_variance", (), POSITIVE, init=variance)
        p.register("lengthscales", (d,), POSITIVE, init=ell)
        p.register("m", (num,), init=m)
        if not clamp:  # a tiny S would put log|S| within an fd step of its pole
            p.register("s", (num, num), CholeskyFactor(num), init=s)
        if x_grad:
            p.register("x", x.shape, init=x)
        weights = RNG.standard_normal((2, n))

        def build(view):
            outputs = sparse_gp_layer(
                view.get("z"), view.get("kernel_variance"), view.get("lengthscales"),
                view.get("m"), ad.constant(s) if clamp else view.get("s"),
                view.get("x") if x_grad else ad.constant(x),
            )
            return _weighted_loss(outputs, weights)

        if clamp:
            mu, var, _ = sparse_gp_layer(*map(ad.constant, (z, variance, ell, m, s, x)))
            assert np.all(var.data[:2] == VARIANCE_FLOOR) and np.all(var.data[2:] > 1e-3)
        err = fd_check(lambda q: value_and_grad(q, build), p, probes=p.size, rng=RngStream(1))
        assert err < 1e-5

    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("num,n,d,clamp", [(6, 11, 2, False), (30, 40, 4, False),
                                               (5, 8, 3, True)])
    def test_matches_composed_graph(self, num, n, d, clamp, x_grad):
        values = _layer_inputs(num, n, d, seed=n, clamp=clamp)
        weights = RNG.standard_normal((2, n))
        results = []
        for layer in (sparse_gp_layer, _composed_layer):
            leaves = [ad.leaf(v) for v in values[:5]]
            leaves.append(ad.leaf(values[5]) if x_grad else ad.constant(values[5]))
            outputs = layer(*leaves, jitter=1e-6)
            _weighted_loss(outputs, weights).backward()
            results.append([o.data for o in outputs] + [t.grad for t in leaves])
        node, oracle = results
        assert (node[-1] is None) == (not x_grad)
        for got, want in zip(node, oracle):
            if want is None:
                continue
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_stack_against_fd(self, width, x_grad):
        num, n, d = 4, 6, 2
        gps = [_layer_inputs(num, n, d, seed=60 + w) for w in range(width)]
        z, variance, ell, m, s = (np.stack([gp[i] for gp in gps]) for i in range(5))
        x = gps[0][5]
        p = ParamVector()
        p.register("z", z.shape, init=z)
        p.register("kernel_variance", (width,), POSITIVE, init=variance)
        p.register("lengthscales", (width, d), POSITIVE, init=ell)
        p.register("m", (width, num), init=m)
        p.register("s", (width, num, num), CholeskyFactor(num), init=s)
        if x_grad:
            p.register("x", x.shape, init=x)
        rng = np.random.default_rng(width)
        weights = rng.standard_normal((2, n, width))
        kl_weights = rng.standard_normal(width)

        def build(view):
            mu, var, kl = sparse_gp_layer(
                *(view.get(name) for name in ("z", "kernel_variance", "lengthscales", "m", "s")),
                view.get("x") if x_grad else ad.constant(x),
            )
            assert mu.shape == var.shape == (n, width) and kl.shape == (width,)
            return _stack_loss(mu, var, kl, weights, kl_weights)

        err = fd_check(lambda q: value_and_grad(q, build), p, probes=p.size, rng=RngStream(1))
        assert err < 1e-5

    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_stack_equals_separate_gps(self, width, x_grad):
        # every GP of a stack gives the values and gradients of the single-GP
        # node evaluated on its own, and x the sum of their x gradients
        num, n, d = 5, 9, 3
        gps = [_layer_inputs(num, n, d, seed=80 + w) for w in range(width)]
        x = gps[0][5]
        rng = np.random.default_rng(width)
        weights = rng.standard_normal((2, n, width))
        kl_weights = rng.standard_normal(width)
        leaves = [ad.leaf(np.stack([gp[i] for gp in gps])) for i in range(5)]
        x_leaf = ad.leaf(x) if x_grad else ad.constant(x)
        mu, var, kl = sparse_gp_layer(*leaves, x_leaf)
        _stack_loss(mu, var, kl, weights, kl_weights).backward()

        def close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        x_grads = []
        for w, gp in enumerate(gps):
            ref = [ad.leaf(v) for v in gp[:5]]
            ref_x = ad.leaf(x) if x_grad else ad.constant(x)
            mu_w, var_w, kl_w = single_gp_layer(*ref, ref_x)
            loss = ((mu_w * ad.constant(weights[0, :, w])).sum()
                    + (var_w * ad.constant(weights[1, :, w])).sum() + kl_w * kl_weights[w])
            loss.backward()
            close(mu.data[:, w], mu_w.data)
            close(var.data[:, w], var_w.data)
            close(kl.data[w], kl_w.data)
            for leaf, ref_leaf in zip(leaves, ref):
                close(leaf.grad[w], ref_leaf.grad)
            x_grads.append(ref_x.grad)
        if x_grad:
            close(x_leaf.grad, sum(x_grads))
        else:
            assert x_leaf.grad is None

    def test_single_gp_is_a_stack_of_one(self):
        values = _layer_inputs(4, 7, 2, seed=9)
        single = sparse_gp_layer(*map(ad.constant, values))
        stacked = sparse_gp_layer(*(ad.constant(v[None]) for v in values[:5]),
                                  ad.constant(values[5]))
        assert [t.shape for t in single] == [(7,), (7,), ()]
        for one, stack in zip(single, stacked):
            np.testing.assert_array_equal(one.data, stack.data[..., 0])

    def test_floor_rows_pass_no_gradient(self):
        leaves = [ad.leaf(v) for v in _layer_inputs(5, 8, 3, seed=0, clamp=True)]
        _, var, _ = sparse_gp_layer(*leaves)
        var[0:2].sum().backward()
        for t in leaves:
            assert not np.any(t.grad)

    def test_duplicate_inducing_point_takes_the_jitter_ladder(self, monkeypatch):
        z, variance, ell, m, s, x = _layer_inputs(4, 6, 2, seed=3)
        z[1] = z[0]
        used = []

        def recording(a, base_jitter=1e-6):
            result = cholesky_jittered(a, base_jitter)
            used.append(result.jitter)
            return result

        monkeypatch.setattr(svgp, "cholesky_jittered", recording)
        leaves = [ad.leaf(v) for v in (z, variance, ell, m, s, x)]
        outputs = sparse_gp_layer(*leaves)
        _weighted_loss(outputs, np.ones((2, 6))).backward()
        assert used == [1e-6]
        assert all(np.all(np.isfinite(t.grad)) for t in leaves)

    def test_negative_latent_variance_raises(self):
        # at inducing points the latent variance is k - k = 0 up to rounding,
        # which a huge kernel variance drives far below the tolerance
        z, _, ell, m, _, _ = _layer_inputs(10, 10, 2, seed=4)
        inputs = (z, np.array(1e12), ell, m, 1e-12 * np.eye(10), z.copy())
        with pytest.raises(NumericalError, match="latent variance fell"):
            sparse_gp_layer(*map(ad.constant, inputs))


class TestLayerGradientProperty:
    """The layer's VJP against central differences at random small shapes,
    for one GP and stacks of 1-3, with no parent, only m and S, or every
    parent requiring a gradient; the forward's bits do not depend on which."""

    @staticmethod
    def _central_differences(p, build, step=1e-5):
        """The analytic gradient of ``build`` at p's values and its central
        differences, h = step * max(1, |theta_k|), in every coordinate."""
        loss = lambda: value_and_grad(p, build)
        loss()
        analytic, fd = p.grad.copy(), np.empty(p.size)
        for k in range(p.size):
            theta = p.values[k]
            h = step * max(1.0, abs(theta))
            p.values[k] = theta + h
            up = loss()
            p.values[k] = theta - h
            fd[k] = (up - loss()) / (2.0 * h)
            p.values[k] = theta
        return analytic, fd

    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(1, 5), n=st.integers(1, 6), d=st.integers(1, 3),
           width=st.sampled_from([None, 1, 2, 3]), grads=st.sampled_from(["none", "local", "all"]),
           seed=st.integers(0, 2**16))
    def test_the_vjp_matches_central_differences(self, num, n, d, width, grads, seed):
        rng = np.random.default_rng(seed)
        gps = [_layer_inputs(num, n, d, seed=seed + w) for w in range(width or 1)]
        for gp in gps:
            # inducing inputs on a line about 2 apart (at most 2.3 lengthscales)
            # keep Kmm far from singular, where an fd step is inaccurate
            line = rng.standard_normal(d)
            gp[0] = 2.0 * np.arange(num)[:, None] * (line / np.linalg.norm(line)) + 0.1 * gp[0]
        names = ("z", "kernel_variance", "lengthscales", "m", "s", "x")
        values = [np.stack([gp[i] for gp in gps]) if width else gps[0][i] for i in range(5)]
        values.append(gps[0][5])
        trainable = {"none": (), "local": ("m", "s"), "all": names}[grads]
        weights = rng.standard_normal((2, n, width or 1))
        kl_weights = rng.standard_normal(width or 1)
        p = ParamVector()
        for name, v in zip(names, values):
            if name in trainable:
                transform = {"kernel_variance": POSITIVE, "lengthscales": POSITIVE,
                             "s": CholeskyFactor(num)}.get(name, IDENTITY)
                p.register(name, v.shape, transform, init=v)
        outputs = []

        def build(view):
            leaves = [view.get(name) if name in trainable else ad.constant(v)
                      for name, v in zip(names, values)]
            mu, var, kl = sparse_gp_layer(*leaves)
            if not outputs:  # the first evaluation and its inputs' values
                outputs.append(([t.data for t in leaves], (mu, var, kl)))
            w = width or 1
            return _stack_loss(ad.reshape(mu, (n, w)), ad.reshape(var, (n, w)),
                               ad.reshape(kl, (w,)), weights, kl_weights)

        if grads == "none":
            assert not build(None).requires_grad
        else:
            analytic, fd = self._central_differences(p, build)
            # a gradient entry far below the largest is held to that scale:
            # its fd value carries the rounding of the whole loss
            np.testing.assert_allclose(analytic, fd, rtol=1e-5,
                                       atol=1e-7 * max(1.0, np.abs(fd).max()))
        inputs, trained = outputs[0]
        for got, want in zip(trained, sparse_gp_layer(*map(ad.constant, inputs))):
            assert got.data.tobytes() == want.data.tobytes()


class TestLayerThreads:
    """Above ``PARALLEL_MIN_WORK`` a layer spreads each GP over the usable
    CPUs: the forward in row blocks of x, the VJP's independent products at
    once. Every BLAS call and every sum sees the same operands in the same
    order as on one thread, so the values and gradients are bitwise equal."""

    @staticmethod
    def _run(width, n, grads):
        """mu, var, kl and every parent's gradient; ``grads`` is 'none' (every
        parent constant, no VJP), 'local' (m and S only) or 'all'."""
        num, d = 13, 3
        gps = [_layer_inputs(num, n, d, seed=90 + w) for w in range(width)]
        values = [np.stack([gp[i] for gp in gps]) if width > 1 else gps[0][i] for i in range(5)]
        weights = np.random.default_rng(n).standard_normal((2, n, width))
        trainable = {"none": (), "local": (3, 4), "all": range(6)}[grads]
        leaves = [(ad.leaf if i in trainable else ad.constant)(v)
                  for i, v in enumerate(values + [gps[0][5]])]
        mu, var, kl = sparse_gp_layer(*leaves)
        if grads != "none":
            loss = _stack_loss(ad.reshape(mu, (n, width)), ad.reshape(var, (n, width)),
                               ad.reshape(kl, (width,)), weights, np.arange(1.0, width + 1.0))
            loss.backward()
        return [mu.data, var.data, kl.data] + [t.grad for t in leaves]

    @pytest.mark.parametrize("grads", ["none", "local", "all"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 257])
    @pytest.mark.parametrize("width", [1, 3])
    def test_one_and_two_threads_agree_bitwise(self, width, n, grads, monkeypatch):
        monkeypatch.setattr(svgp, "PARALLEL_MIN_WORK", 0)
        calls, block_counts = [], []

        def spy(task, tasks, workers):
            calls.append((tasks, workers))
            return run_indexed(task, tasks, workers)

        def counted_blocks(rows, num, workers, plan=svgp._row_blocks):
            runs = plan(rows, num, workers)
            block_counts.append(sum(map(len, runs)))
            return runs

        monkeypatch.setattr(svgp, "run_indexed", spy)
        monkeypatch.setattr(svgp, "_row_blocks", counted_blocks)
        results = {}
        # one thread, with one row block and with several; two; two with
        # more row blocks than threads; more threads than this host has
        # cores, handing the GIL over every 1 us. Blocks take at most
        # max_rows rows, from a budget of 25 M bytes a row at M = 13
        configs = [(1, 2048), (1, 96), (2, 2048), (2, 96), (4, 48)]
        interval = sys.getswitchinterval()
        try:
            for workers, max_rows in configs:
                monkeypatch.setattr(svgp, "usable_cpus", lambda w=workers: w)
                monkeypatch.setattr(svgp, "BLOCK_BYTES", 25 * 13 * max_rows)
                sys.setswitchinterval(1e-6 if workers == 4 else interval)
                calls.clear()
                block_counts.clear()
                results[workers, max_rows] = self._run(width, n, grads)
                if grads == "none":  # a constant call gives the trainable one's bits
                    trained = self._run(width, n, "local")[:3]
                    for got, want in zip(results[workers, max_rows], trained):
                        np.testing.assert_array_equal(got, want)
                threaded = {(tasks, w) for tasks, w in calls if tasks > 1 and w > 1}
                # each worker takes as many blocks as the budget needs, so
                # two workers take four blocks of 96 rows where one takes three
                blocks = {2048: 1 if workers == 1 else 2, 96: 3 if workers == 1 else 4,
                          48: 5}[max_rows]
                if workers == 1:
                    assert not threaded
                if n == 257:  # the forward's row blocks, a run of them per thread
                    assert blocks in block_counts
                    assert workers == 1 or (min(blocks, workers), workers) in threaded
                if workers > 1 and grads == "all":  # the VJP's overlapped products
                    assert (3, workers) in threaded
        finally:
            sys.setswitchinterval(interval)
        one = results[1, 2048]
        for other in (results[c] for c in configs[1:]):
            for got, want in zip(other, one):
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, want)

    def test_row_blocks(self):
        # at M = 100 a block may take 3,312 rows, at M = 800 384
        assert svgp._row_blocks(1033, 100, 1) == [[slice(0, 1033)]]
        assert svgp._row_blocks(1033, 100, 2) == [[slice(0, 528)], [slice(528, 1033)]]
        # a block shorter than ROW_ALIGN rows is never split off
        assert svgp._row_blocks(95, 100, 2) == [[slice(0, 95)]]
        assert svgp._row_blocks(0, 100, 2) == [[slice(0, 0)]]
        assert svgp._row_blocks(1033, 800, 2) == [[slice(0, 288), slice(288, 528)],
                                                  [slice(528, 768), slice(768, 1033)]]
        # one worker takes blocks too
        assert svgp._row_blocks(1033, 800, 1) == [[slice(0, 336), slice(336, 672),
                                                   slice(672, 1033)]]

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 20_000), num=st.integers(1, 1000), workers=st.integers(1, 4))
    def test_row_blocks_tile_the_rows_within_the_byte_budget(self, n, num, workers):
        align, runs = svgp.ROW_ALIGN, svgp._row_blocks(n, num, workers)
        assert 1 <= len(runs) <= workers and all(runs)
        blocks = [r for run in runs for r in run]
        # the runs tile 0..n in order, in blocks that start at multiples of
        # ROW_ALIGN and, unless one block takes every row, are that long
        assert [r.start for r in blocks] + [n] == [0] + [r.stop for r in blocks]
        assert all(r.start % align == 0 for r in blocks)
        assert len(blocks) == 1 or all(r.stop - r.start >= align for r in blocks)
        # the plan's bound: no block is longer than the budget's rows,
        # rounded down to a multiple of ROW_ALIGN (at least one), or than
        # ROW_ALIGN + n mod ROW_ALIGN rows; the first is the larger here
        # (M <= 1,000), so each block's 25 M bytes a row fit in BLOCK_BYTES
        rows = max(align, svgp.BLOCK_BYTES // (25 * num) // align * align)
        longest = max(r.stop - r.start for r in blocks)
        assert longest <= max(rows, align + n % align)
        assert 25 * num * longest <= svgp.BLOCK_BYTES


class TestLayerMemory:
    """Between forward and VJP the layer keeps only b and c of its (n, M)
    buffers, each until its last read, and the VJP rebuilds Kmm and Kzx
    when it needs them; a call without a VJP keeps none, and its row blocks
    keep to a byte budget. tracemalloc counts numpy's buffers exactly, so
    these traced peaks are deterministic; their unit is one (n, M) float64
    array unless a test says otherwise."""

    NUM, N, D = 50, 2000, 3

    def _model(self):
        rng = np.random.default_rng(5)
        X, y = rng.standard_normal((self.N, self.D)), rng.standard_normal(self.N)
        model = SVGPModel("elbo", 1.0, self.D, self.NUM)
        model.init_from_data(X, RngStream(1))
        return model, X, y

    def _peak(self, run) -> float:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / (self.N * self.NUM * 8)
        finally:
            tracemalloc.stop()

    def test_a_training_step_backward_frees_forward_buffers_after_their_last_read(self):
        model, X, y = self._model()

        def build(view):
            loss = model._build(view, X, y, 1.0, None)
            tracemalloc.reset_peak()  # the forward's buffers stay counted
            return loss

        # b and c from the forward, then gb; b and c go after the VJP's first
        # round, and Kmm and Kzx with their masks are rebuilt only after its
        # second (keeping the forward's to the VJP's end peaked at 5.15)
        assert self._peak(lambda: value_and_grad(model.params, build)) < 4.5

    def test_a_whole_training_step_keeps_within_the_backward_bound(self):
        model, X, y = self._model()
        # the forward holds b, c and one block of Kzx and its mask per worker
        # (keeping the forward's Kzx, its mask and Kmm peaked at 5.15)
        step = lambda: value_and_grad(model.params, lambda view: model._build(view, X, y, 1.0, None))
        assert self._peak(step) < 4.5

    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize("grads", ["local", "all"])
    def test_only_a_kernel_gradient_rebuilds_kmm_and_kzx_with_the_forwards_bits(
            self, grads, width, monkeypatch):
        monkeypatch.setattr(svgp, "BLOCK_BYTES", 25 * 6 * 48)  # 4 row blocks of 48
        gps = [_layer_inputs(6, 192, 2, seed=20 + w) for w in range(width or 1)]
        values = [np.stack([gp[i] for gp in gps]) if width else gps[0][i] for i in range(5)]
        trainable = {"local": (3, 4), "all": range(6)}[grads]
        leaves = [(ad.leaf if i in trainable else ad.constant)(v)
                  for i, v in enumerate(values + [gps[0][5]])]
        grams, gram = [], svgp._se_gram

        def recording(*args, **kwargs):
            k, live = gram(*args, **kwargs)
            grams.append((k.copy(), live.copy()))
            return k, live

        monkeypatch.setattr(svgp, "_se_gram", recording)
        mu, var, kl = sparse_gp_layer(*leaves)
        forward = list(grams)
        assert len(forward) == (width or 1) * 5  # per GP Kmm and 4 blocks of Kzx
        (mu.sum() + var.sum() + kl.sum()).backward()
        rebuilt = grams[len(forward):]
        if grads == "local":  # the kernel inputs are constant: nothing is rebuilt
            assert rebuilt == []
            return
        # per GP Kmm and then each block of Kzx, with the forward's bits
        assert len(rebuilt) == len(forward)
        for (k, live), (k0, live0) in zip(rebuilt, forward):
            assert k.tobytes() == k0.tobytes() and np.array_equal(live, live0)

    def test_a_layer_graph_is_differentiated_once(self):
        leaves = [ad.leaf(v) for v in _layer_inputs(4, 7, 2, seed=9)]
        loss = sparse_gp_layer(*leaves)[2]
        loss.backward()
        with pytest.raises(RuntimeError, match="differentiated once"):
            loss.backward()

    def test_a_constant_call_keeps_only_one_block_of_scratch_per_worker(self, monkeypatch):
        model, X, _ = self._model()
        monkeypatch.setattr(svgp, "BLOCK_BYTES", 25 * self.NUM * 96)  # 21 blocks of 96 at most
        # full-size Kzx, its mask, b and c peaked at 3.5
        assert self._peak(lambda: model.predictive(X)) < 1.0

    def test_a_constant_call_at_a_large_m_keeps_to_the_byte_budget_per_worker(self, monkeypatch):
        monkeypatch.setattr(svgp, "usable_cpus", lambda: 2)
        num, n, d = 800, 3000, 4
        rng = np.random.default_rng(8)
        s = np.tril(rng.standard_normal((num, num))) * 0.01 + np.eye(num)
        values = [rng.standard_normal((num, d)), np.array(1.0), np.full(d, 2.0),
                  rng.standard_normal(num), s, rng.standard_normal((n, d))]
        leaves = [ad.constant(v) for v in values]
        tracemalloc.start()
        try:
            sparse_gp_layer(*leaves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per worker one block's scratch, 25 M bytes a row within BLOCK_BYTES,
        # and the build and factor of Kmm (M = 800: 0.6 budgets an array);
        # one block of 1,500 rows per worker, as before the byte budget
        # sized blocks, peaked at 9.1 budgets
        assert peak < 4 * svgp.BLOCK_BYTES


# -- the training objectives -------------------------------------------------------


class TestObjective:
    def test_hand_instance_one_point(self):
        # k = 1 everywhere, m = 0, S = 1, noise 1, y = 0:
        #   mu_f = 0, sigma_f^2 = 1, KL(N(0,1) || N(0,1)) = 0
        #   elbo = log N(0|0,1) - 1/2 = -ln(2 pi)/2 - 1/2; loss is its negation
        model = _model([[0.0]], [0.0], [[1.0]], 1.0, np.ones(1), obs_variance=1.0)
        loss = _objective(model, "elbo", np.array([[0.0]]), np.array([0.0]))
        assert loss == pytest.approx(0.5 * math.log(2.0 * math.pi) + 0.5, abs=1e-12)

    def test_bounds_coincide_when_latent_variance_vanishes(self):
        # S_ii ~ 1e-12 puts sigma_f^2 at the clamp floor, so the elbo
        # correction and the ppgpr variance widening both disappear
        model = _far_apart_model([0.3, -0.5], np.eye(2) * 1e-6, obs_variance=0.5)
        X = model.params.decode("gp.z")
        y = np.array([0.1, 0.2])
        e = _objective(model, "elbo", X, y)
        p = _objective(model, "ppgpr", X, y, beta_reg=1.0)
        assert e == pytest.approx(p, abs=1e-8)

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_batch_additivity(self, kind):
        # the data-fit term is a sum over rows; the KL enters once per call,
        # so summing singleton objectives overcounts it N-1 times
        model = _far_apart_model([0.3, -0.5, 0.8], np.diag([0.7, 0.4, 1.1]), obs_variance=0.6)
        layer = layer_of(model.params, "gp")
        X = RNG.standard_normal((6, 1))
        y = RNG.standard_normal(6)
        kl = mvn_kl(
            MultivariateNormal(layer.variational_mean, layer.variational_cov_factor),
            MultivariateNormal(np.zeros(3), np.eye(3)),
        )
        full = _objective(model, kind, X, y)
        singles = sum(
            _objective(model, kind, X[i : i + 1], y[i : i + 1]) for i in range(6)
        )
        assert full == pytest.approx(singles - 5.0 * kl, abs=1e-10)

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_invariant_to_row_order(self, kind):
        model = _random_model(seed=12, obs_variance=0.3)
        X = RNG.standard_normal((10, 2))
        y = RNG.standard_normal(10)
        perm = RNG.permutation(10)
        a = _objective(model, kind, X, y)
        b = _objective(model, kind, X[perm], y[perm])
        assert a == pytest.approx(b, abs=1e-10)

    def test_ppgpr_beta_scales_only_the_kl(self):
        model = _random_model(seed=4, obs_variance=0.3)
        X = RNG.standard_normal((5, 2))
        y = RNG.standard_normal(5)
        a = _objective(model, "ppgpr", X, y, beta_reg=1.0)
        b = _objective(model, "ppgpr", X, y, beta_reg=2.0)
        c = _objective(model, "ppgpr", X, y, beta_reg=3.0)
        assert c - b == pytest.approx(b - a, rel=1e-9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SVGPModel("map", 1.0, 1, 2)
        with pytest.raises(ValueError):
            SVGPModel("elbo", 0.0, 1, 2)


# -- inducing-point initialization ---------------------------------------------------


class TestInitInducing:
    def test_full_subset_is_the_data(self):
        X = RNG.standard_normal((7, 3))
        Z = init_inducing(X, 7, "random-subset", RngStream(0))
        np.testing.assert_array_equal(np.sort(Z, axis=0), np.sort(X, axis=0))

    def test_subset_rows_come_from_data(self):
        X = RNG.standard_normal((20, 2))
        Z = init_inducing(X, 5, "random-subset", RngStream(1))
        for row in Z:
            assert any(np.array_equal(row, xr) for xr in X)

    def test_kmeans_finds_two_blobs(self):
        rng = np.random.default_rng(17)
        a = rng.normal(loc=(-4.0, 0.0), scale=0.05, size=(60, 2))
        b = rng.normal(loc=(4.0, 1.0), scale=0.05, size=(60, 2))
        X = np.vstack([a, b])
        Z = np.asarray(sorted(init_inducing(X, 2, "kmeans", RngStream(2)), key=lambda r: r[0]))
        assert np.linalg.norm(Z[0] - a.mean(axis=0)) < 0.1
        assert np.linalg.norm(Z[1] - b.mean(axis=0)) < 0.1

    @pytest.mark.parametrize("strategy", ["random-subset", "kmeans"])
    def test_deterministic_under_fixed_seed(self, strategy):
        X = RNG.standard_normal((30, 2))
        a = init_inducing(X, 6, strategy, RngStream(9))
        b = init_inducing(X, 6, strategy, RngStream(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_more_points_than_rows(self):
        with pytest.raises(ValueError):
            init_inducing(np.zeros((3, 1)), 4, "random-subset", RngStream(0))

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            init_inducing(np.zeros((3, 1)), 2, "medoids", RngStream(0))


# -- layer validation -----------------------------------------------------------------


class TestLayerValidation:
    """A layer lives in fixed-shape slices of the model's parameter vector;
    setting a slice rejects values the layer could not hold."""

    def test_mean_shape_mismatch(self):
        model = SVGPModel("elbo", 1.0, 1, 2)
        with pytest.raises(ValueError):
            model.params.set_value("gp.m", np.zeros(3))

    def test_nonpositive_factor_diagonal(self):
        model = SVGPModel("elbo", 1.0, 1, 2)
        with pytest.raises(ValueError):
            model.params.set_value("gp.L", np.zeros((2, 2)))

    def test_kernel_dimension_mismatch(self):
        # inducing points with 3 columns in a model over 2 input dimensions
        model = SVGPModel("elbo", 1.0, 2, 2)
        with pytest.raises(ValueError):
            model.params.set_value("gp.z", np.zeros((2, 3)))


# -- trainable model wrapper -----------------------------------------------------------


class TestSVGPModel:
    def _toy(self, kind="elbo", **kwargs):
        X = RNG.standard_normal((12, 2))
        y = 3.0 * X[:, 0] - X[:, 1] + 0.1 * RNG.standard_normal(12)
        config = ExperimentConfig(kind="svgp", objective=kind, num_inducing=4, **kwargs)
        model = build_model(config, X, y, RngStream(6))
        return model, X, y

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_gradients_pass_fd_check(self, kind):
        model, X, y = self._toy(kind)
        model.params.values += 0.05 * RNG.standard_normal(model.params.size)
        err = fd_check(
            lambda p: model.objective_grad(X, y), model.params, probes=25, rng=RngStream(3)
        )
        assert err < 1e-4

    def test_predictive_variance_floor_in_natural_units(self):
        model, X, y = self._toy()
        floor = model.params.decode("obs_variance") * model.target_scale**2
        for var in model.predictive(RNG.standard_normal((15, 2))).var:
            assert var >= floor * (1.0 - 1e-12)

    def test_initial_state_has_zero_kl(self):
        # created at q(u) = p(u): the objective must equal the pure data term,
        # which batch additivity lets us read off from singleton calls
        model, X, y = self._toy()
        layer = u_space(layer_of(model.params, "gp"))
        kmm = kernel_eval(layer.kernel, layer.inducing_points, layer.inducing_points)
        kl = mvn_kl(
            MultivariateNormal(layer.variational_mean, layer.variational_cov_factor),
            MultivariateNormal(np.zeros(4), cholesky_jittered(kmm).factor),
        )
        assert abs(kl) < 1e-9

    def test_freeze_inducing_keeps_z_fixed(self):
        model, X, y = self._toy(freeze_inducing=True)
        z_before = model.params.decode("gp.z").copy()
        state = OptimizerState(learning_rate=0.05)
        for _ in range(5):
            model.objective_grad(X, y)
            adam_step(state, model.params)
        np.testing.assert_array_equal(model.params.decode("gp.z"), z_before)
        assert not np.array_equal(model.params.decode("gp.m"), np.zeros(4))

    def test_state_round_trip_preserves_predictions(self):
        model, X, y = self._toy()
        state = OptimizerState()
        for _ in range(3):
            model.objective_grad(X, y)
            adam_step(state, model.params)
        clone = model_from_config(model_config(model), model.params.values)
        Xq = RNG.standard_normal((5, 2))
        a, b = model.predictive(Xq), clone.predictive(Xq)
        for a_mean, a_var, b_mean, b_var in zip(a.mean, a.var, b.mean, b.var):
            assert a_mean == b_mean and a_var == b_var

    def test_targets_destandardized(self):
        # constant-ish targets around 500: predictions must come back in
        # natural units, not the standardized internal scale
        X = RNG.standard_normal((10, 2))
        y = 500.0 + RNG.standard_normal(10)
        model = build_model(ExperimentConfig(kind="svgp", num_inducing=3), X, y, RngStream(0))
        state = OptimizerState(learning_rate=0.05)
        for _ in range(200):
            model.objective_grad(X, y)
            adam_step(state, model.params)
        mu = model.predictive(X).mean
        assert np.all(np.abs(mu - 500.0) < 50.0)


# -- the prediction-time factor memo ----------------------------------------------------


def _memo_models():
    """svgp, a two-by-two deep GP and a sigma-point model on one small data
    set, each with a GP layer to change, a stack of two in the deep models:
    (model, X, y, prefix). Every layer's posterior is moved off the prior,
    where Kmm would not show in the output."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 3))
    y = X[:, 0] - 2.0 * X[:, 2] + 0.1 * rng.standard_normal(40)
    configs = {
        "svgp": (ExperimentConfig(kind="svgp", num_inducing=6), "gp"),
        "dgp": (
            ExperimentConfig(kind="dgp", width=2, depth=2, num_inducing=6, train_samples=2,
                             test_samples=3),
            "h1",
        ),
        "dspp": (
            ExperimentConfig(kind="dspp", objective="ppgpr", width=2, depth=1, num_inducing=6,
                             num_sites=3),
            "h0",
        ),
    }
    models = {
        kind: (build_model(config, X, y, RngStream(1)), X, y, prefix)
        for kind, (config, prefix) in configs.items()
    }
    for model, *_ in models.values():
        for name in model.params._entries:
            shape = model.params.entry(name).shape
            if name.endswith(".m"):
                model.params.set_value(name, rng.standard_normal(shape))
            elif name.endswith(".L"):
                model.params.set_value(name, 0.5 * np.broadcast_to(np.eye(6), shape))
    return models


def _prediction_bytes(model, X):
    p = model.predictive(X, rng=RngStream(7))
    return b"".join(a.tobytes() for a in (p.weights, p.means, p.variances, p.mean, p.var))


def _fresh_bytes(model, X):
    return _prediction_bytes(model_from_config(model_config(model), model.params.values.copy()), X)


def _recording_factorizations(monkeypatch):
    """Route ``svgp.cholesky_jittered`` through a recorder of the jitter each
    factorization used."""
    used = []

    def recording(a, base_jitter=1e-6):
        used.append(None)  # stays None when the factorization raises
        result = cholesky_jittered(a, base_jitter)
        used[-1] = result.jitter
        return result

    monkeypatch.setattr(svgp, "cholesky_jittered", recording)
    return used


def _adam(model, X, y, prefix):
    model.objective_grad(X, y, rng=RngStream(2))
    adam_step(OptimizerState(learning_rate=0.05), model.params)


def _set_z(model, X, y, prefix):
    z = model.params.decode(f"{prefix}.z")
    z[0] += 0.5
    model.params.set_value(f"{prefix}.z", z)


def _set_lengthscales(model, X, y, prefix):
    model.params.set_value(f"{prefix}.lengthscales", 1.5 * model.params.decode(f"{prefix}.lengthscales"))


def _write_in_place(model, X, y, prefix):
    e = model.params.entry(f"{prefix}.kernel_variance")
    model.params.values[e.offset] += 0.25


class TestKmmFactorMemo:
    @pytest.mark.parametrize("change", [_adam, _set_z, _set_lengthscales, _write_in_place])
    @pytest.mark.parametrize("kind", ["svgp", "dgp", "dspp"])
    def test_a_changed_parameter_vector_is_never_served_a_stale_factor(self, kind, change):
        model, X, y, prefix = _memo_models()[kind]
        before = _prediction_bytes(model, X)
        assert before == _prediction_bytes(model, X) == _fresh_bytes(model, X)
        change(model, X, y, prefix)
        after = _prediction_bytes(model, X)
        assert after != before
        assert after == _fresh_bytes(model, X)

    @pytest.mark.parametrize("kind", ["svgp", "dgp", "dspp"])
    def test_repeat_calls_factor_once_and_training_never_reads_the_memo(self, kind, monkeypatch):
        model, X, y, prefix = _memo_models()[kind]
        layers = 1 + model.depth * model.width if kind != "svgp" else 1
        used = _recording_factorizations(monkeypatch)
        first = _prediction_bytes(model, X)
        assert _prediction_bytes(model, X[:5]) != first
        assert _prediction_bytes(model, X) == first
        assert len(used) == layers
        model.objective_grad(X, y, rng=RngStream(2))
        assert len(used) == 2 * layers

    @pytest.mark.parametrize("kind", ["dgp", "dspp"])
    def test_a_write_to_one_gp_of_a_stack_misses_that_gp_only(self, kind, monkeypatch):
        model, X, _, prefix = _memo_models()[kind]
        before = _prediction_bytes(model, X)
        used = _recording_factorizations(monkeypatch)
        # the last raw value of the stack's inducing inputs: its last GP's
        e = model.params.entry(f"{prefix}.z")
        model.params.values[e.offset + e.size - 1] += 0.5
        after = _prediction_bytes(model, X)
        assert len(used) == 1  # that GP alone, no other GP of its stack or layer
        assert after != before
        assert after == _fresh_bytes(model, X)

    def test_every_chunk_of_a_deep_prediction_shares_the_factors(self, monkeypatch):
        model, X, _, _ = _memo_models()["dgp"]
        rows = np.tile(X, (14, 1))  # 560 rows: two chunks
        used = _recording_factorizations(monkeypatch)
        model.predictive(rows, rng=RngStream(3))
        assert len(used) == model.depth * model.width + 1

    @pytest.mark.parametrize("kind", ["svgp", "dgp", "dspp"])
    def test_a_failed_factorization_is_not_stored(self, kind, monkeypatch):
        model, X, _, prefix = _memo_models()[kind]
        good = _prediction_bytes(model, X)
        theta = model.params.values.copy()
        # a duplicate inducing point at a kernel variance so large that the
        # jitter ladder's largest step is below its rounding
        z = model.params.decode(f"{prefix}.z")
        z[..., 1, :] = z[..., 0, :]
        model.params.set_value(f"{prefix}.z", z)
        shape = model.params.entry(f"{prefix}.kernel_variance").shape
        model.params.set_value(f"{prefix}.kernel_variance", np.full(shape, 1e30))
        used = _recording_factorizations(monkeypatch)
        for attempt in (1, 2):
            with pytest.raises(NumericalError, match="not positive definite"):
                model.predictive(X, rng=RngStream(7))
            assert used == [None] * attempt
        model.params.values[:] = theta
        assert _prediction_bytes(model, X) == good

    @pytest.mark.parametrize("kind", ["svgp", "dgp", "dspp"])
    def test_a_jittered_factor_is_reused_as_it_was_made(self, kind, monkeypatch):
        model, X, _, prefix = _memo_models()[kind]
        z = model.params.decode(f"{prefix}.z")
        z[..., 1, :] = z[..., 0, :]
        model.params.set_value(f"{prefix}.z", z)
        used = _recording_factorizations(monkeypatch)
        first = _prediction_bytes(model, X)
        assert any(j > 0.0 for j in used)
        factored = len(used)
        assert _prediction_bytes(model, X) == first
        assert len(used) == factored
        assert first == _fresh_bytes(model, X)

    def test_a_memo_needs_constant_kernel_inputs(self):
        z, variance, ell, m, s, x = _layer_inputs(4, 6, 2, seed=5)
        with pytest.raises(ValueError, match="constant kernel inputs"):
            sparse_gp_layer(ad.leaf(z), *map(ad.constant, (variance, ell, m, s, x)), memo={})

    @pytest.mark.parametrize("kind", ["svgp", "dgp", "dspp"])
    def test_a_changed_jitter_refactors_every_layer(self, kind, monkeypatch):
        model, X, _, _ = _memo_models()[kind]
        gps = 1 + model.depth * model.width if kind != "svgp" else 1
        used = _recording_factorizations(monkeypatch)
        before = _prediction_bytes(model, X)
        assert len(used) == gps
        jitter = model.jitter
        model.jitter = 100.0 * jitter
        _prediction_bytes(model, X)
        assert len(used) == 2 * gps
        model.jitter = jitter
        assert _prediction_bytes(model, X) == before
        assert len(used) == 3 * gps
