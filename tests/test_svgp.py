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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp_oracle import MultivariateNormal, layer_of, mvn_kl, np_latent, u_space
from rulkit import autodiff as ad
from rulkit import svgp
from rulkit.experiment import model_from_config
from rulkit.mathcore import NumericalError, cholesky_jittered, kernel_eval
from rulkit.params import (
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
    ObjectiveSpec,
    SVGPModel,
    init_inducing,
    latent_graph,
    layer_from_view,
    sparse_gp_layer,
)

RNG = np.random.default_rng(31)


def _model(z, mean, cov_factor, variance, lengthscales, obs_variance=0.25):
    """An SVGPModel in natural target units (shift 0, scale 1) whose layer
    and noise are set through ``params.set_value``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    model = SVGPModel(ObjectiveSpec(), z.shape[1], z.shape[0])
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
    mu, var, _ = latent_graph(layer_from_view(view, "gp"), ad.constant(X), model.jitter)
    return mu.data, var.data


def _objective(model: SVGPModel, spec: ObjectiveSpec, X, y) -> float:
    """Value of the negated training bound on a batch at scale 1."""
    model.objective_spec = spec
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
        _, _, kl = latent_graph(layer_from_view(view, "gp"), ad.constant(X), model.jitter)
        kl = float(kl.data)
        assert kl == pytest.approx(kl_ref, rel=1e-10)


# -- the fused layer node -----------------------------------------------------------


def _composed_layer(z, kernel_variance, lengthscales, m, s, x, jitter):
    """The layer as a composed tape graph: a literal copy of the ``gram``,
    ``latent_graph`` and ``kl_graph`` builders the fused node replaced, kept
    as the oracle of its values and gradients. S's diagonal is taken with
    ``take`` where the copy used a dedicated diagonal op."""

    def gram(a, b):
        ascaled = a / lengthscales
        bscaled = b / lengthscales
        d2 = (
            (ascaled * ascaled).sum(axis=1, keepdims=True)
            + (bscaled * bscaled).sum(axis=1)
            - 2.0 * (ascaled @ bscaled.T)
        )
        d2 = ad.clamp_min(d2, 0.0)
        return kernel_variance * ad.exp(d2 * -0.5)

    kmm = gram(z, z)
    kxz = gram(x, z)
    chol = ad.cholesky(kmm, base_jitter=jitter)
    b = ad.solve_triangular(chol, kxz.T)
    mu = b.T @ m
    kdiag = kernel_variance * ad.constant(np.ones(x.shape[0]))
    qdiag = (b * b).sum(axis=0)
    sdiag = ((s.T @ b) ** 2).sum(axis=0)
    raw = kdiag - qdiag + sdiag
    num = z.shape[0]
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


# -- the training objectives -------------------------------------------------------


class TestObjective:
    def test_hand_instance_one_point(self):
        # k = 1 everywhere, m = 0, S = 1, noise 1, y = 0:
        #   mu_f = 0, sigma_f^2 = 1, KL(N(0,1) || N(0,1)) = 0
        #   elbo = log N(0|0,1) - 1/2 = -ln(2 pi)/2 - 1/2; loss is its negation
        model = _model([[0.0]], [0.0], [[1.0]], 1.0, np.ones(1), obs_variance=1.0)
        loss = _objective(model, ObjectiveSpec("elbo"), np.array([[0.0]]), np.array([0.0]))
        assert loss == pytest.approx(0.5 * math.log(2.0 * math.pi) + 0.5, abs=1e-12)

    def test_bounds_coincide_when_latent_variance_vanishes(self):
        # S_ii ~ 1e-12 puts sigma_f^2 at the clamp floor, so the elbo
        # correction and the ppgpr variance widening both disappear
        model = _far_apart_model([0.3, -0.5], np.eye(2) * 1e-6, obs_variance=0.5)
        X = model.params.decode("gp.z")
        y = np.array([0.1, 0.2])
        e = _objective(model, ObjectiveSpec("elbo"), X, y)
        p = _objective(model, ObjectiveSpec("ppgpr", beta_reg=1.0), X, y)
        assert e == pytest.approx(p, abs=1e-8)

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_batch_additivity(self, kind):
        # the data-fit term is a sum over rows; the KL enters once per call,
        # so summing singleton objectives overcounts it N-1 times
        model = _far_apart_model([0.3, -0.5, 0.8], np.diag([0.7, 0.4, 1.1]), obs_variance=0.6)
        layer = layer_of(model.params, "gp")
        spec = ObjectiveSpec(kind)
        X = RNG.standard_normal((6, 1))
        y = RNG.standard_normal(6)
        kl = mvn_kl(
            MultivariateNormal(layer.variational_mean, layer.variational_cov_factor),
            MultivariateNormal(np.zeros(3), np.eye(3)),
        )
        full = _objective(model, spec, X, y)
        singles = sum(
            _objective(model, spec, X[i : i + 1], y[i : i + 1]) for i in range(6)
        )
        assert full == pytest.approx(singles - 5.0 * kl, abs=1e-10)

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_invariant_to_row_order(self, kind):
        model = _random_model(seed=12, obs_variance=0.3)
        X = RNG.standard_normal((10, 2))
        y = RNG.standard_normal(10)
        perm = RNG.permutation(10)
        a = _objective(model, ObjectiveSpec(kind), X, y)
        b = _objective(model, ObjectiveSpec(kind), X[perm], y[perm])
        assert a == pytest.approx(b, abs=1e-10)

    def test_ppgpr_beta_scales_only_the_kl(self):
        model = _random_model(seed=4, obs_variance=0.3)
        X = RNG.standard_normal((5, 2))
        y = RNG.standard_normal(5)
        a = _objective(model, ObjectiveSpec("ppgpr", beta_reg=1.0), X, y)
        b = _objective(model, ObjectiveSpec("ppgpr", beta_reg=2.0), X, y)
        c = _objective(model, ObjectiveSpec("ppgpr", beta_reg=3.0), X, y)
        assert c - b == pytest.approx(b - a, rel=1e-9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ObjectiveSpec("map")
        with pytest.raises(ValueError):
            ObjectiveSpec("elbo", beta_reg=0.0)


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
        model = SVGPModel(ObjectiveSpec(), 1, 2)
        with pytest.raises(ValueError):
            model.params.set_value("gp.m", np.zeros(3))

    def test_nonpositive_factor_diagonal(self):
        model = SVGPModel(ObjectiveSpec(), 1, 2)
        with pytest.raises(ValueError):
            model.params.set_value("gp.L", np.zeros((2, 2)))

    def test_kernel_dimension_mismatch(self):
        # inducing points with 3 columns in a model over 2 input dimensions
        model = SVGPModel(ObjectiveSpec(), 2, 2)
        with pytest.raises(ValueError):
            model.params.set_value("gp.z", np.zeros((2, 3)))


# -- trainable model wrapper -----------------------------------------------------------


class TestSVGPModel:
    def _toy(self, kind="elbo", **kwargs):
        X = RNG.standard_normal((12, 2))
        y = 3.0 * X[:, 0] - X[:, 1] + 0.1 * RNG.standard_normal(12)
        model = SVGPModel.create(
            X, y, num_inducing=4, objective_spec=ObjectiveSpec(kind), rng=RngStream(6), **kwargs
        )
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
        clone = model_from_config(model.config_dict(), model.params.values)
        Xq = RNG.standard_normal((5, 2))
        a, b = model.predictive(Xq), clone.predictive(Xq)
        for a_mean, a_var, b_mean, b_var in zip(a.mean, a.var, b.mean, b.var):
            assert a_mean == b_mean and a_var == b_var

    def test_targets_destandardized(self):
        # constant-ish targets around 500: predictions must come back in
        # natural units, not the standardized internal scale
        X = RNG.standard_normal((10, 2))
        y = 500.0 + RNG.standard_normal(10)
        model = SVGPModel.create(X, y, num_inducing=3, rng=RngStream(0))
        state = OptimizerState(learning_rate=0.05)
        for _ in range(200):
            model.objective_grad(X, y)
            adam_step(state, model.params)
        mu = model.predictive(X).mean
        assert np.all(np.abs(mu - 500.0) < 50.0)
