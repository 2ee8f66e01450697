"""Sparse variational GP layer: predictive algebra, both bounds, inducing init.

Hand instances are built so every quantity has a closed form: inducing points
separated by many lengthscales make K_MM the identity to float precision, so
the latent variance reduces to the variational S_ii and the KL term to the
standard Gaussian expression checked against mvn_kl. The layer posterior is
whitened; on general layers the unwhitened formulas in ``gp_oracle`` serve as
the oracle, fed the posterior mapped to u-space.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp_oracle import np_latent, u_space
from rulkit.mathcore import (
    Kernel,
    MultivariateNormal,
    cholesky_jittered,
    kernel_eval,
    mvn_kl,
)
from rulkit.params import OptimizerState, RngStream, adam_step, fd_check
from rulkit.svgp import (
    LikelihoodParams,
    ObjectiveSpec,
    SVGPModel,
    VariationalGPLayer,
    init_inducing,
    kl_graph,
    latent_predict,
    layer_constants,
    objective,
    predict,
)

RNG = np.random.default_rng(31)


def _far_apart_layer(mean, cov_factor, variance=1.0):
    """1-D layer whose inducing points are 100 lengthscales apart.

    Cross-covariances are exp(-5000) = 0 in float64, so K_MM is exactly the
    identity scaled by the kernel variance.
    """
    m = np.asarray(mean, dtype=np.float64)
    z = 100.0 * np.arange(m.size, dtype=np.float64)[:, None]
    return VariationalGPLayer(
        inducing_points=z,
        variational_mean=m,
        variational_cov_factor=np.asarray(cov_factor, dtype=np.float64),
        kernel=Kernel(variance, np.ones(1)),
    )


def _random_layer(input_dim=2, num_inducing=4, seed=0):
    rng = np.random.default_rng(seed)
    raw = np.tril(rng.standard_normal((num_inducing, num_inducing)))
    np.fill_diagonal(raw, np.abs(np.diag(raw)) + 0.3)
    return VariationalGPLayer(
        inducing_points=rng.standard_normal((num_inducing, input_dim)),
        variational_mean=rng.standard_normal(num_inducing),
        variational_cov_factor=raw,
        kernel=Kernel(1.3, np.full(input_dim, 0.8)),
    )


# -- latent predictive moments ---------------------------------------------------


class TestLatentPredict:
    def test_single_inducing_point_returns_its_mean(self):
        c = 1.7
        layer = VariationalGPLayer(
            inducing_points=np.array([[0.4, -0.2]]),
            variational_mean=np.array([c]),
            variational_cov_factor=np.array([[0.5]]),
            kernel=Kernel(1.0, np.ones(2)),
        )
        mu, _ = latent_predict(layer, np.array([[0.4, -0.2]]))
        assert mu[0] == pytest.approx(c, abs=1e-12)

    def test_variance_at_inducing_points_is_variational(self):
        # with K_MM = I the data-fit term cancels, leaving S_ii
        L = np.array([[0.6, 0.0, 0.0], [0.2, 0.9, 0.0], [-0.1, 0.3, 0.4]])
        layer = _far_apart_layer([0.0, 0.0, 0.0], L)
        _, var = latent_predict(layer, layer.inducing_points)
        np.testing.assert_allclose(var, np.diag(L @ L.T), rtol=1e-4)

    def test_prior_reversion_far_from_inducing(self):
        layer = _random_layer()
        xstar = layer.inducing_points.mean(axis=0) + 50.0
        mu, var = latent_predict(layer, xstar[None, :])
        assert abs(mu[0]) < 1e-8
        assert var[0] == pytest.approx(layer.kernel.variance, rel=1e-8)

    def test_rejects_wrong_input_dimension(self):
        layer = _random_layer(input_dim=2)
        with pytest.raises(ValueError):
            latent_predict(layer, np.zeros((3, 5)))


class TestPredict:
    def test_variances_add(self):
        # sigma_f^2 = 0.2 at the inducing point, observation noise 0.3
        layer = _far_apart_layer([0.0], [[math.sqrt(0.2)]])
        dists = predict(layer, LikelihoodParams(0.3), layer.inducing_points)
        assert dists[0].variance == pytest.approx(0.5, abs=1e-9)

    def test_prior_reversion_variance(self):
        layer = _random_layer(seed=3)
        xstar = layer.inducing_points.mean(axis=0) - 40.0
        (dist,) = predict(layer, LikelihoodParams(0.7), xstar[None, :])
        assert dist.variance == pytest.approx(layer.kernel.variance + 0.7, rel=1e-8)

    @given(
        coords=st.lists(
            st.floats(min_value=-20.0, max_value=20.0), min_size=2, max_size=2
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_variance_never_below_observation_noise(self, coords):
        layer = _random_layer(seed=8)
        lik = LikelihoodParams(0.4)
        (dist,) = predict(layer, lik, np.array([coords]))
        assert dist.variance >= lik.obs_variance


class TestWhitening:
    def test_moments_and_kl_match_unwhitened_oracle(self):
        # q(v) = N(m, S S^T) is q(u) = N(L m, L S (L S)^T) with L = chol(Kmm)
        layer = _random_layer(seed=5)
        unwhitened = u_space(layer)
        X = RNG.standard_normal((7, 2))
        mu, var = latent_predict(layer, X)
        mu_ref, var_ref = np_latent(unwhitened, X)
        np.testing.assert_allclose(mu, mu_ref, rtol=1e-10)
        np.testing.assert_allclose(var, var_ref, rtol=1e-10)
        z = layer.inducing_points
        kl_ref = mvn_kl(
            MultivariateNormal(unwhitened.variational_mean, unwhitened.variational_cov_factor),
            MultivariateNormal(np.zeros(4), np.linalg.cholesky(kernel_eval(layer.kernel, z, z))),
        )
        kl = float(kl_graph(layer_constants(layer)).data)
        assert kl == pytest.approx(kl_ref, rel=1e-10)


# -- the training objectives -------------------------------------------------------


class TestObjective:
    def test_hand_instance_one_point(self):
        # k = 1 everywhere, m = 0, S = 1, noise 1, y = 0:
        #   mu_f = 0, sigma_f^2 = 1, KL(N(0,1) || N(0,1)) = 0
        #   elbo = log N(0|0,1) - 1/2 = -ln(2 pi)/2 - 1/2; loss is its negation
        layer = VariationalGPLayer(
            inducing_points=np.array([[0.0]]),
            variational_mean=np.array([0.0]),
            variational_cov_factor=np.array([[1.0]]),
            kernel=Kernel(1.0, np.ones(1)),
        )
        loss = objective(
            layer, LikelihoodParams(1.0), ObjectiveSpec("elbo"), np.array([[0.0]]), np.array([0.0])
        )
        assert loss == pytest.approx(0.5 * math.log(2.0 * math.pi) + 0.5, abs=1e-12)

    def test_bounds_coincide_when_latent_variance_vanishes(self):
        # S_ii ~ 1e-12 puts sigma_f^2 at the clamp floor, so the elbo
        # correction and the ppgpr variance widening both disappear
        layer = _far_apart_layer([0.3, -0.5], np.eye(2) * 1e-6)
        lik = LikelihoodParams(0.5)
        X = layer.inducing_points
        y = np.array([0.1, 0.2])
        e = objective(layer, lik, ObjectiveSpec("elbo"), X, y)
        p = objective(layer, lik, ObjectiveSpec("ppgpr", beta_reg=1.0), X, y)
        assert e == pytest.approx(p, abs=1e-8)

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_batch_additivity(self, kind):
        # the data-fit term is a sum over rows; the KL enters once per call,
        # so summing singleton objectives overcounts it N-1 times
        layer = _far_apart_layer([0.3, -0.5, 0.8], np.diag([0.7, 0.4, 1.1]))
        lik = LikelihoodParams(0.6)
        spec = ObjectiveSpec(kind)
        X = RNG.standard_normal((6, 1))
        y = RNG.standard_normal(6)
        kl = mvn_kl(
            MultivariateNormal(layer.variational_mean, layer.variational_cov_factor),
            MultivariateNormal(np.zeros(3), np.eye(3)),
        )
        full = objective(layer, lik, spec, X, y)
        singles = sum(
            objective(layer, lik, spec, X[i : i + 1], y[i : i + 1]) for i in range(6)
        )
        assert full == pytest.approx(singles - 5.0 * kl, abs=1e-10)

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_invariant_to_row_order(self, kind):
        layer = _random_layer(seed=12)
        lik = LikelihoodParams(0.3)
        X = RNG.standard_normal((10, 2))
        y = RNG.standard_normal(10)
        perm = RNG.permutation(10)
        a = objective(layer, lik, ObjectiveSpec(kind), X, y)
        b = objective(layer, lik, ObjectiveSpec(kind), X[perm], y[perm])
        assert a == pytest.approx(b, abs=1e-10)

    def test_ppgpr_beta_scales_only_the_kl(self):
        layer = _random_layer(seed=4)
        lik = LikelihoodParams(0.3)
        X = RNG.standard_normal((5, 2))
        y = RNG.standard_normal(5)
        a = objective(layer, lik, ObjectiveSpec("ppgpr", beta_reg=1.0), X, y)
        b = objective(layer, lik, ObjectiveSpec("ppgpr", beta_reg=2.0), X, y)
        c = objective(layer, lik, ObjectiveSpec("ppgpr", beta_reg=3.0), X, y)
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
    def test_mean_shape_mismatch(self):
        with pytest.raises(ValueError):
            VariationalGPLayer(
                np.zeros((2, 1)), np.zeros(3), np.eye(2), Kernel(1.0, np.ones(1))
            )

    def test_nonpositive_factor_diagonal(self):
        with pytest.raises(ValueError):
            VariationalGPLayer(
                np.zeros((2, 1)), np.zeros(2), np.zeros((2, 2)), Kernel(1.0, np.ones(1))
            )

    def test_kernel_dimension_mismatch(self):
        with pytest.raises(ValueError):
            VariationalGPLayer(
                np.zeros((2, 3)), np.zeros(2), np.eye(2), Kernel(1.0, np.ones(2))
            )


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
        assert fd_check(model.loss_fn(X, y), model.params, probes=25, rng=RngStream(3)) < 1e-4

    def test_predictive_variance_floor_in_natural_units(self):
        model, X, y = self._toy()
        floor = model.likelihood().obs_variance * model.target_scale**2
        for dist in model.predictive(RNG.standard_normal((15, 2))):
            assert dist.variance >= floor * (1.0 - 1e-12)

    def test_initial_state_has_zero_kl(self):
        # created at q(u) = p(u): the objective must equal the pure data term,
        # which batch additivity lets us read off from singleton calls
        model, X, y = self._toy()
        layer = u_space(model.layer())
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
        clone = SVGPModel.from_state(model.config_dict(), model.state_arrays())
        Xq = RNG.standard_normal((5, 2))
        for a, b in zip(model.predictive(Xq), clone.predictive(Xq)):
            assert a.mean == b.mean and a.variance == b.variance

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
        mu = np.array([d.mean for d in model.predictive(X)])
        assert np.all(np.abs(mu - 500.0) < 50.0)
