"""Sigma-point deep GP: quadrature init, determinism, reductions, objective.

The quadrature itself is validated against a 10^6-draw Monte-Carlo estimate
and the Gaussian closed form on a linear-in-g toy integrand; the model
objective is recomputed from predictive moments plus an independent KL oracle
on each layer's posterior mapped to u-space.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from gp_oracle import u_space
from rulkit import autodiff as ad
from rulkit.dgp import DeepGPModel, forward_sample, mixture_moments
from rulkit.dgp import objective as dgp_objective
from rulkit.dspp import DSPPModel, SigmaPointSet, init_sigma_points
from rulkit.dspp import objective as dspp_objective
from rulkit.mathcore import MultivariateNormal, gaussian_logpdf, kernel_eval, mvn_kl
from rulkit.params import RngStream, fd_check
from rulkit.svgp import ObjectiveSpec

RNG = np.random.default_rng(555)


def _toy_dspp(num_sites=3, width=2, seed=21, perturb=0.15, **kwargs):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((9, 2))
    y = np.cos(X[:, 1]) + 0.1 * rng.standard_normal(9)
    model = DSPPModel.create(
        X,
        y,
        width=width,
        depth=1,
        num_inducing=3,
        num_sites=num_sites,
        rng=RngStream(seed),
        **kwargs,
    )
    if perturb:
        model.params.values += perturb * rng.standard_normal(model.params.size)
    return model, X, y


# -- quadrature initialization -------------------------------------------------------


class TestInitSigmaPoints:
    def test_three_sites_are_the_hermite_rule(self):
        sp = init_sigma_points(3, 4)
        expected = np.array([-math.sqrt(3.0), 0.0, math.sqrt(3.0)])
        for col in range(4):
            np.testing.assert_allclose(sp.sites[:, col], expected, atol=1e-12)
        np.testing.assert_allclose(
            sp.weights, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], atol=1e-12
        )

    def test_single_site_is_the_mean(self):
        sp = init_sigma_points(1, 2)
        np.testing.assert_array_equal(sp.sites, np.zeros((1, 2)))
        np.testing.assert_allclose(sp.weights, [1.0], atol=1e-15)

    @pytest.mark.parametrize("s", [1, 2, 5, 15, 20])
    def test_weights_are_a_simplex(self, s):
        sp = init_sigma_points(s, 3)
        assert np.all(sp.weights > 0.0)
        assert abs(sp.weights.sum() - 1.0) < 1e-12

    def test_set_validation(self):
        with pytest.raises(ValueError):
            SigmaPointSet(logits=np.zeros(3), sites=np.zeros((2, 4)))


class TestQuadratureAccuracy:
    def test_init_rule_integrates_a_gaussian_likelihood(self):
        # hidden posterior N(mu_g, s_g^2), output f(g) = a g + b with constant
        # variance c: the marginal likelihood has the closed form
        # N(y | a mu_g + b, a^2 s_g^2 + c) and the 15-site rule must agree with
        # both it and a brute-force Monte-Carlo estimate
        mu_g, s_g = 0.3, 0.6
        a, b, c = 0.8, -0.2, 0.4
        y = 0.5
        sp = init_sigma_points(15, 1)
        g_sites = mu_g + sp.sites[:, 0] * s_g
        quad = float(np.exp(logsumexp(gaussian_logpdf(y, a * g_sites + b, c), b=sp.weights)))

        closed = float(np.exp(gaussian_logpdf(y, a * mu_g + b, a * a * s_g * s_g + c)))
        draws = 1_000_000
        g = mu_g + s_g * np.random.default_rng(3).standard_normal(draws)
        dens = np.exp(gaussian_logpdf(y, a * g + b, c))
        mc, se = dens.mean(), dens.std() / math.sqrt(draws)

        assert quad == pytest.approx(closed, rel=1e-6)
        assert abs(quad - mc) < 3.0 * se


# -- deterministic prediction ----------------------------------------------------------


class TestPredictDeterminism:
    def test_repeated_calls_are_bitwise_identical(self):
        model, X, _ = _toy_dspp()
        a = model.predictive(X)
        b = model.predictive(X)
        for mix_a, mix_b in zip(a, b):
            np.testing.assert_array_equal(mix_a.means, mix_b.means)
            np.testing.assert_array_equal(mix_a.variances, mix_b.variances)
            np.testing.assert_array_equal(mix_a.weights, mix_b.weights)

    def test_training_is_bitwise_reproducible(self):
        runs = []
        for _ in range(2):
            model, X, y = _toy_dspp(seed=33)
            losses = [model.objective_grad(X, y) for _ in range(3)]
            runs.append((losses, model.params.grad.copy()))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_collapsed_hidden_variance_merges_components(self):
        # with the hidden posterior variance driven to the clamp floor the
        # sites have nothing to scale, so all components coincide
        rng = np.random.default_rng(2)
        X = np.linspace(-1.0, 1.0, 6)[:, None]
        y = X[:, 0] ** 2
        model = DSPPModel.create(
            X, y, width=1, depth=1, num_inducing=6, num_sites=5, rng=RngStream(4)
        )
        model.params.set_value("h0.0.z", X)
        model.params.set_value("h0.0.L", np.eye(6) * 1e-8)
        means, variances = model._component_moments(X)
        assert np.ptp(means, axis=0).max() < 1e-5
        assert np.ptp(variances, axis=0).max() < 1e-5
        mix = model.predictive(X)[0]
        mean, var = mixture_moments(mix)
        assert mean == pytest.approx(mix.means[0], abs=1e-4)
        assert var == pytest.approx(mix.variances[0], rel=1e-3)


# -- reduction to the mean-propagated deep GP --------------------------------------------


class TestSingleSiteReduction:
    def _paired(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        spec = ObjectiveSpec("ppgpr")
        sigma = DSPPModel.create(
            X, y, width=2, depth=1, num_inducing=3, num_sites=1,
            objective_spec=spec, rng=RngStream(6),
        )
        deep = DeepGPModel.create(
            X, y, width=2, depth=1, num_inducing=3,
            objective_spec=spec, rng=RngStream(6),
        )
        # shared stack parameters: randomize them, keep the single site at 0
        noise = 0.1 * rng.standard_normal(deep.params.size)
        sigma.params.values[: deep.params.size] += noise
        deep.params.values += noise
        return sigma, deep, X, y

    def test_objective_equals_mean_propagated_dgp(self):
        sigma, deep, X, y = self._paired()
        eps = np.zeros((1, X.shape[0], deep.depth * deep.width))
        a = dspp_objective(sigma, X, y)
        b = dgp_objective(deep, X, y, eps=eps)
        assert a == pytest.approx(b, abs=1e-12)

    def test_components_equal_mean_propagated_dgp(self):
        sigma, deep, X, y = self._paired()
        eps = np.zeros((1, X.shape[0], deep.depth * deep.width))
        mus, vars_ = forward_sample(deep, X, eps=eps)
        s_mus, s_vars = sigma._component_moments(X)
        np.testing.assert_allclose(s_mus, mus, atol=1e-12)
        np.testing.assert_allclose(s_vars, vars_, atol=1e-12)


# -- objective ----------------------------------------------------------------------


class TestObjective:
    def test_matches_recomputation_from_predictive_moments(self):
        model, X, y = _toy_dspp(num_sites=4, seed=41)
        beta = model.objective_spec.beta_reg
        shift, scale = model.target_shift, model.target_scale

        log_w = np.log(model.sigma_points().weights)
        data_term = 0.0
        for mix, target in zip(model.predictive(X), y):
            mu_std = (mix.means - shift) / scale
            var_std = mix.variances / (scale * scale)  # already includes obs noise
            y_std = (target - shift) / scale
            data_term += logsumexp(log_w + gaussian_logpdf(y_std, mu_std, var_std))

        kl = 0.0
        layers = [g for group in model.hidden_layers for g in group] + [model.output_layer]
        for gp in map(u_space, layers):
            kmm = kernel_eval(gp.kernel, gp.inducing_points, gp.inducing_points)
            kl += mvn_kl(
                MultivariateNormal(gp.variational_mean, gp.variational_cov_factor),
                MultivariateNormal(
                    np.zeros(gp.num_inducing), np.linalg.cholesky(kmm)
                ),
            )
        assert dspp_objective(model, X, y) == pytest.approx(
            -(data_term - beta * kl), abs=1e-9
        )

    def test_log_mixture_row_hand_case(self):
        # the objective's per-point reduction: log-sum-exp of log weights plus
        # component log densities; densities (0.1, 0.3) at weights (0.5, 0.5)
        rows = ad.constant(np.log(np.array([[0.1], [0.3]])))
        log_w = ad.constant(np.log(np.array([[0.5], [0.5]])))
        log_mix = ad.logsumexp(rows + log_w, axis=0)
        assert float(log_mix.data[0]) == pytest.approx(math.log(0.2), abs=1e-12)

    def test_gradients_pass_fd_check(self):
        model, X, y = _toy_dspp(num_sites=3, seed=23)
        err = fd_check(model.loss_fn(X, y), model.params, probes=25, rng=RngStream(2))
        assert err < 1e-4

    def test_sites_and_logits_receive_gradient(self):
        model, X, y = _toy_dspp(num_sites=3, seed=29)
        model.objective_grad(X, y)
        for name in ("sites", "site_logits"):
            e = model.params.entry(name)
            assert np.any(model.params.grad[e.offset : e.offset + e.size] != 0.0)

    def test_finite_far_into_the_tails(self):
        model, X, y = _toy_dspp(seed=31)
        far = y + 40.0 * (1.0 + np.abs(y))
        assert math.isfinite(dspp_objective(model, X, far))

    def test_beta_scales_only_the_kl(self):
        model, X, y = _toy_dspp(seed=37)
        values = []
        for beta in (1.0, 2.0, 3.0):
            model.objective_spec = ObjectiveSpec("ppgpr", beta_reg=beta)
            values.append(dspp_objective(model, X, y))
        assert values[2] - values[1] == pytest.approx(values[1] - values[0], rel=1e-8)

    def test_rejects_elbo_kind(self):
        model, X, y = _toy_dspp(seed=43)
        model.objective_spec = ObjectiveSpec("elbo")
        with pytest.raises(ValueError):
            model.objective_grad(X, y)


# -- constructor contracts ---------------------------------------------------------------


class TestModel:
    def test_needs_a_hidden_layer(self):
        X = RNG.standard_normal((5, 2))
        with pytest.raises(ValueError):
            DSPPModel.create(X, np.zeros(5), width=2, depth=0, num_inducing=2)

    def test_state_round_trip(self):
        model, X, _ = _toy_dspp(seed=47)
        clone = DSPPModel.from_state(model.config_dict(), model.state_arrays())
        for mix_a, mix_b in zip(model.predictive(X), clone.predictive(X)):
            np.testing.assert_array_equal(mix_a.means, mix_b.means)
            np.testing.assert_array_equal(mix_a.variances, mix_b.variances)
            np.testing.assert_array_equal(mix_a.weights, mix_b.weights)

    def test_default_objective_is_ppgpr(self):
        model, _, _ = _toy_dspp(seed=49)
        assert model.objective_spec.kind == "ppgpr"
