"""Doubly-stochastic deep GP: propagation, reductions, Monte-Carlo behavior.

The heavy oracle here is a from-scratch numpy/scipy implementation of the
unwhitened sparse-GP predictive equations (``gp_oracle``), fed each layer's
posterior mapped to u-space and chained by hand through the hidden layer with
a large reparametrized sample; the model's T-sample mixture must agree with
it within combined Monte-Carlo standard errors.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from gp_oracle import layer_of, np_latent, u_space
from rulkit import autodiff as ad
from rulkit.dgp import DeepGPModel
from rulkit.dspp import DSPPModel
from rulkit.experiment import ExperimentConfig, build_model, model_config, model_from_config
from rulkit.metrics import Predictions
from rulkit.params import ParamView, RngStream, fd_check
from rulkit.svgp import SVGPModel, gp_layer

RNG = np.random.default_rng(401)


def _toy_dgp(depth=1, width=2, seed=2, objective_kind="elbo", **kwargs):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((10, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(10)
    config = ExperimentConfig(
        kind="dgp", width=width, depth=depth, num_inducing=4, objective=objective_kind, **kwargs
    )
    model = build_model(config, X, y, RngStream(seed))
    # nonzero variational means so hidden samples actually vary
    model.params.values += 0.2 * rng.standard_normal(model.params.size)
    return model, X, y


def _sampled(model, X, rng, samples):
    """Output-layer latent moments, (T, n) each, under ``samples`` fresh
    hidden draws from ``rng``."""
    return model._component_moments(X, model._draw_eps(X.shape[0], samples, rng))


def _objective(model, X, y, eps, objective=None) -> float:
    """Value of the negated deep bound on a batch under the hidden draws eps."""
    if objective is not None:
        model.objective = objective
    view = ParamView(model.params, trainable=False)
    return float(model._build(view, X, y, 1.0, eps).data)


def _hidden_layers(model):
    return [
        [layer_of(model.params, f"h{l}", w) for w in range(model.width)]
        for l in range(model.depth)
    ]


# -- mixture plumbing ------------------------------------------------------------


def _moments(weights, means, variances):
    """Moment-matched mean and variance of a one-row mixture batch."""
    mix = Predictions.mixture(weights, [means], [variances])
    return mix.mean[0], mix.var[0]


class TestMixtureMoments:
    def test_two_component_hand_case(self):
        mean, var = _moments([0.5, 0.5], [1.0, 3.0], [1.0, 1.0])
        assert mean == pytest.approx(2.0, abs=1e-14)
        assert var == pytest.approx(2.0, abs=1e-14)

    def test_degenerate_weight_selects_component(self):
        mean, var = _moments([1.0, 0.0], [0.7, 9.0], [0.2, 5.0])
        assert mean == pytest.approx(0.7, abs=1e-14)
        assert var == pytest.approx(0.2, abs=1e-14)

    def test_identical_components_collapse(self):
        mean, var = _moments([0.25] * 4, [1.3] * 4, [0.6] * 4)
        assert mean == pytest.approx(1.3, abs=1e-12)
        assert var == pytest.approx(0.6, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Predictions.mixture([0.6, 0.6], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            Predictions.mixture([1.5, -0.5], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            Predictions.mixture([0.5, 0.5], [[0.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            Predictions.mixture([0.5, 0.5], [[0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]])


# -- forward propagation -----------------------------------------------------------


class TestForwardSample:
    """Output-layer latent moments under explicit hidden draws."""

    def test_zero_eps_is_mean_propagation(self):
        model, X, _ = _toy_dgp()
        eps = np.zeros((1, X.shape[0], model.depth * model.width))
        mus, vars_ = model._component_moments(X, eps)
        hidden = [u_space(gp) for gp in _hidden_layers(model)[0]]
        feats = np.column_stack(
            [np_latent(gp, X)[0] for gp in hidden] + [X]
        )
        mu_ref, var_ref = np_latent(u_space(layer_of(model.params, "out")), feats)
        np.testing.assert_allclose(mus[0], mu_ref, atol=1e-9)
        np.testing.assert_allclose(vars_[0], var_ref, atol=1e-9)

    def test_drawn_eps_match_hand_propagation(self):
        # depth 2: component t's draws for GP w of layer l sit in column
        # l * width + w of its (n, depth * width) block
        model, X, _ = _toy_dgp(depth=2, width=2)
        eps = RngStream(5).normal(size=(3, X.shape[0], model.depth * model.width))
        mus, vars_ = model._component_moments(X, eps)
        hidden = [[u_space(gp) for gp in layer] for layer in _hidden_layers(model)]
        output = u_space(layer_of(model.params, "out"))
        for t in range(eps.shape[0]):
            feats = X
            for l, layer in enumerate(hidden):
                cols = []
                for w, gp in enumerate(layer):
                    mu, var = np_latent(gp, feats)
                    cols.append(mu + np.sqrt(var) * eps[t, :, l * model.width + w])
                feats = np.column_stack(cols + [X])
            mu_ref, var_ref = np_latent(output, feats)
            np.testing.assert_allclose(mus[t], mu_ref, atol=1e-9)
            np.testing.assert_allclose(vars_[t], var_ref, atol=1e-9)

    def test_zero_eps_components_are_identical(self):
        model, X, _ = _toy_dgp()
        eps4 = np.zeros((4, X.shape[0], model.depth * model.width))
        eps1 = np.zeros((1, X.shape[0], model.depth * model.width))
        mus4, vars4 = model._component_moments(X, eps4)
        mus1, vars1 = model._component_moments(X, eps1)
        for t in range(4):
            np.testing.assert_allclose(mus4[t], mus1[0], atol=1e-12)
            np.testing.assert_allclose(vars4[t], vars1[0], atol=1e-12)

    def test_same_seed_identical_samples(self):
        model, X, _ = _toy_dgp()
        a = _sampled(model, X, RngStream(17), 6)
        b = _sampled(model, X, RngStream(17), 6)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_rejects_wrong_eps_shape(self):
        model, X, _ = _toy_dgp()
        with pytest.raises(ValueError):
            model._component_moments(X, np.zeros((2, 3, 1)))


# -- depth-0 reduction ----------------------------------------------------------------


class TestDepthZeroReduction:
    """A deep GP is the flat sparse GP plus hidden layers, so at depth 0 the
    two agree by construction; these pin that the construction holds."""

    def test_deep_models_train_through_the_flat_models_path(self):
        for cls in (DeepGPModel, DSPPModel):
            assert issubclass(cls, SVGPModel)
            for name in ("objective_grad", "_build", "_moments"):
                assert name not in vars(cls)

    def _paired_models(self, kind):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((9, 2))
        y = rng.standard_normal(9)
        flat = build_model(
            ExperimentConfig(kind="svgp", objective=kind, num_inducing=4), X, y, RngStream(3)
        )
        deep = build_model(
            ExperimentConfig(kind="dgp", objective=kind, width=1, depth=0, num_inducing=4),
            X, y, RngStream(3),
        )
        # same registration order (out.* mirrors gp.*), so raw vectors align
        flat.params.values += 0.1 * rng.standard_normal(flat.params.size)
        deep.params.values[:] = flat.params.values
        return flat, deep, X, y

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_objective_matches_flat_model(self, kind):
        flat, deep, X, y = self._paired_models(kind)
        assert deep.objective_grad(X, y) == flat.objective_grad(X, y)
        np.testing.assert_array_equal(deep.params.grad, flat.params.grad)

    def test_latent_moments_match_flat_model(self, subtests=None):
        flat, deep, X, y = self._paired_models("elbo")
        mus, vars_ = _sampled(deep, X, RngStream(0), 5)
        view = ParamView(flat.params, trainable=False)
        mu_ref, var_ref, _ = (
            t.data for t in gp_layer(view, "gp", ad.constant(X), flat.jitter)
        )
        assert mus.shape[0] == 1  # no hidden noise: one exact component
        np.testing.assert_array_equal(mus[0], mu_ref)
        np.testing.assert_array_equal(vars_[0], var_ref)

    def test_predictive_matches_flat_model(self):
        flat, deep, X, y = self._paired_models("elbo")
        mix, gauss = deep.predictive(X), flat.predictive(X)
        for mean, var, g_mean, g_var in zip(mix.mean, mix.var, gauss.mean, gauss.var):
            assert mean == g_mean
            assert var == pytest.approx(g_var, rel=1e-15)


# -- objective ---------------------------------------------------------------------


class TestObjective:
    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_gradients_pass_fd_check(self, kind):
        model, X, y = _toy_dgp(objective_kind=kind, train_samples=3)
        err = fd_check(
            lambda p: model.objective_grad(X, y, rng=RngStream(4)),
            model.params,
            probes=25,
            rng=RngStream(1),
        )
        assert err < 1e-4

    def test_frozen_eps_reproduces_value(self):
        model, X, y = _toy_dgp()
        eps = RngStream(9).normal(size=(5, X.shape[0], model.depth * model.width))
        assert _objective(model, X, y, eps) == _objective(model, X, y, eps)

    def test_row_reordering_invariance(self):
        # permuting rows together with their eps draws must not change the loss
        model, X, y = _toy_dgp()
        eps = RngStream(9).normal(size=(4, X.shape[0], model.depth * model.width))
        perm = np.random.default_rng(0).permutation(X.shape[0])
        a = _objective(model, X, y, eps)
        b = _objective(model, X[perm], y[perm], eps[:, perm, :])
        assert a == pytest.approx(b, abs=1e-10)

    def test_mean_sample_objective_beats_no_data_fit(self):
        # smoke direction check: the frozen-eps loss is finite and the elbo and
        # ppgpr variants differ once latent variances are nonzero
        model, X, y = _toy_dgp()
        eps = np.zeros((1, X.shape[0], model.depth * model.width))
        e = _objective(model, X, y, eps, objective="elbo")
        p = _objective(model, X, y, eps, objective="ppgpr")
        assert math.isfinite(e) and math.isfinite(p)
        assert e != pytest.approx(p, abs=1e-6)


# -- Monte-Carlo agreement with a hand-rolled oracle ----------------------------------


class TestMonteCarlo:
    def test_mixture_tracks_brute_force_propagation(self):
        model, X, _ = _toy_dgp(seed=5)
        xstar = X[:1]
        t = 4000
        mus, vars_ = _sampled(model, xstar, RngStream(100), t)
        est_mean = mus[:, 0].mean()
        m2_samples = vars_[:, 0] + mus[:, 0] ** 2
        est_m2 = m2_samples.mean()
        se_mean = mus[:, 0].std() / math.sqrt(t)
        se_m2 = m2_samples.std() / math.sqrt(t)

        hidden = [u_space(gp) for gp in _hidden_layers(model)[0]]
        output = u_space(layer_of(model.params, "out"))
        stats = [np_latent(gp, xstar) for gp in hidden]
        draws = 1_000_000
        rng = np.random.default_rng(8)
        ref_mu = np.empty(draws)
        ref_m2 = np.empty(draws)
        for start in range(0, draws, 100_000):
            m = 100_000
            eps = rng.standard_normal((m, len(hidden)))
            g = np.column_stack(
                [mu[0] + math.sqrt(var[0]) * eps[:, w] for w, (mu, var) in enumerate(stats)]
            )
            feats = np.hstack([g, np.repeat(xstar, m, axis=0)])
            mu_f, var_f = np_latent(output, feats)
            ref_mu[start : start + m] = mu_f
            ref_m2[start : start + m] = var_f + mu_f**2
        ref_se_mean = ref_mu.std() / math.sqrt(draws)
        ref_se_m2 = ref_m2.std() / math.sqrt(draws)

        tol_mean = 3.0 * math.hypot(se_mean, ref_se_mean)
        tol_m2 = 3.0 * math.hypot(se_m2, ref_se_m2)
        assert abs(est_mean - ref_mu.mean()) < tol_mean
        assert abs(est_m2 - ref_m2.mean()) < tol_m2

    def test_more_samples_reduce_nll_scatter(self):
        model, X, y = _toy_dgp(seed=11)
        Xq, yq = X[:5], y[:5]

        def nll_at(t, seed):
            model.num_test_samples = t
            total = 0.0
            mix = model.predictive(Xq, rng=RngStream(seed))
            for weights, means, variances, target in zip(
                mix.weights, mix.means, mix.variances, yq
            ):
                lp = (
                    -0.5 * (np.log(2.0 * np.pi * variances)
                            + (target - means) ** 2 / variances)
                )
                total += -logsumexp(lp, b=weights)
            return total / len(yq)

        coarse = np.std([nll_at(8, s) for s in range(20)])
        fine = np.std([nll_at(64, s) for s in range(20)])
        assert fine < coarse

    def test_mixture_variance_floor(self):
        model, X, _ = _toy_dgp(seed=13)
        floor = model.params.decode("obs_variance") * model.target_scale**2
        mix = model.predictive(RNG.standard_normal((12, 2)), rng=RngStream(3))
        for var, variances in zip(mix.var, mix.variances):
            assert var >= floor * (1.0 - 1e-12)
            assert np.all(variances >= floor * (1.0 - 1e-12))


# -- graph size ---------------------------------------------------------------------


def _op_nodes(root) -> int:
    """Operation nodes the backward pass from ``root`` visits (leaves excluded)."""
    seen: set[int] = set()
    stack = [root]
    ops = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += node._vjp is not None
        stack.extend(p for p in node._parents if p.requires_grad)
    return ops


def _step_nodes(model, X, y, monkeypatch) -> int:
    """Operation nodes in the graph of one ``objective_grad`` step."""
    roots = []
    backward = ad.Tensor.backward

    def recording(self):
        roots.append(self)
        return backward(self)

    with monkeypatch.context() as patch:
        patch.setattr(ad.Tensor, "backward", recording)
        model.objective_grad(X, y, rng=RngStream(4))
    return _op_nodes(roots[0])


class TestGraphSize:
    """The component axis is an array axis: one step's graph has the same
    nodes whatever the number of hidden samples or sigma points."""

    @pytest.mark.parametrize("kind", ["elbo", "ppgpr"])
    def test_dgp_nodes_do_not_grow_with_samples(self, kind, monkeypatch):
        counts = []
        for samples in (2, 10):
            model, X, y = _toy_dgp(depth=2, width=3, objective_kind=kind,
                                   train_samples=samples)
            counts.append(_step_nodes(model, X, y, monkeypatch))
        assert counts[0] == counts[1]

    def test_dspp_nodes_do_not_grow_with_sites(self, monkeypatch):
        counts = []
        for sites in (3, 15):
            rng = np.random.default_rng(3)
            X = rng.standard_normal((10, 2))
            y = np.sin(X[:, 0])
            config = ExperimentConfig(kind="dspp", objective="ppgpr", width=3, depth=2,
                                      num_inducing=4, num_sites=sites)
            model = build_model(config, X, y, RngStream(3))
            counts.append(_step_nodes(model, X, y, monkeypatch))
        assert counts[0] == counts[1]


# -- checkpoint round trip --------------------------------------------------------------


class TestStateRoundTrip:
    def test_predictions_survive_reload(self):
        model, X, y = _toy_dgp(seed=19)
        clone = model_from_config(model_config(model), model.params.values)
        a = model.predictive(X, rng=RngStream(2))
        b = clone.predictive(X, rng=RngStream(2))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
