"""Dropout MLP: masking algebra, loss terms, Monte-Carlo predictive moments.

Networks here are models whose layers are set through ``params.set_value``
and evaluated through the model's own graph builders. The rigged single-unit
network makes every quantity hand-computable: with keep probability 1/2 the
two masked passes give exactly {3, 1}, so the predictive moments follow from
arithmetic. Expectation checks compare the maskless pass with large mask
averages at Monte-Carlo tolerance.
"""

import math
import sys

import numpy as np
import pytest

from gp_oracle import relu
import rulkit.autodiff as ad
from rulkit import mcd, parallel
from rulkit.experiment import ExperimentConfig, build_model, model_config, model_from_config
from rulkit.mcd import NOISE_FLOOR, MCDModel, _forward_graph
from rulkit.params import OptimizerState, ParamView, RngStream, adam_step, fd_check, value_and_grad

RNG = np.random.default_rng(900)


def _net(weights, biases, keep_prob, heteroscedastic, noise_variance=1.0, test_samples=4):
    """A model in raw target space (shift 0, scale 1) carrying the given
    layers; every hidden layer must have the same width."""
    widths = {w.shape[1] for w in weights[:-1]}
    assert len(widths) == 1
    model = MCDModel(
        weights[0].shape[0],
        len(weights) - 1,
        widths.pop(),
        keep_prob,
        heteroscedastic=heteroscedastic,
        noise_variance=noise_variance,
        test_samples=test_samples,
    )
    for i, (w, b) in enumerate(zip(weights, biases)):
        model.params.set_value(f"w{i}", w)
        model.params.set_value(f"b{i}", b)
    return model


def _forward(model: MCDModel, X, keeps=None):
    """Prediction (and noise variance when heteroscedastic) per row of X from
    the model's forward builder; ``keeps=None`` is the maskless pass."""
    wts, bts = model._layers(ParamView(model.params, trainable=False))
    x = ad.constant(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    mean, noise = _forward_graph(wts, bts, x, keeps, model.keep_prob, model.heteroscedastic)
    return mean.data, (None if noise is None else noise.data)


def _masks(model: MCDModel, n: int, rng: RngStream):
    return model._masks(n, rng)


def _loss(model: MCDModel, X, y, weight_decay: float, rng: RngStream) -> float:
    """Training loss on a batch with fresh masks."""
    model.weight_decay = weight_decay
    return model.objective_grad(X, y, rng=rng)


def _linear_net(w=2.0, b=0.0):
    """One hidden identity unit on nonnegative inputs: f(x) = w x + b."""
    return _net(
        [np.array([[1.0]]), np.array([[w]])],
        [np.array([0.0]), np.array([b])],
        keep_prob=1.0,
        heteroscedastic=False,
        noise_variance=1.0,
    )


def _rigged_net(keep_prob=0.5, test_samples=4):
    """One hidden unit pinned at 1 before dropout, constant noise head.

    Maskless: h = relu(0*x + 1) = 1, mean = 1*h + 1 = 2, tau = exp(ln 0.5).
    Masked with keep 1/2: h scales to 2 or drops to 0, so mean is 3 or 1.
    """
    return _net(
        [np.array([[0.0]]), np.array([[1.0, 0.0]])],
        [np.array([1.0]), np.array([1.0, math.log(0.5)])],
        keep_prob=keep_prob,
        heteroscedastic=True,
        test_samples=test_samples,
    )


def _random_layers(input_dim=2, hidden=(8, 8), heteroscedastic=True, seed=0):
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *hidden, 2 if heteroscedastic else 1]
    weights = [rng.standard_normal((sizes[i], sizes[i + 1])) * 0.5 for i in range(len(sizes) - 1)]
    biases = [rng.standard_normal(sizes[i + 1]) * 0.1 for i in range(len(sizes) - 1)]
    return weights, biases


def _random_net(input_dim=2, hidden=(8, 8), heteroscedastic=True, keep_prob=0.7, seed=0,
                test_samples=4):
    weights, biases = _random_layers(input_dim, hidden, heteroscedastic, seed)
    return _net(weights, biases, keep_prob, heteroscedastic, test_samples=test_samples)


# -- forward pass ------------------------------------------------------------------


class TestForward:
    def test_linear_net_is_linear(self):
        out, noise = _forward(_linear_net(2.0, 0.0), np.array([3.0]))
        assert out[0] == 6.0
        assert noise is None

    def test_full_keep_mask_equals_maskless(self):
        net = _random_net(keep_prob=1.0)
        X = RNG.standard_normal((7, 2))
        keeps = _masks(net, 7, RngStream(1))
        for keep in keeps:
            assert keep.dtype == bool
            np.testing.assert_array_equal(keep, True)  # Bernoulli(1) keeps all
        masked, tau_m = _forward(net, X, keeps)
        plain, tau_p = _forward(net, X)
        np.testing.assert_array_equal(masked, plain)
        np.testing.assert_array_equal(tau_m, tau_p)

    def test_masked_pass_is_unbiased_for_one_hidden_layer(self):
        # inverted dropout after the only hidden layer: the output is linear
        # in the masked activations, so the mask expectation is the maskless
        # pass; checked against 1e5 draws at 3 standard errors
        weights, biases = _random_layers(hidden=(8,), seed=3)
        net = _net(weights, biases, keep_prob=0.6, heteroscedastic=True)
        x = np.array([0.4, -1.2])
        (plain,), _ = _forward(net, x)
        draws = 100_000
        rng = RngStream(7)
        masks = rng.bernoulli(net.keep_prob, size=(draws, 8))
        h = np.maximum(weights[0].T @ x + biases[0], 0.0)
        hidden = masks * h / net.keep_prob
        outs = hidden @ weights[1][:, 0] + biases[1][0]
        se = outs.std() / math.sqrt(draws)
        assert abs(outs.mean() - plain) < 3.0 * se

    def test_noise_head_floor(self):
        weights, biases = _random_layers(seed=5)
        weights[-1][:, 1] = 0.0
        biases[-1][1] = -100.0  # exp underflows far below the floor
        net = _net(weights, biases, keep_prob=0.7, heteroscedastic=True)
        _, tau = _forward(net, RNG.standard_normal((3, 2)))
        np.testing.assert_array_equal(tau, 1e-8)

    def test_mask_shape_mismatch_raises(self):
        net = _random_net()
        bad = [np.ones((3, 8), dtype=bool), np.ones((3, 5), dtype=bool)]
        with pytest.raises(ValueError):
            _forward(net, RNG.standard_normal((3, 2)), bad)


# -- training loss -----------------------------------------------------------------


class TestLoss:
    def test_perfect_fit_no_decay_is_zero(self):
        net = _linear_net(2.0, 1.0)
        X = np.array([[0.0], [1.0], [2.0]])
        y = 2.0 * X[:, 0] + 1.0
        assert _loss(net, X, y, weight_decay=0.0, rng=RngStream(0)) == 0.0

    def test_zero_error_decay_one_counts_only_weights(self):
        # output layer zeroed with bias = y: the fit term vanishes for every
        # mask, leaving exactly the sum of squared weight entries (not biases)
        rng = np.random.default_rng(4)
        w1 = rng.standard_normal((3, 5))
        net = _net(
            [w1, np.zeros((5, 1))],
            [rng.standard_normal(5), np.array([2.5])],
            keep_prob=0.5,
            heteroscedastic=False,
        )
        X = rng.standard_normal((6, 3))
        y = np.full(6, 2.5)
        value = _loss(net, X, y, weight_decay=1.0, rng=RngStream(9))
        assert value == pytest.approx(float((w1 * w1).sum()), rel=1e-12)

    def test_homoscedastic_fit_is_mean_squared_error(self):
        net = _random_net(heteroscedastic=False, keep_prob=1.0, seed=8)
        X = RNG.standard_normal((5, 2))
        y = RNG.standard_normal(5)
        pred, _ = _forward(net, X)
        assert _loss(net, X, y, 0.0, RngStream(0)) == pytest.approx(
            float(np.mean((y - pred) ** 2)), rel=1e-12
        )

    def test_heteroscedastic_fit_is_mean_gaussian_nll(self):
        net = _random_net(keep_prob=1.0, seed=9)
        X = RNG.standard_normal((5, 2))
        y = RNG.standard_normal(5)
        mean, tau = _forward(net, X)
        nll = 0.5 * (np.log(tau) + (y - mean) ** 2 / tau + math.log(2.0 * math.pi))
        assert _loss(net, X, y, 0.0, RngStream(0)) == pytest.approx(
            float(nll.mean()), rel=1e-12
        )


# -- Monte-Carlo prediction -----------------------------------------------------------


class TestMcPredict:
    """MCDModel.predictive on models carrying hand-set weights."""

    def test_rigged_two_draw_moments(self):
        # find a stream whose first two Bernoulli(1/2) draws are keep, drop:
        # the two passes then give exactly 3 and 1, tau constant 1/2, so
        # mean = 2 and variance = 0.5 + 1.0 = 1.5
        model = _rigged_net(test_samples=2)
        x = np.array([[0.0]])

        def first_two(s):
            r = RngStream(s)
            return tuple(bool(_masks(model, 1, r)[0][0, 0]) for _ in range(2))

        seed = next(s for s in range(1000) if first_two(s) == (True, False))
        r = RngStream(seed)
        raw = [_forward(model, x, _masks(model, 1, r))[0][0] for _ in range(2)]
        np.testing.assert_array_equal(np.sort(raw), [1.0, 3.0])
        pred = model.predictive(x, rng=RngStream(seed))
        (mean,), (var,) = pred.mean, pred.var
        assert mean == pytest.approx(2.0, abs=1e-14)
        assert var == pytest.approx(1.5, abs=1e-14)

    def test_full_keep_leaves_only_noise_variance(self):
        model = _rigged_net(keep_prob=1.0, test_samples=16)
        pred = model.predictive(np.array([[0.0]]), rng=RngStream(3))
        (mean,), (var,) = pred.mean, pred.var
        assert mean == pytest.approx(2.0, abs=1e-14)
        assert var == pytest.approx(0.5, abs=1e-14)

    def test_variance_at_least_smallest_noise_draw(self):
        model = _random_net(hidden=(8, 8), seed=11, keep_prob=0.5, test_samples=32)
        for _ in range(5):
            x = RNG.standard_normal((1, 2))
            seed = int(abs(x[0, 0]) * 1e6)
            (var,) = model.predictive(x, rng=RngStream(seed)).var
            r = RngStream(seed)
            taus = [_forward(model, x, _masks(model, 1, r))[1][0] for _ in range(32)]
            assert var >= min(taus) - 1e-9

    @pytest.mark.parametrize("hidden", [(6,), (6, 6)])
    @pytest.mark.parametrize("keep_prob", [0.5, 1.0])
    @pytest.mark.parametrize("heteroscedastic", [True, False])
    def test_passes_equal_the_graph_for_any_worker_count(
        self, hidden, keep_prob, heteroscedastic, monkeypatch
    ):
        # predictive computes the first hidden layer once and masks it per
        # pass (one maskless pass when keep_prob is 1); its moments must be
        # the bytes of T passes through the forward graph with masks drawn in
        # turn from the same stream, for one worker or two
        model = _random_net(hidden=hidden, keep_prob=keep_prob,
                            heteroscedastic=heteroscedastic, test_samples=5)
        X = RNG.standard_normal((9, 2))
        want_rng = RngStream(4)
        passes = [_forward(model, X, _masks(model, 9, want_rng)) for _ in range(5)]
        draws = np.array([f for f, _ in passes])
        taus = np.array([model.noise_variance if tau is None else tau for _, tau in passes])
        mean = draws.mean(axis=0)
        var = np.maximum(taus.mean(axis=0) + np.mean((draws - mean) ** 2, axis=0), NOISE_FLOOR)
        monkeypatch.setattr(mcd, "PARALLEL_MIN_UNIFORMS", 0)
        for workers in (1, 2):
            monkeypatch.setattr(mcd, "usable_cpus", lambda w=workers: w)
            rng = RngStream(4)
            pred = model.predictive(X, rng=rng)
            assert pred.mean.tobytes() == mean.tobytes()
            assert pred.var.tobytes() == var.tobytes()
            assert rng._gen.bit_generator.state == want_rng._gen.bit_generator.state

    def test_small_calls_and_one_cpu_start_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        model = _rigged_net(test_samples=4)
        monkeypatch.setattr(parallel, "Thread", refuse)
        monkeypatch.setattr(mcd, "usable_cpus", lambda: 4)
        model.predictive(np.zeros((3, 1)), RngStream(0))  # 12 uniforms, below the cutoff
        monkeypatch.setattr(mcd, "PARALLEL_MIN_UNIFORMS", 0)
        monkeypatch.setattr(mcd, "usable_cpus", lambda: 1)
        model.predictive(np.zeros((3, 1)), RngStream(0))

    def test_rejects_input_of_wrong_shape(self):
        model = _rigged_net(test_samples=4)
        for bad in (np.zeros((2, 1, 1)), np.zeros((2, 3))):
            with pytest.raises(ValueError):
                model.predictive(bad, RngStream(0))


class TestAgainstComposedGraph:
    """Training and prediction against a literal copy of the earlier code:
    five nodes per hidden layer with binary masks divided by keep_prob, and
    the per-pass prediction loop. Values must match bit for bit."""

    @staticmethod
    def _forward_graph(weights, biases, x, masks, keep_prob, heteroscedastic):
        h = x
        hidden = len(weights) - 1
        for i in range(hidden):
            h = relu(h @ weights[i] + biases[i])
            if masks is not None:
                h = h * ad.constant(masks[i]) * (1.0 / keep_prob)
        out = h @ weights[-1] + biases[-1]
        mean = out[:, 0]
        if heteroscedastic:
            return mean, ad.clamp_min(ad.exp(out[:, 1]), NOISE_FLOOR)
        return mean, None

    @staticmethod
    def _masks(model, n, rng):
        return [rng.bernoulli(model.keep_prob, size=(n, model.hidden_units))
                for _ in range(model.hidden_layers)]

    def _objective_grad(self, model, X, y, rng):
        masks = self._masks(model, X.shape[0], rng)

        def build(view):
            n = len(model._shapes())
            weights = [view.get(f"w{i}") for i in range(n)]
            biases = [view.get(f"b{i}") for i in range(n)]
            x = ad.constant(X)
            yt = ad.constant((y - model.target_shift) / model.target_scale)
            mean, noise = self._forward_graph(
                weights, biases, x, masks, model.keep_prob, model.heteroscedastic
            )
            if model.heteroscedastic:
                resid = yt - mean
                fit = ((ad.log(noise) + resid * resid / noise + np.log(2.0 * np.pi)) * 0.5).mean()
            else:
                resid = yt - mean
                fit = (resid * resid).mean()
            penalty = None
            for w in weights:
                term = (w * w).sum()
                penalty = term if penalty is None else penalty + term
            return fit + penalty * model.weight_decay

        return value_and_grad(model.params, build)

    def _predictive(self, model, X, rng):
        layers = range(model.hidden_layers + 1)
        wts = [ad.constant(model.params.decode(f"w{i}")) for i in layers]
        bts = [ad.constant(model.params.decode(f"b{i}")) for i in layers]
        n, t = X.shape[0], model.test_samples
        draws = np.zeros((t, n))
        taus = np.zeros((t, n))
        for k in range(t):
            masks = self._masks(model, n, rng)
            f, tau = self._forward_graph(
                wts, bts, ad.constant(X), masks, model.keep_prob, model.heteroscedastic
            )
            draws[k] = f.data
            taus[k] = tau.data if tau is not None else model.noise_variance
        mean = draws.mean(axis=0)
        var = taus.mean(axis=0) + np.mean((draws - mean) ** 2, axis=0)
        s = model.target_scale
        return [(m * s + model.target_shift, max(v, NOISE_FLOOR) * s * s)
                for m, v in zip(mean, var)]

    @pytest.mark.parametrize("heteroscedastic", [True, False])
    def test_training_and_prediction_bit_identical(self, heteroscedastic, monkeypatch):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((40, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(40)
        config = ExperimentConfig(
            kind="mcd", hidden_layers=3, hidden_units=7, keep_prob=0.6,
            heteroscedastic=heteroscedastic, test_samples=9,
        )
        model = build_model(config, X, y, RngStream(4))
        state = OptimizerState(learning_rate=1e-2)
        for step in range(3):
            want = self._objective_grad(model, X, y, RngStream(50 + step))
            want_grad = model.params.grad.copy()
            got = model.objective_grad(X, y, rng=RngStream(50 + step))
            assert got == want
            assert model.params.grad.tobytes() == want_grad.tobytes()
            adam_step(state, model.params)
        # the passes run in blocks, one thread per usable CPU, each block
        # drawing from a copy of the stream moved on to its first pass: any
        # worker count (one more than T included) and any row count must give
        # the sequential loop's bytes and leave the stream where it leaves it
        # (switching threads often, to shake out any write one block would
        # make into another's rows)
        t = model.test_samples
        monkeypatch.setattr(mcd, "PARALLEL_MIN_UNIFORMS", 0)  # these calls are small
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for keep_prob in (0.6, 1.0):
                model.keep_prob = keep_prob
                for workers in (1, 2, 3, t + 1):
                    monkeypatch.setattr(mcd, "usable_cpus", lambda w=workers: w)
                    for rows in (X, X[:1], X[:0]):
                        got_rng, want_rng = RngStream(8), RngStream(8)
                        pred = model.predictive(rows, rng=got_rng)
                        want = np.array(self._predictive(model, rows, want_rng)).reshape(-1, 2)
                        assert np.column_stack([pred.mean, pred.var]).tobytes() == want.tobytes()
                        state = got_rng._gen.bit_generator.state
                        assert state == want_rng._gen.bit_generator.state
        finally:
            sys.setswitchinterval(interval)


# -- trainable model -------------------------------------------------------------------


class TestMCDModel:
    def _toy(self, **kwargs):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((16, 2))
        y = X[:, 0] - 0.5 * X[:, 1] + 0.05 * rng.standard_normal(16)
        defaults = dict(kind="mcd", hidden_layers=2, hidden_units=6, keep_prob=0.7, test_samples=16)
        defaults.update(kwargs)
        return build_model(ExperimentConfig(**defaults), X, y, RngStream(1)), X, y

    @pytest.mark.parametrize("heteroscedastic", [True, False])
    def test_gradients_pass_fd_check(self, heteroscedastic):
        model, X, y = self._toy(heteroscedastic=heteroscedastic)
        err = fd_check(
            lambda p: model.objective_grad(X, y, rng=RngStream(2)),
            model.params,
            probes=25,
            rng=RngStream(5),
        )
        assert err < 1e-4

    def test_point_baseline_with_noise_head_rejected(self):
        with pytest.raises(ValueError, match="no noise head"):
            MCDModel(2, 2, 6, 0.7, heteroscedastic=True, point_baseline=True)

    def test_point_baseline_predicts_masklessly(self):
        model, X, y = self._toy(kind="ffnn")
        preds = model.predictive(X)
        assert preds.kind == "point"
        raw, _ = _forward(model, X)
        np.testing.assert_allclose(
            preds.mean,
            raw * model.target_scale + model.target_shift,
            atol=1e-12,
        )

    def test_predictive_is_seed_reproducible(self):
        model, X, _ = self._toy()
        a = model.predictive(X, rng=RngStream(12))
        b = model.predictive(X, rng=RngStream(12))
        assert list(zip(a.mean, a.var)) == list(zip(b.mean, b.var))

    def test_predictive_mean_converges_with_samples(self):
        # successive doublings of T must shrink the Monte-Carlo wobble of the
        # predictive mean; medians over 50 inputs keep the check stable
        model, X, _ = self._toy(hidden_layers=1, keep_prob=0.5)
        model.params.values += 0.3 * np.random.default_rng(2).standard_normal(
            model.params.size
        )
        Xq = np.random.default_rng(3).standard_normal((50, 2))

        def means(t, seed):
            model.test_samples = t
            return model.predictive(Xq, rng=RngStream(seed)).mean

        gap_coarse = np.median(np.abs(means(1024, 1) - means(256, 2)))
        gap_fine = np.median(np.abs(means(4096, 3) - means(1024, 4)))
        assert gap_fine < gap_coarse

    def test_ffnn_learns_a_line(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.0, 1.0, size=(64, 1))
        y = 2.0 * X[:, 0]
        config = ExperimentConfig(
            kind="ffnn", hidden_layers=1, hidden_units=16, keep_prob=0.9, weight_decay=1e-6,
            test_samples=128,
        )
        model = build_model(config, X, y, RngStream(2))
        state = OptimizerState(learning_rate=1e-2)
        train = RngStream(3)
        for step in range(400):
            model.objective_grad(X, y, rng=train.derive(step))
            adam_step(state, model.params)
        (value,) = model.predictive(np.array([[0.5]])).mean
        assert value == pytest.approx(1.0, abs=0.05)

    def test_state_round_trip(self):
        model, X, _ = self._toy()
        clone = model_from_config(model_config(model), model.params.values)
        a = model.predictive(X, rng=RngStream(8))
        b = clone.predictive(X, rng=RngStream(8))
        assert list(zip(a.mean, a.var)) == list(zip(b.mean, b.var))

    def test_config_reports_ffnn_for_point_baseline(self):
        model, _, _ = self._toy(kind="ffnn")
        assert model_config(model)["kind"] == "ffnn"
        assert model_config(self._toy()[0])["kind"] == "mcd"


# -- constructor validation ---------------------------------------------------------------


class TestMLPValidation:
    """The checks a directly built model makes on its dropout and noise
    settings and on the shapes of its layers."""

    def test_keep_prob_bounds(self):
        with pytest.raises(ValueError, match="keep_prob"):
            MCDModel(1, 1, 1, keep_prob=0.0, heteroscedastic=False)
        with pytest.raises(ValueError, match="keep_prob"):
            MCDModel(1, 1, 1, keep_prob=1.2, heteroscedastic=False)

    def test_layer_list_mismatch(self):
        # a bias must match the width of its layer
        model = MCDModel(1, 1, 1, keep_prob=1.0, heteroscedastic=False)
        with pytest.raises(ValueError):
            model.params.set_value("b0", np.zeros(2))

    def test_homoscedastic_needs_positive_noise(self):
        with pytest.raises(ValueError, match="noise_variance"):
            MCDModel(1, 1, 1, keep_prob=1.0, heteroscedastic=False, noise_variance=0.0)
