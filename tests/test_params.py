"""Parameter registry, transforms, Adam, rng streams and the fd checker.

Closed-form expectations (softplus(0) = ln 2, the bias-corrected first Adam
step, the quadratic gradient) are computed in-line; the finite-difference
checker is exercised against itself on an SVGP instance small enough to be
fast but wide enough to touch every parameter group.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit import autodiff as ad
from rulkit.mathcore import NumericalError
from rulkit.params import (
    ADAM_EPS,
    BETA1,
    BETA2,
    IDENTITY,
    POSITIVE,
    CholeskyFactor,
    GradientError,
    OptimizerState,
    ParamVector,
    RngStream,
    adam_step,
    fd_check,
    minibatch_iter,
    value_and_grad,
)
from rulkit.experiment import ExperimentConfig, build_model
from rulkit.svgp import SVGPModel

RNG = np.random.default_rng(77)


# -- transforms ---------------------------------------------------------------


class TestTransforms:
    def test_softplus_of_raw_zero_is_log_two(self):
        p = ParamVector()
        p.register("noise", (), transform=POSITIVE)
        assert p.decode("noise") == pytest.approx(math.log(2.0), abs=1e-12)

    def test_positive_round_trip(self):
        p = ParamVector()
        p.register("scale", (), transform=POSITIVE, init=3.7)
        assert p.decode("scale") == pytest.approx(3.7, abs=1e-12)

    def test_positive_round_trip_large_and_small(self):
        for v in (1e-6, 0.1, 50.0, 700.0):
            p = ParamVector()
            p.register("s", (), transform=POSITIVE, init=v)
            assert p.decode("s") == pytest.approx(v, rel=1e-12)

    def test_positive_rejects_nonpositive_init(self):
        p = ParamVector()
        with pytest.raises(ValueError):
            p.register("s", (), transform=POSITIVE, init=0.0)

    def test_cholesky_factor_round_trip(self):
        n = 4
        L = np.tril(RNG.standard_normal((n, n)))
        np.fill_diagonal(L, np.abs(np.diag(L)) + 0.5)
        t = CholeskyFactor(n)
        packed = t.invert(L, (n, n))
        np.testing.assert_allclose(t.apply(ad.constant(packed), (n, n)).data, L, atol=1e-12)

    def test_stacked_cholesky_factor_round_trip(self):
        # a stack of W factors packs each one as a single factor would, the
        # stack axis outermost
        n, width = 4, 3
        L = np.tril(np.random.default_rng(5).standard_normal((width, n, n)))
        for one in L:
            np.fill_diagonal(one, np.abs(np.diag(one)) + 0.5)
        t = CholeskyFactor(n)
        packed = t.invert(L, (width, n, n))
        assert t.raw_size((width, n, n)) == packed.size == width * n * (n + 1) // 2
        np.testing.assert_allclose(t.apply(ad.constant(packed), (width, n, n)).data, L,
                                   atol=1e-12)
        singles = np.concatenate([t.invert(one, (n, n)) for one in L])
        np.testing.assert_array_equal(packed, singles)

    def test_cholesky_factor_rejects_bad_input(self):
        t = CholeskyFactor(3)
        with pytest.raises(ValueError):
            t.invert(np.eye(2), (3, 3))
        bad = np.eye(3)
        bad[1, 1] = -1.0
        with pytest.raises(ValueError):
            t.invert(bad, (3, 3))
        with pytest.raises(ValueError):
            t.invert(np.eye(3), (2, 3, 3))
        with pytest.raises(ValueError):
            t.invert(np.broadcast_to(bad, (2, 3, 3)), (2, 3, 3))
        with pytest.raises(ValueError):
            t.apply(ad.constant(np.zeros(6)), (2, 3, 3))


# -- registry layout ------------------------------------------------------------


class TestParamVector:
    def test_slices_tile_the_vector(self):
        p = ParamVector()
        p.register("a", (2, 3))
        p.register("b", (), transform=POSITIVE)
        p.register("c", (4,))
        offsets = sorted((p.entry(n).offset, p.entry(n).size) for n in p._entries)
        cursor = 0
        for off, size in offsets:
            assert off == cursor
            cursor += size
        assert cursor == p.size == 11

    def test_registered_slices_share_one_allocation_of_theta_and_grad(self):
        p = ParamVector()
        init = np.arange(3.0)
        p.register("a", (3,), init=init)
        p.register("b", (), transform=POSITIVE, init=2.0)
        p.register("c", (2,))
        init[:] = -1.0  # register keeps a copy
        theta, grad = p.values, p.grad
        assert p.values is theta and p.grad is grad
        np.testing.assert_array_equal(theta, [0.0, 1.0, 2.0, POSITIVE.invert(2.0, ())[0], 0, 0])
        np.testing.assert_array_equal(grad, np.zeros(6))
        p.register("d", (1,), init=[5.0])  # a later slice is appended
        np.testing.assert_array_equal(p.values, np.append(theta, 5.0))
        assert p.size == p.grad.size == 7

    def test_duplicate_name_rejected(self):
        p = ParamVector()
        p.register("a", (2,))
        with pytest.raises(ValueError):
            p.register("a", (3,))

    def test_unknown_name_rejected(self):
        p = ParamVector()
        with pytest.raises(KeyError):
            p.decode("missing")

    def test_set_value_overwrites_slice(self):
        p = ParamVector()
        p.register("m", (2, 2))
        p.register("v", (), transform=POSITIVE, init=1.0)
        target = np.array([[1.0, 2.0], [3.0, 4.0]])
        p.set_value("m", target)
        np.testing.assert_array_equal(p.decode("m"), target)
        assert p.decode("v") == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("transform", [IDENTITY, POSITIVE])
    @pytest.mark.parametrize("shape, value_shape", [((2, 2), (4, 1)), ((2,), (2, 1)),
                                                    ((2,), (1, 2)), ((), (1,)), ((1,), ())])
    def test_a_value_of_another_shape_is_refused_naming_the_slice(self, transform, shape,
                                                                  value_shape):
        # the sizes match, so a reshape would take it
        value = np.ones(value_shape)
        shapes = f"{re.escape(str(shape))}.*{re.escape(str(value_shape))}"
        p = ParamVector()
        with pytest.raises(ValueError, match=rf"'a'.*{shapes}"):
            p.register("a", shape, transform, init=value)
        p.register("b", shape, transform, init=np.ones(shape))
        before = p.values.copy()
        with pytest.raises(ValueError, match=rf"'b'.*{shapes}"):
            p.set_value("b", value)
        np.testing.assert_array_equal(p.values, before)
        assert p.size == before.size  # the refused slice was not registered

    def test_a_model_slice_refuses_a_value_of_another_shape(self):
        params = SVGPModel("elbo", 1.0, 2, 2).params
        with pytest.raises(ValueError, match=r"'gp.z'.*\(2, 2\).*\(4, 1\)"):
            params.set_value("gp.z", np.zeros((4, 1)))
        with pytest.raises(ValueError, match=r"'gp.lengthscales'.*\(2,\).*\(2, 1\)"):
            params.set_value("gp.lengthscales", np.ones((2, 1)))

    def test_writing_into_a_decoded_slice_leaves_the_parameters(self):
        p = ParamVector()
        p.register("z", (2, 3), init=np.arange(6.0).reshape(2, 3))
        before = p.values.copy()
        z = p.decode("z")
        z += 1.0
        np.testing.assert_array_equal(p.values, before)

    def test_slices_containing_names_the_owner(self):
        p = ParamVector()
        p.register("a", (3,))
        p.register("b", (2,))
        assert p.slices_containing(np.array([0])) == ["a"]
        assert p.slices_containing(np.array([4])) == ["b"]
        assert p.slices_containing(np.array([1, 3])) == ["a", "b"]


# -- value_and_grad and the gradient contract ----------------------------------


def _sum_of_squares(params: ParamVector) -> float:
    return value_and_grad(
        params, lambda view: ad.total(view.get("theta") * view.get("theta"))
    )


class TestValueAndGrad:
    def test_quadratic_gradient(self):
        p = ParamVector()
        p.register("theta", (1,), init=[3.0])
        value = _sum_of_squares(p)
        assert value == pytest.approx(9.0, abs=1e-14)
        assert p.grad[0] == pytest.approx(6.0, abs=1e-12)

    def test_unused_slice_gets_zero_gradient(self):
        p = ParamVector()
        p.register("theta", (2,), init=[1.0, -2.0])
        p.register("spare", (3,), init=[0.3, 0.4, 0.5])
        _sum_of_squares(p)
        e = p.entry("spare")
        np.testing.assert_array_equal(p.grad[e.offset : e.offset + e.size], 0.0)


class TestFdCheck:
    def test_quadratic_within_1e7(self):
        p = ParamVector()
        p.register("theta", (1,), init=[3.0])
        assert fd_check(_sum_of_squares, p, probes=1) < 1e-7

    def test_independent_coordinate_reports_zero(self):
        p = ParamVector()
        p.register("theta", (2,), init=[1.0, 2.0])
        p.register("spare", (4,))
        assert fd_check(_sum_of_squares, p, probes=6) < 1e-8 + 1e-7

    def test_restores_values_and_gradient(self):
        p = ParamVector()
        p.register("theta", (5,), init=RNG.standard_normal(5))
        before = p.values.copy()
        _sum_of_squares(p)
        analytic = p.grad.copy()
        fd_check(_sum_of_squares, p, probes=5)
        np.testing.assert_array_equal(p.values, before)
        np.testing.assert_array_equal(p.grad, analytic)

    def test_nonfinite_loss_raises(self):
        p = ParamVector()
        p.register("theta", (2,))

        def bad(params):
            return float("nan")

        with pytest.raises(NumericalError):
            fd_check(bad, p)

    def test_svgp_elbo_small_instance(self):
        X = RNG.standard_normal((8, 2))
        y = RNG.standard_normal(8)
        config = ExperimentConfig(kind="svgp", num_inducing=3, inducing_init="random-subset")
        model = build_model(config, X, y, RngStream(5))
        # randomize the variational parameters so no gradient is trivially zero
        model.params.values += 0.05 * RNG.standard_normal(model.params.size)
        err = fd_check(
            lambda p: model.objective_grad(X, y), model.params, probes=20, rng=RngStream(1)
        )
        assert err < 1e-4


# -- Adam ------------------------------------------------------------------------


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        p = ParamVector()
        p.register("theta", (3,), init=[0.0, 0.0, 0.0])
        g = np.array([0.4, -2.0, 7.0])
        p.grad[:] = g
        state = OptimizerState(learning_rate=1e-3)
        adam_step(state, p)
        # bias correction makes m_hat = g and v_hat = g^2 on step one, so the
        # update is lr * g / (|g| + eps) = lr * sign(g) up to eps/|g|
        np.testing.assert_allclose(p.values, -1e-3 * np.sign(g), rtol=1e-6)
        assert state.step_count == 1

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = ParamVector()
        init = RNG.standard_normal(4)
        p.register("theta", (4,), init=init)
        before = p.values.copy()
        state = OptimizerState()
        adam_step(state, p)
        np.testing.assert_array_equal(p.values, before)

    def test_nonfinite_gradient_names_the_slice(self):
        p = ParamVector()
        p.register("weights", (3,))
        p.register("noise", (2,))
        p.grad[:3] = 1.0
        p.grad[3] = np.nan
        p.grad[4] = 1.0
        with pytest.raises(GradientError, match="noise"):
            adam_step(OptimizerState(), p)

    def test_frozen_slice_does_not_move(self):
        p = ParamVector()
        p.register("free", (2,), init=[1.0, 1.0])
        p.register("frozen", (2,), init=[5.0, 5.0])
        p.set_trainable("frozen", False)
        p.grad[:] = 1.0
        adam_step(OptimizerState(learning_rate=0.1), p)
        np.testing.assert_array_equal(p.decode("frozen"), [5.0, 5.0])
        assert np.all(p.decode("free") != 1.0)

    def test_same_seed_gives_bitwise_identical_trajectory(self):
        def run():
            rng = RngStream(11)
            p = ParamVector()
            p.register("theta", (6,), init=np.arange(6, dtype=float))
            state = OptimizerState(learning_rate=0.05)
            for step in range(40):
                noise = rng.derive(step).normal(6)
                p.grad[:] = 2.0 * p.values + noise
                adam_step(state, p)
            return p.values.copy()

        np.testing.assert_array_equal(run(), run())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40),
           steps=st.integers(1, 6), scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e150]))
    def test_updates_its_moments_in_place_with_the_formulas_bits(self, seed, size, steps, scale):
        rng = np.random.default_rng(seed)
        p = ParamVector()
        p.register("free", (size,), init=rng.standard_normal(size))
        p.register("frozen", (2,), init=rng.standard_normal(2))
        p.set_trainable("frozen", False)
        state = OptimizerState(learning_rate=float(rng.uniform(1e-4, 0.5)))
        values, m, v = p.values.copy(), np.zeros(p.size), np.zeros(p.size)
        mask = p.trainable_mask()
        for t in range(1, steps + 1):
            g = scale * rng.standard_normal(p.size)
            p.grad[:] = g
            moments = state.first_moment, state.second_moment
            adam_step(state, p)
            if t > 1:
                assert state.first_moment is moments[0] and state.second_moment is moments[1]
            # the update as the formulas read
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            values -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS) * mask
            for got, want in ((state.first_moment, m), (state.second_moment, v),
                              (p.values, values)):
                assert got.tobytes() == want.tobytes()

    def test_converges_on_a_quadratic(self):
        p = ParamVector()
        p.register("theta", (3,), init=[4.0, -3.0, 2.0])
        state = OptimizerState(learning_rate=0.1)
        for _ in range(600):
            p.grad[:] = 2.0 * p.values
            adam_step(state, p)
        assert np.max(np.abs(p.values)) < 1e-3


# -- rng streams -------------------------------------------------------------------


class TestRngStream:
    def test_same_seed_and_path_replay(self):
        a = RngStream(123).derive(4, 7)
        b = RngStream(123).derive(4, 7)
        np.testing.assert_array_equal(a.normal(16), b.normal(16))

    def test_derive_is_path_extension(self):
        a = RngStream(5).derive(1, 2)
        b = RngStream(5).derive(1).derive(2)
        np.testing.assert_array_equal(a.normal(8), b.normal(8))

    def test_distinct_paths_decorrelate(self):
        a = RngStream(5).derive(0).normal(32)
        b = RngStream(5).derive(1).normal(32)
        assert not np.array_equal(a, b)

    def test_child_streams_ignore_parent_consumption(self):
        parent = RngStream(9)
        first = parent.derive(3)
        parent.normal(100)
        second = parent.derive(3)
        np.testing.assert_array_equal(first.normal(5), second.normal(5))

    def test_bernoulli_is_zero_one_float(self):
        draws = RngStream(2).bernoulli(0.3, size=5000)
        assert draws.dtype == np.float64
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert abs(draws.mean() - 0.3) < 0.03

    def test_random_draws_the_values_uniform_draws(self):
        # dropout masks moved from uniform(size=...) to random(size); the
        # stream must give the same bits, so trained models do not change
        for size in [(7, 5), (3,), ()]:
            a, b = RngStream(6).derive(1), RngStream(6).derive(1)
            for _ in range(3):
                got, want = np.asarray(a.random(size)), np.asarray(b.uniform(size=size))
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [0, 1, 3 * 40 * 24 + 5])
    def test_ahead_starts_at_the_next_uniform(self, k):
        # each float64 uniform takes one PCG64 output, so a copy moved on by
        # k uniforms continues the stream; k = 3*40*24 + 5 is a few dropout
        # passes over 40 rows and 24 hidden units, plus 5
        s = RngStream(6).derive(2, 1)
        want = RngStream(6).derive(2, 1).random(k + 50)
        assert s.ahead(k).random(50).tobytes() == want[k:].tobytes()
        assert s.random(k + 50).tobytes() == want.tobytes()  # s itself did not move

    @pytest.mark.parametrize("k", [0, 1, 3 * 40 * 24 + 5])
    def test_skip_moves_the_stream_past_its_uniforms(self, k):
        s, ref = RngStream(6).derive(2, 1), RngStream(6).derive(2, 1)
        s.skip(k)
        ref.random(k)
        assert s._gen.bit_generator.state == ref._gen.bit_generator.state

    def test_ahead_keeps_a_buffered_half_output(self):
        # a small bounded integer takes 32 bits and buffers the other half of
        # its PCG64 output; float64 draws leave that half in place
        s, ref = RngStream(3).derive(1), RngStream(3).derive(1)
        s._gen.integers(0, 10)
        ref._gen.integers(0, 10)
        assert ref._gen.bit_generator.state["has_uint32"] == 1
        ref.random(17)
        assert s.ahead(17)._gen.bit_generator.state == ref._gen.bit_generator.state
        assert s.ahead(17)._gen.integers(0, 10, 8).tolist() == ref._gen.integers(0, 10, 8).tolist()

    def test_choice_without_replacement(self):
        picks = RngStream(4).choice(10, size=10)
        assert sorted(picks) == list(range(10))


# -- minibatching ------------------------------------------------------------------


class TestMinibatch:
    def test_partition_of_five_by_two(self):
        batches = list(minibatch_iter(5, 2, RngStream(0)))
        assert [b.indices.size for b in batches] == [2, 2, 1]
        assert [b.scale for b in batches] == [2.5, 2.5, 5.0]
        seen = np.concatenate([b.indices for b in batches])
        assert sorted(seen) == list(range(5))

    def test_full_batch_has_unit_scale(self):
        (batch,) = minibatch_iter(7, 7, RngStream(1))
        assert batch.scale == 1.0
        assert sorted(batch.indices) == list(range(7))

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            list(minibatch_iter(5, 0, RngStream(0)))
        with pytest.raises(ValueError):
            list(minibatch_iter(5, 6, RngStream(0)))

    def test_scaled_batch_sum_is_unbiased(self):
        # E over reshuffles of scale * sum(batch) must equal the full sum
        vals = RNG.uniform(0.5, 1.5, size=11)
        full = vals.sum()
        rng = RngStream(8)
        estimates = [
            b.scale * vals[b.indices].sum()
            for epoch in range(1000)
            for b in minibatch_iter(11, 3, rng.derive(epoch))
        ]
        assert abs(np.mean(estimates) - full) / full < 1e-2
