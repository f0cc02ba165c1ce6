"""Network substrate: layouts, init, forward, reverse-mode gradient, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poemrl import autodiff as ad
from poemrl import nn
from poemrl.nn import MlpSpec, ParamVector

import tape_ops as ops
from conftest import central_diff, max_rel_err


class TestSpecAndLayout:
    def test_param_count_matches_layout_arithmetic(self):
        spec = MlpSpec((3, 4, 2))
        assert spec.n_params == 3 * 4 + 4 + 4 * 2 + 2 == 26
        assert len(nn.init_params(spec, seed=0)) == 26

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            MlpSpec((3,))
        with pytest.raises(ValueError):
            MlpSpec((3, 0, 2))

    def test_layout_is_disjoint_and_covering(self):
        spec = MlpSpec((5, 7, 3, 2))
        layout = nn.mlp_layout(spec)
        pos = 0
        for e in layout:
            assert e.offset == pos
            pos += e.size
        assert pos == spec.n_params

    def test_layer_views_follow_the_layout_and_see_later_writes(self):
        spec = MlpSpec((3, 4, 2))
        flat = np.arange(5.0 + spec.n_params)
        (w0, b0), (w1, b1) = nn.layer_views(spec, flat, offset=5)
        assert np.array_equal(w0, flat[5:17].reshape(3, 4)) and np.array_equal(b0, flat[17:21])
        assert np.array_equal(w1, flat[21:29].reshape(4, 2)) and np.array_equal(b1, flat[29:31])
        flat[:] = -flat
        assert w0[0, 0] == -5.0 and b1[-1] == -30.0

    def test_serialization_roundtrip(self, rng):
        spec = MlpSpec((4, 3))
        pv = nn.init_params(spec, seed=9)
        pv.data[:] = rng.normal(size=len(pv))
        restored = nn.params_from_bytes(nn.params_to_bytes(pv), pv.layout)
        assert np.array_equal(restored.data, pv.data)
        with pytest.raises(ValueError):
            nn.params_from_bytes(nn.params_to_bytes(pv)[:-3], pv.layout)


class TestInit:
    def test_biases_zero(self):
        pv = nn.init_params(MlpSpec((2, 1)), seed=11)
        assert pv.view("b0")[0] == 0.0

    def test_deterministic_for_fixed_seed(self):
        spec = MlpSpec((3, 5, 2))
        a = nn.init_params(spec, seed=42)
        b = nn.init_params(spec, seed=42)
        assert np.array_equal(a.data, b.data)
        c = nn.init_params(spec, seed=43)
        assert not np.array_equal(a.data, c.data)

    def test_fan_in_limit_and_final_scale(self):
        spec = MlpSpec((9, 4, 4))
        pv = nn.init_params(spec, seed=1)
        assert np.max(np.abs(pv.view("w0"))) <= 1.0 / 3.0
        scaled = nn.init_params(spec, seed=1, final_layer_scale=0.01)
        assert np.array_equal(scaled.view("w0"), pv.view("w0"))
        assert np.allclose(scaled.view("w1"), 0.01 * pv.view("w1"))


def forward_one(spec: MlpSpec, pv: ParamVector, x) -> np.ndarray:
    """One input vector through the net's layer views."""
    return nn.forward_batch(nn.layer_views(spec, pv.data), np.asarray(x, dtype=np.float64)[None, :])[0]


def tape_gradient(spec: MlpSpec, pv: ParamVector, x, loss_fn) -> ParamVector:
    """d(loss_fn(net(x)))/d(params) through the reference tape: one leaf per
    layout entry and one `mlp` node."""
    leaves = ops.entry_leaves(pv)
    loss_fn(ops.forward_batch_t(spec, leaves, np.atleast_2d(np.asarray(x, dtype=np.float64)))).backward()
    return ParamVector(ops.collect_entry_grads(leaves, pv.layout), pv.layout)


class TestForward:
    def _linear_net(self, w, b):
        spec = MlpSpec((1, 1))
        pv = nn.init_params(spec, seed=0)
        pv.view("w0")[:] = w
        pv.view("b0")[:] = b
        return spec, pv

    def test_identity_map(self):
        spec, pv = self._linear_net(1.0, 0.0)
        assert forward_one(spec, pv, [2.0])[0] == 2.0

    def test_constant_map(self):
        spec, pv = self._linear_net(0.0, 0.5)
        for x in (-3.0, 0.0, 7.5):
            assert forward_one(spec, pv, [x])[0] == 0.5

    def test_tanh_hidden_at_zero(self):
        spec = MlpSpec((1, 1, 1))
        pv = nn.init_params(spec, seed=0)
        pv.view("w0")[:] = 1.0
        pv.view("w1")[:] = 1.0
        pv.view("b0")[:] = 0.0
        pv.view("b1")[:] = 0.0
        assert forward_one(spec, pv, [0.0])[0] == 0.0

    def test_forward_is_pure(self):
        spec = MlpSpec((2, 3, 1))
        pv = nn.init_params(spec, seed=5)
        before = pv.data.copy()
        x = np.array([0.3, -0.8])
        y1 = forward_one(spec, pv, x)
        y2 = forward_one(spec, pv, x)
        assert np.array_equal(y1, y2)
        assert np.array_equal(pv.data, before)


class TestGradient:
    def test_linear_chain_rule(self):
        spec = MlpSpec((1, 1))
        pv = nn.init_params(spec, seed=0)
        pv.view("w0")[:] = 1.0
        g = tape_gradient(spec, pv, [[2.0]], lambda out: ad.tsum(out))
        assert g.view("w0")[0, 0] == 2.0
        assert g.view("b0")[0] == 1.0

    def test_squared_output_chain_rule(self):
        spec = MlpSpec((1, 1))
        pv = nn.init_params(spec, seed=0)
        pv.view("w0")[:] = 3.0
        g = tape_gradient(spec, pv, [[1.0]], lambda out: ad.tsum(ad.square(out)))
        assert g.view("w0")[0, 0] == 6.0

    def test_matches_central_differences_on_random_nets(self, rng):
        # randomized small nets and smooth losses against the independent oracle
        for trial in range(5):
            sizes = (int(rng.integers(1, 4)), int(rng.integers(2, 7)), int(rng.integers(1, 3)))
            spec = MlpSpec(sizes)
            assert spec.n_params <= 200
            pv = nn.init_params(spec, seed=trial)
            pv.data[:] = rng.normal(scale=0.7, size=len(pv))
            x = rng.normal(size=(4, sizes[0]))
            w = rng.normal(size=sizes[-1])

            def loss_fn(out):
                return ad.tmean(ad.square(ops.tanh(ops.matmul(out, ad.constant(w[:, None])))))

            analytic = tape_gradient(spec, pv, x, loss_fn).data

            def scalar(theta):
                out = nn.forward_batch(nn.layer_views(spec, theta), x)
                return float(np.mean(np.tanh(out @ w[:, None]) ** 2))

            fd = central_diff(scalar, pv.data)
            assert max_rel_err(analytic, fd) <= 1e-5


    @pytest.mark.parametrize("hidden", [(), (7,), (16, 8, 4)], ids=["no_hidden", "7", "16-8-4"])
    def test_mlp_vjp_matches_the_mlp_node(self, rng, hidden):
        # the plain forward and VJP against the one-node tape op, bit for bit,
        # written into a flat gradient's layer views
        spec = MlpSpec((3, *hidden, 2))
        pv = nn.init_params(spec, seed=1)
        pv.data[:] = rng.normal(scale=0.7, size=len(pv))
        x, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 2)) / 3.0
        layers = nn.layer_views(spec, pv.data)
        hs = nn.forward_activations(layers, x)
        grad = np.zeros(len(pv))
        nn.mlp_vjp(layers, hs, g, nn.layer_views(spec, grad))
        leaves = ops.entry_leaves(pv)
        out = ops.forward_batch_t(spec, leaves, x)
        ad.tsum(ad.mul(out, g)).backward()
        assert hs[-1].tobytes() == out.data.tobytes() == nn.forward_batch(layers, x).tobytes()
        assert grad.tobytes() == ops.collect_entry_grads(leaves, pv.layout).tobytes()


def textbook_adam(state, params, grad):
    """Bias-corrected Adam as the one expression per quantity."""
    t = state.step_count + 1
    m = nn.ADAM_BETA1 * state.first_moment + (1.0 - nn.ADAM_BETA1) * grad
    v = nn.ADAM_BETA2 * state.second_moment + (1.0 - nn.ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - nn.ADAM_BETA1**t)
    v_hat = v / (1.0 - nn.ADAM_BETA2**t)
    return m, v, params - state.lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPSILON)


class TestAdam:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), step=st.integers(0, 10_000), lr=st.floats(1e-6, 1.0),
           seed=st.integers(0, 2**16), scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]))
    def test_matches_the_textbook_expression_and_writes_no_input(self, n, step, lr, seed, scale):
        rng = np.random.default_rng(seed)
        params, grad = rng.normal(size=n), rng.normal(scale=scale, size=n)
        grad[rng.random(n) < 0.1] = 0.0
        state = nn.AdamState(rng.normal(scale=scale, size=n), rng.random(n) * scale * scale, step, lr)
        before = [a.copy() for a in (params, grad, state.first_moment, state.second_moment)]
        new_state, new_params = nn.adam_step(state, params, grad)
        m, v, expected = textbook_adam(state, params, grad)
        assert new_state.first_moment.tobytes() == m.tobytes()
        assert new_state.second_moment.tobytes() == v.tobytes()
        assert new_params.tobytes() == expected.tobytes()
        assert (new_state.step_count, new_state.lr) == (step + 1, lr)
        for a, b in zip(before, (params, grad, state.first_moment, state.second_moment)):
            assert a.tobytes() == b.tobytes()


    def test_zero_gradient_is_identity_for_any_step_count(self):
        state = nn.init_adam(4, lr=0.5)
        params = np.array([1.0, -2.0, 3.0, 0.0])
        for _ in range(5):
            state, params_new = nn.adam_step(state, params, np.zeros(4))
            assert np.array_equal(params_new, params)
            params = params_new
        assert state.step_count == 5

    def test_first_step_size(self):
        state = nn.init_adam(1, lr=1e-3)
        _, new = nn.adam_step(state, np.array([0.0]), np.array([1.0]))
        assert abs(new[0] - (-1e-3)) < 1e-10

    def test_two_steps_match_reference_recurrence(self):
        # independent scalar recurrence oracle
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        g = 0.7
        theta, m, v = 0.2, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        state = nn.init_adam(1, lr=lr)
        params = np.array([0.2])
        for _ in range(2):
            state, params = nn.adam_step(state, params, np.array([g]))
        assert abs(params[0] - theta) < 1e-15
        assert state.step_count == 2
        assert np.all(state.second_moment >= 0.0)

    def test_shape_mismatch_rejected(self):
        state = nn.init_adam(3)
        with pytest.raises(ValueError):
            nn.adam_step(state, np.zeros(3), np.zeros(4))
