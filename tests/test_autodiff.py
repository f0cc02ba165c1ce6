"""Tape engine checks: every op against the finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poemrl import autodiff as ad
from poemrl import nn
from poemrl import policy as pol
from poemrl.autodiff import Tensor
from poemrl.policy import LOG_STD_MAX, LOG_STD_MIN, ActorCritic, CategoricalHead

import tape_ops as ops
from conftest import central_diff, max_rel_err


def grad_of(build, x0):
    """Gradient of scalar build(Tensor) at x0, via the tape."""
    leaf = Tensor(x0)
    out = build(leaf)
    out.backward()
    return leaf.grad


def fd_of(build, x0, shape):
    def f(flat):
        return float(build(Tensor(flat.reshape(shape))).data)

    return central_diff(f, np.asarray(x0).ravel()).reshape(shape)


CASES = [
    ("add_mul", lambda t: ad.tsum(ad.mul(ad.add(t, 2.0), t))),
    ("div", lambda t: ad.tsum(ops.div(1.0, ad.add(ad.square(t), 1.0)))),
    ("tanh_exp", lambda t: ad.tsum(ops.exp(ops.tanh(t)))),
    ("log", lambda t: ad.tsum(ops.log(ad.add(ad.square(t), 0.5)))),
    ("mean_axis", lambda t: ad.tsum(ad.tmean(ad.square(t), axis=0))),
    ("clip", lambda t: ad.tsum(ad.square(ops.clip(t, -0.5, 0.5)))),
    ("minimum", lambda t: ad.tsum(ops.minimum(t, ad.square(t)))),
]


@pytest.mark.parametrize("name,build", CASES, ids=[c[0] for c in CASES])
def test_ops_match_finite_differences(name, build, rng):
    x0 = rng.normal(size=(3, 4))
    g = grad_of(build, x0)
    fd = fd_of(build, x0, x0.shape)
    assert max_rel_err(g, fd) < 1e-6


def test_matmul_gradients(rng):
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))
    a, b = Tensor(a0), Tensor(b0)
    out = ad.tsum(ad.square(ops.matmul(a, b)))
    out.backward()

    fd_a = central_diff(
        lambda f: float(ad.tsum(ad.square(ops.matmul(Tensor(f.reshape(3, 4)), Tensor(b0)))).data),
        a0.ravel(),
    ).reshape(3, 4)
    fd_b = central_diff(
        lambda f: float(ad.tsum(ad.square(ops.matmul(Tensor(a0), Tensor(f.reshape(4, 2))))).data),
        b0.ravel(),
    ).reshape(4, 2)
    assert max_rel_err(a.grad, fd_a) < 1e-6
    assert max_rel_err(b.grad, fd_b) < 1e-6


def test_broadcasting_bias_gradient(rng):
    x = rng.normal(size=(5, 3))
    b0 = rng.normal(size=3)
    b = Tensor(b0)
    out = ad.tsum(ad.square(ad.add(ad.constant(x), b)))
    out.backward()
    fd = central_diff(lambda f: float(np.sum((x + f) ** 2)), b0)
    assert max_rel_err(b.grad, fd) < 1e-6


def test_gather_rows_routes_gradient():
    t = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    idx = np.array([1, 0, 1])
    out = ad.tsum(ad.mul(ops.gather_rows(t, idx), np.array([10.0, 20.0, 30.0])))
    assert np.allclose(out.data, 2 * 10 + 3 * 20 + 6 * 30)
    out.backward()
    expected = np.array([[0.0, 10.0], [20.0, 0.0], [0.0, 30.0]])
    assert np.array_equal(t.grad, expected)


def test_logsumexp_matches_softmax_gradient(rng):
    x0 = rng.normal(size=(4, 3)) * 5
    t = Tensor(x0)
    out = ad.tsum(ops.logsumexp_rows(t))
    np_lse = np.log(np.exp(x0 - x0.max(1, keepdims=True)).sum(1, keepdims=True)) + x0.max(
        1, keepdims=True
    )
    assert np.allclose(out.data, np_lse.sum())
    out.backward()
    softmax = np.exp(x0 - np_lse)
    assert max_rel_err(t.grad, softmax) < 1e-12


def test_minimum_tie_prefers_first_argument():
    a, b = Tensor(np.array([1.0])), Tensor(np.array([1.0]))
    ad.tsum(ops.minimum(a, b)).backward()
    assert a.grad[0] == 1.0 and b.grad[0] == 0.0


def test_clip_gradient_zero_outside_interval():
    t = Tensor(np.array([-2.0, 0.0, 2.0]))
    ad.tsum(ops.clip(t, -1.0, 1.0)).backward()
    assert np.array_equal(t.grad, np.array([0.0, 1.0, 0.0]))


def test_grad_accumulates_over_reused_nodes(rng):
    x0 = rng.normal(size=3)
    t = Tensor(x0)
    y = ad.add(ad.mul(t, t), ad.mul(t, 3.0))  # x^2 + 3x
    ad.tsum(y).backward()
    assert np.allclose(t.grad, 2 * x0 + 3)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3)).backward()


# ---- fused ops against the compositions they replace -------------------------
#
# The references below are the elementwise tape compositions the fused ops
# replaced. A fused op must match its reference bit for bit, value and
# gradients, and both must match central finite differences.


def linear_ref(x, w, b):
    return ad.add(ops.matmul(x if isinstance(x, Tensor) else ad.constant(x), w), b)


def gaussian_logp_ref(mean, log_std, actions):
    d = log_std.data.size
    z = ops.div(ad.add(ad.constant(actions), ad.mul(mean, -1.0)), ops.exp(log_std))
    return ad.add(
        ad.mul(ad.tsum(ad.square(z), axis=1), -0.5),
        ad.add(ad.mul(ad.tsum(log_std), -1.0), ad.constant(-0.5 * pol.LOG_2PI * d)),
    )


def clipped_surrogate_ref(logp, logp_old, adv, clip_epsilon):
    ratio = ops.exp(ad.add(logp, ad.constant(-logp_old)))
    a = ad.constant(adv)
    surrogate = ops.minimum(
        ad.mul(ratio, a), ad.mul(ops.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon), a)
    )
    return ad.mul(ad.tmean(surrogate), -1.0)


def value_and_grads(op, inputs, weights):
    """Run op on fresh leaves made from `inputs`, reduce with `weights` (so the
    upstream gradient is not all ones), backpropagate; return (value, grads)."""
    leaves = [Tensor(x) for x in inputs]
    out = op(*leaves)
    loss = ad.tsum(ad.mul(out, weights)) if weights is not None else out
    loss.backward()
    return out.data, [leaf.grad for leaf in leaves]


def assert_fused_matches(fused, ref, inputs, weights):
    v_fused, g_fused = value_and_grads(fused, inputs, weights)
    v_ref, g_ref = value_and_grads(ref, inputs, weights)
    assert np.array_equal(v_fused, v_ref)
    for gf, gr in zip(g_fused, g_ref):
        assert np.array_equal(gf, gr)

    # and both against the independent oracle
    for k, x in enumerate(inputs):
        def scalar(flat, k=k):
            probe = [Tensor(v) for v in inputs]
            probe[k] = Tensor(flat.reshape(np.shape(x)))
            out = fused(*probe)
            return float(np.sum(out.data * weights) if weights is not None else out.data)

        fd = central_diff(scalar, np.asarray(x).ravel()).reshape(np.shape(x))
        assert max_rel_err(g_fused[k], fd) < 1e-6


def test_linear_with_plain_array_input(rng):
    x = rng.normal(size=(5, 3))
    w, b = rng.normal(size=(3, 4)), rng.normal(size=4)
    weights = rng.normal(size=(5, 4))
    assert_fused_matches(lambda w, b: ops.linear(x, w, b), lambda w, b: linear_ref(x, w, b), [w, b], weights)
    # a plain-array input is not on the tape at all
    out = ops.linear(x, Tensor(w), Tensor(b))
    assert len(out._parents) == 2


def test_linear_with_tensor_input(rng):
    x = rng.normal(size=(5, 3))
    w, b = rng.normal(size=(3, 4)), rng.normal(size=4)
    weights = rng.normal(size=(5, 4))
    assert_fused_matches(ops.linear, linear_ref, [x, w, b], weights)


@pytest.mark.parametrize("raw_log_std", [[0.3], [-0.4, 0.9], [LOG_STD_MIN - 5.0, 0.2, LOG_STD_MAX + 1.0]],
                         ids=["d1", "d2", "outside_bounds"])
def test_diag_gaussian_logp(rng, raw_log_std):
    raw = np.array(raw_log_std)
    mean = rng.normal(size=(6, raw.size))
    # actions within a few std of the mean keep every dimension's term O(1)
    actions = mean + rng.normal(size=mean.shape) * np.exp(np.clip(raw, LOG_STD_MIN, LOG_STD_MAX))
    weights = rng.normal(size=6)

    def clipped(op):
        return lambda m, s: op(m, ops.clip(s, LOG_STD_MIN, LOG_STD_MAX), actions)

    assert_fused_matches(clipped(ops.diag_gaussian_logp), clipped(gaussian_logp_ref), [mean, raw], weights)
    _, (_, g_log_std) = value_and_grads(clipped(ops.diag_gaussian_logp), [mean, raw], weights)
    outside = (raw < LOG_STD_MIN) | (raw > LOG_STD_MAX)
    assert np.all(g_log_std[outside] == 0.0)


def test_clipped_surrogate_generic_ratios(rng):
    logp_old, adv = rng.normal(size=12), rng.normal(size=12)
    logp = logp_old + rng.normal(scale=0.5, size=12)  # ratios in and out of the band
    op = lambda lp: ops.clipped_surrogate(lp, logp_old, adv, 0.2)  # noqa: E731
    ref = lambda lp: clipped_surrogate_ref(lp, logp_old, adv, 0.2)  # noqa: E731
    assert_fused_matches(op, ref, [logp], None)


def test_clipped_surrogate_ratio_on_the_band_edges_and_ties():
    eps = 0.2
    hi, lo = np.log(1.0 + eps), np.log(1.0 - eps)
    assert np.exp(hi) == 1.0 + eps and np.exp(lo) == 1.0 - eps  # exactly on the edges
    # ratio 1+eps and 1-eps with either sign of advantage, a zero advantage,
    # and ratios just outside the band
    logp = np.array([hi, hi, lo, lo, 0.0, hi + 0.1, lo - 0.1])
    adv = np.array([1.5, -1.5, 2.0, -2.0, 0.0, 1.0, -1.0])
    logp_old = np.zeros_like(logp)

    def run(op):
        leaf = Tensor(logp)
        out = op(leaf, logp_old, adv, eps)
        out.backward()
        return out.data, leaf.grad

    (v_fused, g_fused), (v_ref, g_ref) = run(ops.clipped_surrogate), run(clipped_surrogate_ref)
    assert np.array_equal(v_fused, v_ref) and np.array_equal(g_fused, g_ref)
    # on a tie the unclipped branch carries the gradient: d/dlogp of
    # -mean(r * adv) is -r * adv / n; outside the band nothing flows back
    ratio = np.exp(logp)
    expected = -ratio * adv / logp.size
    expected[5:] = 0.0
    assert np.allclose(g_fused, expected, rtol=1e-15, atol=0.0)


# ---- one node per network, and the fused loss terms ---------------------------


def mlp_ref(x, layers):
    """The per-layer composition `ops.mlp` replaced: linear, then tanh except last."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = ops.linear(h, w, b)
        if i != len(layers) - 1:
            h = ops.tanh(h)
    return h


@pytest.mark.parametrize("hidden", [(), (7,), (16, 8, 4)], ids=["no_hidden", "7", "16-8-4"])
def test_mlp_matches_linear_and_tanh_per_layer(rng, hidden):
    sizes = (3, *hidden, 2)
    x = rng.normal(size=(5, 3))
    params = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        params += [rng.normal(size=(n_in, n_out)) / np.sqrt(n_in), rng.normal(scale=0.1, size=n_out)]
    weights = rng.normal(size=(5, 2))

    def pairs(p):
        return list(zip(p[::2], p[1::2]))

    assert_fused_matches(lambda *p: ops.mlp(x, pairs(p)), lambda *p: mlp_ref(x, pairs(p)), params, weights)
    # the input is not on the tape: the node's parents are the layers' leaves
    out = ops.mlp(x, pairs([Tensor(p) for p in params]))
    assert len(out._parents) == len(params)


def test_mean_squared_error_matches_its_composition(rng):
    target = rng.normal(size=9)

    def ref(v):
        return ad.tmean(ad.square(ad.add(v, ad.constant(-target))))

    assert_fused_matches(lambda v: ops.mean_squared_error(v, target), ref, [rng.normal(size=9)], np.array(-1.7))


def test_mean_difference_matches_its_composition(rng):
    b = rng.normal(size=11)

    def ref(a):
        return ad.tmean(ad.add(a, ad.constant(-b)))

    assert_fused_matches(lambda a: ops.mean_difference(a, b), ref, [rng.normal(size=11)], np.array(0.3))


# ---- the categorical log-softmax and entropy nodes ----------------------------
#
# Each node's backward is the analytic VJP, not a replay of the elementwise
# composition it replaced, so the two agree to within rounding.


def log_softmax_ref(t):
    return ad.add(t, ad.mul(ops.logsumexp_rows(t), -1.0))


def mean_entropy_ref(log_p):
    return ad.mul(ad.tmean(ad.tsum(ad.mul(ops.exp(log_p), log_p), axis=1)), -1.0)


def assert_matches_to_rounding(node, ref, x, weights):
    (v, (g,)), (v_ref, (g_ref,)) = value_and_grads(node, [x], weights), value_and_grads(ref, [x], weights)
    assert np.allclose(v, v_ref, rtol=1e-13, atol=1e-14)
    assert np.allclose(g, g_ref, rtol=1e-12, atol=1e-14)

    def build(t):
        return ad.tsum(ad.mul(node(t), weights))

    assert max_rel_err(grad_of(build, x), fd_of(build, x, x.shape)) < 1e-6


def test_log_softmax_rows_matches_its_composition(rng):
    x = rng.normal(scale=3.0, size=(5, 4))
    assert_matches_to_rounding(ops.log_softmax_rows, log_softmax_ref, x, rng.normal(size=(5, 4)))


def test_mean_entropy_matches_its_composition(rng):
    log_p = pol.log_softmax(rng.normal(scale=3.0, size=(5, 4)))
    assert_matches_to_rounding(ops.mean_entropy, mean_entropy_ref, log_p, np.array(1.3))


@st.composite
def logit_batches(draw):
    """(n, k) logits: rows with ties, rows all equal, rows spread up to 1e3."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    unit = st.sampled_from([-1.0, -0.5, 0.0, 1.0]) | st.floats(-1.0, 1.0)
    return np.array([
        draw(st.floats(-50.0, 50.0))
        + draw(st.sampled_from([0.0, 1.0, 30.0, 1e3])) * np.array(draw(st.lists(unit, min_size=k, max_size=k)))
        for _ in range(n)
    ])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(logits=logit_batches())
def test_categorical_nodes_on_tied_and_spread_rows(logits):
    n, k = logits.shape
    rng = np.random.default_rng(10 * n + k)
    weights = rng.normal(size=(n, k))
    log_p = pol.log_softmax(logits)
    for build, x in ((lambda t: ad.tsum(ad.mul(ops.log_softmax_rows(t), weights)), logits),
                     (lambda t: ad.mul(ops.mean_entropy(t), 1.7), log_p)):
        # absolute slack for the rounding of logits near 1e3 in the differences
        assert np.allclose(grad_of(build, x), fd_of(build, x, x.shape), rtol=1e-5, atol=1e-5)
    assert 0.0 <= pol.categorical_entropy(log_p) <= math.log(k) + 1e-12
    # an identity linear actor puts the logits out as its output
    ac = ActorCritic.create(k, CategoricalHead(k), (), seed=0)
    ((w, b),) = ac.actor_layers
    w[:], b[:] = np.eye(k), 0.0
    actions = rng.integers(0, k, size=n)
    logp_t, ent_t = pol.policy_graph(ac, nn.make_leaves(ac.params), logits, actions)
    logp, ent = pol.logp_batch(ac, logits, actions, with_entropy=True)
    assert np.array_equal(logp, logp_t.data)
    assert ent == pol.entropy_mean(ac, logits) == float(ent_t.data)


def test_backward_adds_consumer_gradients_latest_created_first():
    # a has three consumers whose gradients sum differently in each order
    c1, c2, c3 = np.array([1.0]), np.array([1e-16]), np.array([-1.0])
    a = Tensor(np.array([0.5]))
    root = ad.tsum(ad.add(ad.add(ad.mul(a, c1), ad.mul(a, c2)), ad.mul(a, c3)))
    root.backward()
    assert np.array_equal(a.grad, (c3 + c2) + c1)
    assert not np.array_equal(a.grad, (c1 + c2) + c3)
