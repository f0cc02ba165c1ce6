"""Tape engine checks: every op against the finite-difference oracle."""

import numpy as np
import pytest

from poemrl import autodiff as ad
from poemrl.autodiff import Tensor
from poemrl.policy import LOG_STD_MAX, LOG_STD_MIN

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
    ("div", lambda t: ad.tsum(ad.div(1.0, ad.add(ad.square(t), 1.0)))),
    ("tanh_exp", lambda t: ad.tsum(ad.exp(ad.tanh(t)))),
    ("log", lambda t: ad.tsum(ad.log(ad.add(ad.square(t), 0.5)))),
    ("mean_axis", lambda t: ad.tsum(ad.tmean(ad.square(t), axis=0))),
    ("clip", lambda t: ad.tsum(ad.square(ad.clip(t, -0.5, 0.5)))),
    ("minimum", lambda t: ad.tsum(ad.minimum(t, ad.square(t)))),
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
    out = ad.tsum(ad.square(ad.matmul(a, b)))
    out.backward()

    fd_a = central_diff(
        lambda f: float(ad.tsum(ad.square(ad.matmul(Tensor(f.reshape(3, 4)), Tensor(b0)))).data),
        a0.ravel(),
    ).reshape(3, 4)
    fd_b = central_diff(
        lambda f: float(ad.tsum(ad.square(ad.matmul(Tensor(a0), Tensor(f.reshape(4, 2))))).data),
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
    out = ad.tsum(ad.mul(ad.gather_rows(t, idx), np.array([10.0, 20.0, 30.0])))
    assert np.allclose(out.data, 2 * 10 + 3 * 20 + 6 * 30)
    out.backward()
    expected = np.array([[0.0, 10.0], [20.0, 0.0], [0.0, 30.0]])
    assert np.array_equal(t.grad, expected)


def test_logsumexp_matches_softmax_gradient(rng):
    x0 = rng.normal(size=(4, 3)) * 5
    t = Tensor(x0)
    out = ad.tsum(ad.logsumexp_rows(t))
    np_lse = np.log(np.exp(x0 - x0.max(1, keepdims=True)).sum(1, keepdims=True)) + x0.max(
        1, keepdims=True
    )
    assert np.allclose(out.data, np_lse.sum())
    out.backward()
    softmax = np.exp(x0 - np_lse)
    assert max_rel_err(t.grad, softmax) < 1e-12


def test_minimum_tie_prefers_first_argument():
    a, b = Tensor(np.array([1.0])), Tensor(np.array([1.0]))
    ad.tsum(ad.minimum(a, b)).backward()
    assert a.grad[0] == 1.0 and b.grad[0] == 0.0


def test_clip_gradient_zero_outside_interval():
    t = Tensor(np.array([-2.0, 0.0, 2.0]))
    ad.tsum(ad.clip(t, -1.0, 1.0)).backward()
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
    return ad.add(ad.matmul(x if isinstance(x, Tensor) else ad.constant(x), w), b)


def gaussian_logp_ref(mean, log_std, actions):
    d = log_std.data.size
    z = ad.div(ad.add(ad.constant(actions), ad.mul(mean, -1.0)), ad.exp(log_std))
    return ad.add(
        ad.mul(ad.tsum(ad.square(z), axis=1), -0.5),
        ad.add(ad.mul(ad.tsum(log_std), -1.0), ad.constant(-0.5 * ad.LOG_2PI * d)),
    )


def clipped_surrogate_ref(logp, logp_old, adv, clip_epsilon):
    ratio = ad.exp(ad.add(logp, ad.constant(-logp_old)))
    a = ad.constant(adv)
    surrogate = ad.minimum(
        ad.mul(ratio, a), ad.mul(ad.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon), a)
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
    assert_fused_matches(lambda w, b: ad.linear(x, w, b), lambda w, b: linear_ref(x, w, b), [w, b], weights)
    # a plain-array input is not on the tape at all
    out = ad.linear(x, Tensor(w), Tensor(b))
    assert len(out._parents) == 2


def test_linear_with_tensor_input(rng):
    x = rng.normal(size=(5, 3))
    w, b = rng.normal(size=(3, 4)), rng.normal(size=4)
    weights = rng.normal(size=(5, 4))
    assert_fused_matches(ad.linear, linear_ref, [x, w, b], weights)


@pytest.mark.parametrize("raw_log_std", [[0.3], [-0.4, 0.9], [LOG_STD_MIN - 5.0, 0.2, LOG_STD_MAX + 1.0]],
                         ids=["d1", "d2", "outside_bounds"])
def test_diag_gaussian_logp(rng, raw_log_std):
    raw = np.array(raw_log_std)
    mean = rng.normal(size=(6, raw.size))
    # actions within a few std of the mean keep every dimension's term O(1)
    actions = mean + rng.normal(size=mean.shape) * np.exp(np.clip(raw, LOG_STD_MIN, LOG_STD_MAX))
    weights = rng.normal(size=6)

    def clipped(op):
        return lambda m, s: op(m, ad.clip(s, LOG_STD_MIN, LOG_STD_MAX), actions)

    assert_fused_matches(clipped(ad.diag_gaussian_logp), clipped(gaussian_logp_ref), [mean, raw], weights)
    _, (_, g_log_std) = value_and_grads(clipped(ad.diag_gaussian_logp), [mean, raw], weights)
    outside = (raw < LOG_STD_MIN) | (raw > LOG_STD_MAX)
    assert np.all(g_log_std[outside] == 0.0)


def test_clipped_surrogate_generic_ratios(rng):
    logp_old, adv = rng.normal(size=12), rng.normal(size=12)
    logp = logp_old + rng.normal(scale=0.5, size=12)  # ratios in and out of the band
    op = lambda lp: ad.clipped_surrogate(lp, logp_old, adv, 0.2)  # noqa: E731
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

    (v_fused, g_fused), (v_ref, g_ref) = run(ad.clipped_surrogate), run(clipped_surrogate_ref)
    assert np.array_equal(v_fused, v_ref) and np.array_equal(g_fused, g_ref)
    # on a tie the unclipped branch carries the gradient: d/dlogp of
    # -mean(r * adv) is -r * adv / n; outside the band nothing flows back
    ratio = np.exp(logp)
    expected = -ratio * adv / logp.size
    expected[5:] = 0.0
    assert np.allclose(g_fused, expected, rtol=1e-15, atol=0.0)
