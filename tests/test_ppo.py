"""Clipped surrogate, value loss, and the minibatch update loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poemrl import autodiff as ad
from poemrl import nn, ppo
from poemrl import policy as pol
from poemrl.autodiff import Tensor
from poemrl.ppo import LossBreakdown, PpoConfig
from poemrl.rollout import Minibatch

import tape_ops as ops
from conftest import central_diff, make_categorical_ac, make_gaussian_ac, max_rel_err


def small_cfg(**kw):
    defaults = dict(epochs=1, minibatch_size=8, learning_rate=1e-4, max_grad_norm=None)
    defaults.update(kw)
    return PpoConfig(**defaults)


def random_minibatch(ac, rng, n=8):
    obs = rng.normal(size=(n, ac.obs_dim()))
    if hasattr(ac.head, "action_dim"):
        actions = rng.normal(size=(n, ac.head.action_dim))
    else:
        actions = rng.integers(0, ac.head.n_actions, size=n)
    return Minibatch(
        obs=obs,
        actions=actions,
        log_probs_old=pol.logp_batch(ac, obs, actions) + rng.normal(scale=0.1, size=n),
        advantages=rng.normal(size=n),
        returns=rng.normal(size=n),
    )


class TestClippedSurrogate:
    def test_unit_ratio(self):
        assert ppo.clipped_surrogate([0.3], [0.3], [2.0], 0.2) == -2.0

    def test_upper_clip(self):
        logp_new = [math.log(1.5)]
        assert abs(ppo.clipped_surrogate(logp_new, [0.0], [1.0], 0.2) - (-1.2)) < 1e-12

    def test_pessimistic_min_on_negative_advantage(self):
        logp_new = [math.log(0.5)]
        assert abs(ppo.clipped_surrogate(logp_new, [0.0], [-1.0], 0.2) - 0.8) < 1e-12

    def test_unit_ratio_equals_minus_mean_advantage(self, rng):
        logp = rng.normal(size=16)
        adv = rng.normal(size=16)
        assert ppo.clipped_surrogate(logp, logp, adv, 0.2) == -np.mean(adv)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ppo.clipped_surrogate([0.0, 0.0], [0.0], [1.0], 0.2)

    def test_clipped_samples_get_zero_gradient(self):
        # mirror of the loss construction: where the clipped branch is the
        # active minimum, d(loss)/d(logp_new) must vanish
        logp_old = np.zeros(3)
        adv = np.array([1.0, 1.0, -1.0])
        logp_leaf = ad.Tensor(np.array([1.0, 0.0, 1.0]))  # ratios e, 1, e
        ratio = ops.exp(ad.add(logp_leaf, ad.constant(-logp_old)))
        clipped = ops.clip(ratio, 0.8, 1.2)
        loss = ad.mul(ad.tmean(ops.minimum(ad.mul(ratio, ad.constant(adv)),
                                           ad.mul(clipped, ad.constant(adv)))), -1.0)
        loss.backward()
        # sample 0: adv>0, ratio clipped above -> flat; sample 1: unclipped;
        # sample 2: adv<0 keeps the unclipped branch (pessimistic min) -> live
        assert logp_leaf.grad[0] == 0.0
        assert logp_leaf.grad[1] != 0.0
        assert logp_leaf.grad[2] != 0.0


class TestValueLoss:
    def test_perfect_fit(self):
        assert ppo.value_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        assert ppo.value_loss([0.0], [2.0]) == 4.0
        assert ppo.value_loss([1.0, 3.0], [2.0, 2.0]) == 1.0

    def test_nonnegative_and_zero_iff_equal(self, rng):
        v = rng.normal(size=20)
        r = rng.normal(size=20)
        assert ppo.value_loss(v, r) > 0.0
        assert ppo.value_loss(v, v) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ppo.value_loss([1.0], [1.0, 2.0])


class TestLossGraph:
    def test_breakdown_invariant_exact(self, rng):
        ac = make_gaussian_ac(seed=1)
        mb = random_minibatch(ac, rng)
        for lam_div, a_vf, a_ent in [(0.0, 0.5, 0.0), (0.3, 0.5, 0.01), (0.0, 0.0, 0.0), (0.1, 0.0, 0.02)]:
            cfg = small_cfg(alpha_vf=a_vf, alpha_ent=a_ent)
            ema = ac.policy_params() + (0.1 if lam_div else 0.0)
            bd = ppo.evaluate_loss(ac, mb, cfg, lam_div, ema if lam_div else None)
            assembled = bd.l_ppo - lam_div * bd.kl_div + a_vf * bd.l_vf - a_ent * bd.entropy
            assert bd.l_total == assembled

    def test_example_assembly_arithmetic(self):
        bd = LossBreakdown(l_ppo=1.0, l_vf=4.0, entropy=1.0, kl_div=0.2, l_total=0.0)
        assembled = bd.l_ppo - 0.5 * bd.kl_div + 0.5 * bd.l_vf - 0.01 * bd.entropy
        assert abs(assembled - 2.89) < 1e-12

    def test_total_loss_gradient_matches_finite_differences(self, rng):
        # the full composite loss against the independent oracle
        for make in (make_gaussian_ac, make_categorical_ac):
            ac = make(seed=5)
            ac.params.data[:] = rng.normal(scale=0.4, size=len(ac.params))
            mb = random_minibatch(ac, rng)
            cfg = small_cfg(alpha_vf=0.7, alpha_ent=0.03)
            ema = ac.policy_params() + rng.normal(scale=0.05, size=ac.n_policy)

            leaves = nn.make_leaves(ac.params)
            loss_t, _ = ppo.loss_graph(ac, leaves, mb, cfg, 0.2, ema)
            loss_t.backward()
            analytic = nn.collect_leaf_grads(leaves, ac.params.layout)

            def scalar(theta):
                probe = ac.with_params(theta)
                return ppo.evaluate_loss(probe, mb, cfg, 0.2, ema).l_total

            fd = central_diff(scalar, ac.params.data)
            assert max_rel_err(analytic, fd) <= 1e-5


    @pytest.mark.parametrize("make", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    def test_zero_weights_only_keep_terms_out_of_the_sum(self, make, rng):
        # the value and entropy terms are still built and reported, but
        # backward never reaches them: the critic gets no gradient at all
        for k in range(20):
            ac = make(hidden=(6, 5), seed=k)
            ac.params.data[:] = rng.normal(scale=1.5, size=len(ac.params))
            if hasattr(ac.head, "action_dim"):
                ac.log_std[:] = rng.choice([-30.0, 0.3, 5.0, pol.LOG_STD_MIN, pol.LOG_STD_MAX], size=ac.log_std.shape)
            mb = random_minibatch(ac, rng, n=int(rng.integers(1, 70)))
            lambda_div = (0.0, 0.3)[k % 2]
            ema = ac.policy_params() + rng.normal(scale=0.05, size=ac.n_policy)
            leaves = nn.make_leaves(ac.params)
            loss_t, bare = ppo.loss_graph(ac, leaves, mb, small_cfg(alpha_vf=0.0, alpha_ent=0.0), lambda_div, ema)
            loss_t.backward()
            grad = nn.collect_leaf_grads(leaves, ac.params.layout)
            assert np.array_equal(grad[ac.n_policy :], np.zeros(len(ac.params) - ac.n_policy)), k
            weighted_cfg = small_cfg(alpha_vf=0.5, alpha_ent=0.02)
            _, weighted = ppo.loss_graph(ac, nn.make_leaves(ac.params), mb, weighted_cfg, lambda_div, ema)
            assert repr(bare.l_vf) == repr(weighted.l_vf), k
            assert repr(bare.entropy) == repr(weighted.entropy), k


class TestValuePathMatchesTape:
    """`evaluate_loss` (numpy) and `loss_graph` (tape) compute the same loss."""

    def _pairs(self, make, rng, n_nets=100):
        for k in range(n_nets):
            obs_dim = int(rng.integers(1, 5))
            hidden = tuple(int(h) for h in rng.integers(2, 9, size=int(rng.integers(1, 3))))
            if make is make_gaussian_ac:
                ac = make(obs_dim=obs_dim, action_dim=int(rng.integers(1, 4)), hidden=hidden, seed=k)
            else:
                ac = make(obs_dim=obs_dim, n_actions=int(rng.integers(2, 6)), hidden=hidden, seed=k)
            ac.params.data[:] = rng.normal(scale=0.5, size=len(ac.params))
            mb = random_minibatch(ac, rng, n=int(rng.integers(2, 70)))
            lambda_div = (0.0, 0.3)[k % 2]
            cfg = small_cfg(alpha_vf=(0.0, 0.5)[k % 3 != 0], alpha_ent=(0.0, 0.02)[(k // 2) % 2])
            ema = ac.policy_params() + rng.normal(scale=0.05, size=ac.n_policy)
            _, taped = ppo.loss_graph(ac, nn.make_leaves(ac.params), mb, cfg, lambda_div, ema)
            yield taped, ppo.evaluate_loss(ac, mb, cfg, lambda_div, ema)

    def test_gaussian_head_bit_identical(self, rng):
        for taped, numpy_bd in self._pairs(make_gaussian_ac, rng):
            assert numpy_bd == taped

    def test_categorical_head_bit_identical(self, rng):
        for taped, numpy_bd in self._pairs(make_categorical_ac, rng):
            assert numpy_bd == taped


class TestBackwardOrder:
    """`Tensor.backward` walks a deep graph in a valid reverse topological
    order: on the reference tape (one leaf per layout entry and the one-node
    ops of tests/tape_ops.py) each leaf gets the gradient that the
    depth-first walk it replaced gives, bit for bit. No node there has three
    consumers, so every valid order gives the same bits, and an invalid one
    runs a node before all of its consumers have added to its gradient."""

    @pytest.mark.parametrize("make", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    def test_matches_the_depth_first_walk(self, rng, make):
        for k in range(100):
            hidden = tuple(int(h) for h in rng.integers(2, 9, size=int(rng.integers(0, 3))))
            ac = make(obs_dim=int(rng.integers(1, 5)), hidden=hidden, seed=k)
            ac.params.data[:] = rng.normal(scale=0.5, size=len(ac.params))
            mb = random_minibatch(ac, rng, n=int(rng.integers(2, 70)))
            cfg = small_cfg(alpha_vf=(0.0, 0.5)[k % 2], alpha_ent=(0.0, 0.02)[(k // 2) % 2])
            lambda_div = (0.0, 0.3)[(k // 4) % 2]
            ema = ac.policy_params() + rng.normal(scale=0.05, size=ac.n_policy)
            grads = []
            for walk in (ops.dfs_backward, Tensor.backward):
                leaves, loss, _ = reference_loss(ac, mb, cfg, lambda_div, ema)
                walk(loss)
                grads.append(ops.collect_entry_grads(leaves, ac.params.layout))
            assert np.array_equal(*grads), k


def composed_loss(logp, ent, values, mb, cfg, lambda_div, ema_logp):
    """The composite loss as the graph of the tape's loss ops that
    `loss_graph`'s one node replaces, and its pieces."""
    l_ppo = ops.clipped_surrogate(logp, mb.log_probs_old, mb.advantages, cfg.clip_epsilon)
    loss, kl = l_ppo, 0.0
    if lambda_div != 0.0:
        kl_t = ops.mean_difference(logp, ema_logp)
        loss, kl = ad.add(loss, ad.mul(kl_t, -lambda_div)), float(kl_t.data)
    l_vf = ops.mean_squared_error(values, mb.returns)
    if cfg.alpha_vf != 0.0:
        loss = ad.add(loss, ad.mul(l_vf, cfg.alpha_vf))
    if cfg.alpha_ent != 0.0:
        loss = ad.add(loss, ad.mul(ent, -cfg.alpha_ent))
    return loss, LossBreakdown(l_ppo=float(l_ppo.data), l_vf=float(l_vf.data), entropy=float(ent.data),
                               kl_div=kl, l_total=float(loss.data))


@st.composite
def loss_inputs(draw):
    """Log-probs, entropy, values and a minibatch for the composite loss; some
    ratios lie exactly on the clip band's edges, and inside the band (or at
    a zero advantage) the clipped and unclipped terms tie."""
    n = draw(st.integers(1, 12))
    eps = draw(st.sampled_from([0.1, 0.2, 0.3]))
    assert np.exp(np.log(1.0 + eps)) == 1.0 + eps and np.exp(np.log(1.0 - eps)) == 1.0 - eps
    num = st.floats(-3.0, 3.0)
    logp_old = np.array(draw(st.lists(num, min_size=n, max_size=n)))
    logp = logp_old + np.array(draw(st.lists(num | st.sampled_from([0.0, 0.05]), min_size=n, max_size=n)))
    for i in draw(st.sets(st.integers(0, n - 1))):  # rows whose ratio is 1 + eps or 1 - eps exactly
        logp_old[i], logp[i] = 0.0, np.log(1.0 + draw(st.sampled_from([eps, -eps])))
    arrays = [np.array(draw(st.lists(num | st.just(0.0), min_size=n, max_size=n))) for _ in range(4)]
    mb = Minibatch(obs=np.zeros((n, 1)), actions=np.zeros(n), log_probs_old=logp_old, advantages=arrays[0],
                   returns=arrays[1])
    # thirds are not dyadic, so a product taken in another order rounds differently
    weight = st.just(0.0) | st.floats(1e-3, 2.0).map(lambda w: w / 3.0)
    cfg = small_cfg(clip_epsilon=eps, alpha_vf=draw(weight), alpha_ent=draw(weight))
    upstream = draw(st.just(1.0) | num.map(lambda u: u / 3.0))
    return logp, np.array(draw(num)), arrays[2], arrays[3], mb, cfg, draw(weight), upstream


class TestCompositeNode:
    """`ppo._composite`'s loss and VJP against the graph of loss ops they
    replace: the same value, pieces and gradients, bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(inputs=loss_inputs())
    def test_matches_the_composed_loss_ops(self, inputs):
        logp, ent, values, ema_logp, mb, cfg, lambda_div, upstream = inputs
        ema_params = np.zeros(1) if lambda_div != 0.0 else None
        bd, loss, vjp = ppo._composite(None, logp, ent, values, mb, cfg, lambda_div, ema_params, ema_logp)
        for u in (upstream, -7.0 / 3.0):  # upstream gradients that need not be 1
            grads = vjp(np.ones(()) * u)
            leaves = [Tensor(x) for x in (logp, ent, values)]
            loss_ref, bd_ref = composed_loss(*leaves, mb, cfg, lambda_div, ema_logp)
            ad.mul(loss_ref, u).backward()
            assert np.array_equal(loss, loss_ref.data) and repr(bd) == repr(bd_ref)
            assert np.array_equal(grads[0], leaves[0].grad)
            for grad, leaf, weight in zip(grads[1:], leaves[1:], (cfg.alpha_ent, cfg.alpha_vf)):
                if weight == 0.0:  # an unweighted term passes its input no gradient
                    assert grad is None and leaf.grad is None
                else:
                    assert np.array_equal(grad, leaf.grad)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def step_inputs(draw):
    """A small actor-critic of either head with 0-2 hidden layers, random
    parameters (some log_std outside [LOG_STD_MIN, LOG_STD_MAX]), a random
    minibatch, loss weights that are each zero or a positive third, the
    reference policy's parameters and a non-unit upstream gradient."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    hidden = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    obs_dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        ac = make_gaussian_ac(obs_dim, draw(st.integers(1, 3)), hidden, seed)
        ac.params.data[:] = rng.normal(scale=0.7, size=len(ac.params))
        special = st.sampled_from([-30.0, pol.LOG_STD_MIN, pol.LOG_STD_MAX, 5.0])
        d = ac.head.action_dim
        ac.log_std[:] = draw(st.lists(special | st.floats(-3.0, 1.0), min_size=d, max_size=d))
    else:
        ac = make_categorical_ac(obs_dim, draw(st.integers(2, 5)), hidden, seed)
        ac.params.data[:] = rng.normal(scale=0.7, size=len(ac.params))
    mb = random_minibatch(ac, rng, n=draw(st.integers(1, 20)))
    weight = st.just(0.0) | st.floats(1e-3, 2.0).map(lambda w: w / 3.0)
    cfg = small_cfg(alpha_vf=draw(weight), alpha_ent=draw(weight))
    ema = ac.policy_params() + rng.normal(scale=0.05, size=ac.n_policy)
    upstream = draw(st.floats(0.1, 3.0).map(lambda u: u / -3.0))
    return ac, mb, cfg, draw(weight), ema, upstream


def reference_loss(ac, mb, cfg, lambda_div, ema):
    """The composite loss on the reference tape, one leaf per layout entry."""
    leaves = ops.entry_leaves(ac.params)
    logp, ent = ops.policy_graph(ac, leaves, mb.obs, mb.actions)
    ema_logp = pol.logp_batch(ac, mb.obs, mb.actions, policy_params=ema)
    loss, bd = composed_loss(logp, ent, ops.values_graph(ac, leaves, mb.obs), mb, cfg, lambda_div, ema_logp)
    return leaves, loss, bd


class TestOneNodeTape:
    """A gradient step's tape is one leaf over the parameter vector and one
    loss node; its loss, pieces and flat gradient equal those of the
    reference tape, with one leaf per layout entry and the one-node tape ops
    of tests/tape_ops.py, bit for bit. So do `policy_graph`'s and
    `values_graph`'s outputs, each one node over the same leaf."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(inputs=step_inputs())
    def test_matches_the_reference_tape(self, inputs):
        ac, mb, cfg, lambda_div, ema, upstream = inputs
        layout = ac.params.layout
        leaf = nn.make_leaves(ac.params)
        loss, bd = ppo.loss_graph(ac, leaf, mb, cfg, lambda_div, ema)
        assert loss._parents == (leaf,)
        ad.mul(loss, upstream).backward()
        leaves, loss_ref, bd_ref = reference_loss(ac, mb, cfg, lambda_div, ema)
        ad.mul(loss_ref, upstream).backward()
        assert bits(loss.data) == bits(loss_ref.data) and repr(bd) == repr(bd_ref)
        assert bits(nn.collect_leaf_grads(leaf, layout)) == bits(ops.collect_entry_grads(leaves, layout))

        weights = np.random.default_rng(len(mb.obs)).normal(size=len(mb.obs)) / 3.0
        for k in range(3):  # log-probs, entropy, values: each alone
            results = []
            for graphs, make in ((pol, nn.make_leaves), (ops, ops.entry_leaves)):
                leaves = make(ac.params)
                out = (*graphs.policy_graph(ac, leaves, mb.obs, mb.actions), graphs.values_graph(ac, leaves, mb.obs))[k]
                ad.tsum(ad.mul(out, weights if k != 1 else upstream)).backward()
                grad = (nn.collect_leaf_grads(leaves, layout) if graphs is pol
                        else ops.collect_entry_grads(leaves, layout))
                results.append((bits(out.data), bits(grad)))
            assert results[0] == results[1], k

    def test_a_leaf_of_another_parameter_vector_is_refused(self, rng):
        ac = make_gaussian_ac()
        mb = random_minibatch(ac, rng)
        other = nn.make_leaves(ac.with_params(ac.params.data.copy()).params)
        for build in (lambda leaf: ppo.loss_graph(ac, leaf, mb, small_cfg()),
                      lambda leaf: pol.policy_graph(ac, leaf, mb.obs, mb.actions),
                      lambda leaf: pol.values_graph(ac, leaf, mb.obs)):
            with pytest.raises(ValueError, match="leaf"):
                build(other)


class TestPpoUpdate:
    def _batch(self, ac, rng, n=16):
        from poemrl.rollout import RolloutBatch, compute_gae

        obs = rng.normal(size=(n, ac.obs_dim()))
        actions = rng.normal(size=(n, 1))
        batch = RolloutBatch(
            obs=obs,
            actions=actions,
            log_probs_old=pol.logp_batch(ac, obs, actions),
            rewards=rng.normal(size=n),
            values_old=pol.values_batch(ac, obs),
            terminated=np.zeros(n, bool),
            truncated=np.zeros(n, bool),
            next_values=np.zeros(n),
            bootstrap_value=0.0,
        )
        batch.next_values[:-1] = batch.values_old[1:]
        return compute_gae(batch, 0.99, 0.95)

    def test_zero_epochs_is_noop(self, rng):
        ac = make_gaussian_ac(seed=2)
        batch = self._batch(ac, rng)
        adam = nn.init_adam(len(ac.params))
        ac2, adam2, diags = ppo.ppo_update(ac, batch, small_cfg(epochs=0), adam, np.random.default_rng(0))
        assert np.array_equal(ac2.params.data, ac.params.data)
        assert diags == []

    def test_zero_advantage_stationary_point(self, rng):
        ac = make_gaussian_ac(seed=3)
        batch = self._batch(ac, rng)
        batch.advantages = np.zeros(len(batch))
        batch.log_probs_old = pol.logp_batch(ac, batch.obs, batch.actions)  # exact ratio 1
        cfg = small_cfg(alpha_vf=0.0, alpha_ent=0.0, minibatch_size=16)
        adam = nn.init_adam(len(ac.params))
        ac2, _, _ = ppo.ppo_update(ac, batch, cfg, adam, np.random.default_rng(0))
        assert np.max(np.abs(ac2.params.data - ac.params.data)) <= 1e-12

    def test_descent_on_fixed_minibatch(self, rng):
        # derived check: one small-lr step decreases the loss it optimizes
        ac = make_gaussian_ac(seed=4)
        batch = self._batch(ac, rng)
        cfg = small_cfg(minibatch_size=16, learning_rate=1e-4)
        mb = batch.minibatch(np.arange(16))
        before = ppo.evaluate_loss(ac, mb, cfg).l_total
        ac2, _, _ = ppo.ppo_update(ac, batch, cfg, nn.init_adam(len(ac.params), lr=1e-4),
                                   np.random.default_rng(0))
        after = ppo.evaluate_loss(ac2, mb, cfg).l_total
        assert after <= before

    def test_update_deterministic_for_fixed_seed(self, rng):
        ac = make_gaussian_ac(seed=6)
        batch = self._batch(ac, rng)
        cfg = small_cfg(epochs=3, minibatch_size=4)
        outs = []
        for _ in range(2):
            adam = nn.init_adam(len(ac.params), lr=cfg.learning_rate)
            ac2, _, _ = ppo.ppo_update(ac, batch, cfg, adam, np.random.default_rng(123))
            outs.append(ac2.params.data)
        assert np.array_equal(outs[0], outs[1])

    def test_minibatch_larger_than_rollout_rejected(self, rng):
        ac = make_gaussian_ac(seed=7)
        batch = self._batch(ac, rng, n=4)
        with pytest.raises(ValueError):
            ppo.ppo_update(ac, batch, small_cfg(minibatch_size=64), nn.init_adam(len(ac.params)),
                           np.random.default_rng(0))

    def test_numerical_failure_reports_minibatch(self, rng):
        ac = make_gaussian_ac(seed=8)
        batch = self._batch(ac, rng)
        batch.log_probs_old[:] = -1e6  # exp overflow in the ratio
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ad.NumericalError) as exc:
            ppo.ppo_update(ac, batch, small_cfg(minibatch_size=16), nn.init_adam(len(ac.params)),
                           np.random.default_rng(0))
        assert "minibatch 0" in str(exc.value)


class TestGradNormClip:
    def test_clip_only_above_threshold(self):
        g = np.array([3.0, 4.0])  # norm 5
        clipped = ppo.clip_grad_norm(g, 0.5)
        assert abs(np.linalg.norm(clipped) - 0.5) < 1e-12
        same = ppo.clip_grad_norm(g, 10.0)
        assert np.array_equal(same, g)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PpoConfig(clip_epsilon=0.0)
        with pytest.raises(ValueError):
            PpoConfig(gamma=1.5)
        with pytest.raises(ValueError):
            PpoConfig(minibatch_size=0)
        with pytest.raises(ValueError):
            PpoConfig(max_grad_norm=-1.0)
