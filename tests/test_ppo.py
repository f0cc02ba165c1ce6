"""Clipped surrogate, value loss, and the minibatch update loop."""

import math

import numpy as np
import pytest

from poemrl import autodiff as ad
from poemrl import nn, ppo
from poemrl import policy as pol
from poemrl.ppo import LossBreakdown, PpoConfig
from poemrl.rollout import Minibatch

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
        ratio = ad.exp(ad.add(logp_leaf, ad.constant(-logp_old)))
        clipped = ad.clip(ratio, 0.8, 1.2)
        loss = ad.mul(ad.tmean(ad.minimum(ad.mul(ratio, ad.constant(adv)),
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

    def test_categorical_head_within_1e12_relative(self, rng):
        # the tape's log-softmax subtracts log-sum-exp from the raw logits,
        # logp_batch from the max-shifted ones, so the last bits may differ
        for taped, numpy_bd in self._pairs(make_categorical_ac, rng):
            for field in ("l_ppo", "l_vf", "entropy", "kl_div", "l_total"):
                a, b = getattr(taped, field), getattr(numpy_bd, field)
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), field


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
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(nn.NumericalError) as exc:
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
