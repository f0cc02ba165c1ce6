"""The mutation-augmented update: EMA tracking, sampled KL, composite loss,
sigma interpolation, mutate-and-select, and reduction to plain PPO."""

from dataclasses import replace

import numpy as np
import pytest

from poemrl import nn, poem, ppo
from poemrl import policy as pol
from poemrl.autodiff import NumericalError
from poemrl.poem import TRIGGER_OFF, EmaTracker, PoemConfig
from poemrl.ppo import PpoConfig
from poemrl.rollout import RolloutBatch, compute_gae

from conftest import make_categorical_ac, make_gaussian_ac


def small_ppo_cfg(**kw):
    defaults = dict(epochs=2, minibatch_size=8, learning_rate=3e-4)
    defaults.update(kw)
    return PpoConfig(**defaults)


def gaussian_batch(ac, rng, n=16):
    """A rollout batch of random pairs; categorical heads get action indices."""
    obs = rng.normal(size=(n, ac.obs_dim()))
    if hasattr(ac.head, "n_actions"):
        actions = rng.integers(0, ac.head.n_actions, size=n)
    else:
        actions = rng.normal(size=(n, ac.head.action_dim))
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


class TestEmaUpdate:
    def test_beta_one_keeps_history(self):
        tr = EmaTracker(np.array([1.0, 2.0]), beta=1.0)
        out = poem.ema_update(tr, np.array([5.0, 5.0]))
        assert np.array_equal(out.theta_hat, [1.0, 2.0])

    def test_beta_zero_forgets_history(self):
        tr = EmaTracker(np.array([1.0, 2.0]), beta=0.0)
        out = poem.ema_update(tr, np.array([5.0, 6.0]))
        assert np.array_equal(out.theta_hat, [5.0, 6.0])

    def test_scalar_arithmetic(self):
        tr = EmaTracker(np.array([0.0]), beta=0.9)
        out = poem.ema_update(tr, np.array([1.0]))
        assert abs(out.theta_hat[0] - 0.1) < 1e-15

    def test_contraction_toward_theta(self, rng):
        beta = 0.7
        tr = EmaTracker(rng.normal(size=20), beta=beta)
        theta = rng.normal(size=20)
        out = poem.ema_update(tr, theta)
        assert np.allclose(np.abs(out.theta_hat - theta), beta * np.abs(tr.theta_hat - theta))

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poem.ema_update(EmaTracker(np.zeros(3), 0.9), np.zeros(4))


class TestKlDivergenceMc:
    def test_identical_policies_give_exactly_zero(self, rng):
        for make in (make_gaussian_ac, make_categorical_ac):
            ac = make(seed=1)
            ac.params.data[:] = rng.normal(scale=0.4, size=len(ac.params))
            batch = gaussian_batch(make_gaussian_ac(seed=1), rng) if make is make_gaussian_ac else None
            if batch is None:
                obs = rng.normal(size=(8, 2))
                actions = rng.integers(0, ac.head.n_actions, size=8)
                mb = type("B", (), {"obs": obs, "actions": actions})
            else:
                mb = batch
            assert poem.kl_divergence_mc(ac, ac.policy_params(), mb) == 0.0

    def test_single_pair_equals_logp_difference(self, rng):
        ac = make_gaussian_ac(seed=2)
        obs = rng.normal(size=(1, 2))
        actions = rng.normal(size=(1, 1))
        other = ac.policy_params()
        other[:] += 0.05
        mb = type("B", (), {"obs": obs, "actions": actions})
        expected = float(
            pol.logp_batch(ac, obs, actions)[0]
            - pol.logp_batch(ac, obs, actions, policy_params=other)[0]
        )
        assert poem.kl_divergence_mc(ac, other, mb) == expected

    @pytest.mark.parametrize("make", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    def test_returned_log_probs_are_the_estimates_terms(self, rng, make):
        ac = make(seed=3)
        mb = gaussian_batch(ac, rng)
        ref = ac.policy_params() + 0.05
        d_post, lp_cur, lp_ref = poem.kl_divergence_mc(ac, ref, mb, return_logps=True)
        assert d_post == poem.kl_divergence_mc(ac, ref, mb)
        assert np.array_equal(lp_cur, pol.logp_batch(ac, mb.obs, mb.actions))
        assert np.array_equal(lp_ref, pol.logp_batch(ac, mb.obs, mb.actions, policy_params=ref))

    def test_matches_closed_form_gaussian_kl(self):
        # oracle: KL(N(m1,s1) || N(m2,s2)) in closed form, sampled at N=1e5
        ac = make_gaussian_ac(obs_dim=1, hidden=(), seed=0)  # actor = affine(1->1)
        ac.params.data[:] = 0.0
        rng = np.random.default_rng(9)
        n = 100_000
        obs = np.zeros((n, 1))
        for trial in range(3):
            m1, m2 = rng.uniform(-0.3, 0.3, size=2)
            ls1, ls2 = rng.uniform(-0.3, 0.3, size=2)
            cur = ac.policy_params()
            cur[1] = m1  # actor bias
            cur[2] = ls1  # log_std
            ref = cur.copy()
            ref[1] = m2
            ref[2] = ls2
            probe = ac.with_params(np.concatenate([cur, ac.params.data[ac.n_policy:]]))

            s1, s2 = np.exp(ls1), np.exp(ls2)
            actions = (m1 + s1 * rng.standard_normal(n))[:, None]
            mb = type("B", (), {"obs": obs, "actions": actions})
            estimate = poem.kl_divergence_mc(probe, ref, mb)

            closed = np.log(s2 / s1) + (s1**2 + (m1 - m2) ** 2) / (2 * s2**2) - 0.5
            per_sample = (
                pol.logp_batch(probe, obs, actions)
                - pol.logp_batch(probe, obs, actions, policy_params=ref)
            )
            se = per_sample.std(ddof=1) / np.sqrt(n)
            assert abs(estimate - closed) <= 3 * se


class TestTotalLoss:
    def test_term_isolation(self, rng):
        ac = make_gaussian_ac(seed=3)
        batch = gaussian_batch(ac, rng)
        mb = batch.minibatch(np.arange(8))
        cfg = small_ppo_cfg(alpha_vf=0.0, alpha_ent=0.0)
        bd = poem.total_loss(ac, ac.policy_params() + 0.1, mb, cfg, PoemConfig(lambda_div=0.0))
        assert bd.l_total == bd.l_ppo

    def test_identical_ema_matches_plain_ppo_loss(self, rng):
        ac = make_gaussian_ac(seed=4)
        batch = gaussian_batch(ac, rng)
        mb = batch.minibatch(np.arange(8))
        cfg = small_ppo_cfg(alpha_vf=0.5, alpha_ent=0.01)
        bd = poem.total_loss(ac, ac.policy_params(), mb, cfg, PoemConfig(lambda_div=0.7))
        assert bd.kl_div == 0.0
        plain = ppo.evaluate_loss(ac, mb, cfg)
        assert bd.l_total == plain.l_total

    def test_breakdown_invariant_with_diversity_term(self, rng):
        ac = make_gaussian_ac(seed=5)
        batch = gaussian_batch(ac, rng)
        mb = batch.minibatch(np.arange(16))
        cfg = small_ppo_cfg(alpha_vf=0.5, alpha_ent=0.02)
        pc = PoemConfig(lambda_div=0.3)
        bd = poem.total_loss(ac, ac.policy_params() + 0.05, mb, cfg, pc)
        assert bd.kl_div != 0.0
        assembled = bd.l_ppo - pc.lambda_div * bd.kl_div + cfg.alpha_vf * bd.l_vf - cfg.alpha_ent * bd.entropy
        assert bd.l_total == assembled


class TestMutationSigma:
    CFG = PoemConfig(delta=0.01, sigma_min=0.01, sigma_max=0.1)

    def test_full_stagnation_endpoint(self):
        assert poem.mutation_sigma(0.0, self.CFG) == 0.1

    def test_threshold_endpoint(self):
        assert poem.mutation_sigma(0.01, self.CFG) == 0.01

    def test_midpoint(self):
        assert abs(poem.mutation_sigma(0.005, self.CFG) - 0.055) < 1e-15

    def test_clamped_for_all_real_inputs(self, rng):
        for d in [*rng.normal(scale=10, size=500), -1e300, 1e300]:
            s = poem.mutation_sigma(float(d), self.CFG)
            assert self.CFG.sigma_min <= s <= self.CFG.sigma_max

    def test_negative_d_post_clamps_to_sigma_max(self):
        assert poem.mutation_sigma(-0.5, self.CFG) == 0.1


class TestMutateAndSelect:
    def _setup(self, rng, seed=6):
        ac = make_gaussian_ac(seed=seed)
        batch = gaussian_batch(ac, rng)
        mb = batch.minibatch(np.arange(16))
        return ac, mb, small_ppo_cfg(), PoemConfig(n_candidates=3)

    def test_sigma_zero_never_accepted(self, rng):
        ac, mb, pcfg, mcfg = self._setup(rng)
        ema = ac.policy_params() + 0.02
        out, metrics = poem.mutate_and_select(ac, ema, mb, 0.0, pcfg, mcfg,
                                              np.random.default_rng(0), d_post=0.001)
        assert not metrics.mutation_accepted
        assert np.array_equal(out.params.data, ac.params.data)
        assert metrics.l_total_after == metrics.l_total_before

    def test_selection_matches_exhaustive_oracle(self, rng):
        # replay the generator and compare all candidate losses by hand
        ac, mb, pcfg, mcfg = self._setup(rng)
        ema = ac.policy_params() + 0.02
        sigma = 0.05
        out, metrics = poem.mutate_and_select(ac, ema, mb, sigma, pcfg, mcfg,
                                              np.random.default_rng(42), d_post=0.0)

        replay = np.random.default_rng(42)
        losses = [poem.total_loss(ac, ema, mb, pcfg, mcfg).l_total]
        cands = [ac.params.data]
        for _ in range(mcfg.n_candidates):
            noise = sigma * replay.standard_normal(ac.n_policy)
            data = ac.params.data.copy()
            data[ac.policy_slice] += noise
            cands.append(data)
            losses.append(poem.total_loss(ac.with_params(data), ema, mb, pcfg, mcfg).l_total)
        best = int(np.argmin(losses))
        assert np.array_equal(out.params.data, cands[best])
        assert metrics.mutation_accepted == (best != 0)

    @pytest.mark.parametrize("scope", poem.MUTATE_SCOPES)
    @pytest.mark.parametrize("alpha_ent", [0.0, 0.01])
    @pytest.mark.parametrize("make", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    def test_four_candidates_match_exhaustive_oracle(self, rng, make, alpha_ent, scope):
        # every score equals a full `total_loss` of a freshly built candidate
        ac = make(seed=6)
        ac.params.data[:] = rng.normal(scale=0.4, size=len(ac.params))
        mb = gaussian_batch(ac, rng).minibatch(np.arange(16))
        pcfg = small_ppo_cfg(alpha_ent=alpha_ent)
        mcfg = PoemConfig(n_candidates=4, mutate_scope=scope, lambda_div=0.05)
        ema = ac.policy_params() + 0.02
        n_mutated = ac.n_policy if scope == "actor_only" else len(ac.params)
        for trial in range(10):
            sigma = float(rng.uniform(0.0, 0.3))
            out, metrics = poem.mutate_and_select(ac, ema, mb, sigma, pcfg, mcfg,
                                                  np.random.default_rng(trial), d_post=0.0)
            replay = np.random.default_rng(trial)
            losses = [poem.total_loss(ac, ema, mb, pcfg, mcfg).l_total]
            cands = [ac.params.data]
            for _ in range(mcfg.n_candidates):
                data = ac.params.data.copy()
                data[:n_mutated] += sigma * replay.standard_normal(n_mutated)
                cands.append(data)
                losses.append(poem.total_loss(ac.with_params(data), ema, mb, pcfg, mcfg).l_total)
            best = int(np.argmin(losses))
            assert np.array_equal(out.params.data, cands[best])
            assert metrics.mutation_accepted == (best != 0)
            assert metrics.l_total_before == losses[0]
            assert metrics.l_total_after == losses[best]

    def test_replay_is_deterministic(self, rng):
        ac, mb, pcfg, mcfg = self._setup(rng, seed=7)
        ema = ac.policy_params()
        runs = [
            poem.mutate_and_select(ac, ema, mb, 0.03, pcfg, mcfg,
                                   np.random.default_rng(5), d_post=0.0)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][0].params.data, runs[1][0].params.data)
        assert runs[0][1].mutation_accepted == runs[1][1].mutation_accepted

    def test_never_accepts_non_improving_candidate(self, rng):
        ac, mb, pcfg, _ = self._setup(rng, seed=8)
        ema = ac.policy_params() + 0.01
        mcfg = PoemConfig(n_candidates=2)
        for trial in range(50):
            out, metrics = poem.mutate_and_select(
                ac, ema, mb, float(rng.uniform(0, 0.2)), pcfg, mcfg,
                np.random.default_rng(trial), d_post=0.0,
            )
            if metrics.mutation_accepted:
                assert metrics.l_total_after < metrics.l_total_before
            else:
                assert np.array_equal(out.params.data, ac.params.data)

    def test_negative_sigma_rejected(self, rng):
        ac, mb, pcfg, mcfg = self._setup(rng, seed=9)
        with pytest.raises(ValueError):
            poem.mutate_and_select(ac, ac.policy_params(), mb, -0.1, pcfg, mcfg,
                                   np.random.default_rng(0), d_post=0.0)


class TestPoemUpdate:
    def test_trigger_disabled_never_mutates(self, rng):
        ac = make_gaussian_ac(seed=10)
        batch = gaussian_batch(ac, rng)
        cfg = small_ppo_cfg()
        pc = PoemConfig(delta=TRIGGER_OFF, lambda_div=0.01)
        tracker = poem.init_tracker(ac, pc.beta)
        _, _, _, diags = poem.poem_update(
            ac, tracker, batch, cfg, pc, nn.init_adam(len(ac.params), lr=cfg.learning_rate),
            np.random.default_rng(1), np.random.default_rng(2),
        )
        assert all(not dm.mutation_triggered for _, dm in diags)
        assert all(dm.sigma_used is None for _, dm in diags)

    def test_reduction_to_plain_ppo_is_bit_identical(self, rng):
        # lambda_div = 0 and trigger off: same trajectory as ppo_update
        ac = make_gaussian_ac(seed=11)
        batch = gaussian_batch(ac, rng, n=32)
        cfg = small_ppo_cfg(epochs=3, minibatch_size=8)
        pc = PoemConfig(lambda_div=0.0, delta=TRIGGER_OFF)

        adam1 = nn.init_adam(len(ac.params), lr=cfg.learning_rate)
        poem_ac, _, _, _ = poem.poem_update(
            ac, poem.init_tracker(ac, pc.beta), batch, cfg, pc, adam1,
            np.random.default_rng(7), np.random.default_rng(8),
        )
        adam2 = nn.init_adam(len(ac.params), lr=cfg.learning_rate)
        ppo_ac, _, _ = ppo.ppo_update(ac, batch, cfg, adam2, np.random.default_rng(7))
        assert np.array_equal(poem_ac.params.data, ppo_ac.params.data)

    def test_far_frozen_ema_suppresses_mutation(self, rng):
        # reference policy far away (log_std shifted +10): d_post >> delta
        ac = make_gaussian_ac(seed=12)
        batch = gaussian_batch(ac, rng)
        cfg = small_ppo_cfg()
        pc = PoemConfig(beta=1.0, delta=0.01, lambda_div=0.01)  # beta=1 freezes the tracker
        far = ac.policy_params()
        far[ac.actor_spec.n_params :] += 10.0
        tracker = EmaTracker(far, beta=1.0)
        _, tracker2, _, diags = poem.poem_update(
            ac, tracker, batch, cfg, pc, nn.init_adam(len(ac.params), lr=cfg.learning_rate),
            np.random.default_rng(3), np.random.default_rng(4),
        )
        assert np.array_equal(tracker2.theta_hat, far)
        for _, dm in diags:
            assert dm.d_post > pc.delta
            assert not dm.mutation_triggered

    def test_mutation_rows_satisfy_strict_improvement(self, rng):
        ac = make_gaussian_ac(seed=13)
        batch = gaussian_batch(ac, rng, n=32)
        cfg = small_ppo_cfg(epochs=2, minibatch_size=8)
        pc = PoemConfig(delta=10.0, lambda_div=0.01)  # trigger on every minibatch
        _, _, _, diags = poem.poem_update(
            ac, poem.init_tracker(ac, pc.beta), batch, cfg, pc,
            nn.init_adam(len(ac.params), lr=cfg.learning_rate),
            np.random.default_rng(5), np.random.default_rng(6),
        )
        assert any(dm.mutation_triggered for _, dm in diags)
        for _, dm in diags:
            if dm.mutation_triggered:
                assert dm.sigma_used is not None
                assert pc.sigma_min <= dm.sigma_used <= pc.sigma_max
            if dm.mutation_accepted:
                assert dm.l_total_after < dm.l_total_before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PoemConfig(beta=1.5)
        with pytest.raises(ValueError):
            PoemConfig(sigma_min=0.2, sigma_max=0.1)
        with pytest.raises(ValueError):
            PoemConfig(n_candidates=0)
        with pytest.raises(ValueError):
            PoemConfig(mutate_scope="everything")

    def test_mutate_scope_actor_and_critic_perturbs_critic(self, rng):
        ac = make_gaussian_ac(seed=14)
        batch = gaussian_batch(ac, rng)
        mb = batch.minibatch(np.arange(16))
        pcfg = small_ppo_cfg()
        mcfg = PoemConfig(mutate_scope="actor_and_critic", n_candidates=1)
        # find an accepted mutation, then check the critic slice moved
        for trial in range(30):
            out, metrics = poem.mutate_and_select(
                ac, ac.policy_params() + 0.01, mb, 0.05, pcfg, mcfg,
                np.random.default_rng(trial), d_post=0.0,
            )
            if metrics.mutation_accepted:
                assert not np.array_equal(out.params.data[ac.n_policy :],
                                          ac.params.data[ac.n_policy :])
                break
        else:
            pytest.fail("no accepted mutation in 30 seeded tries")


class TestUpdateWork:
    """How many forward passes and tape nodes a POEM minibatch costs."""

    @staticmethod
    def passes_per_call(monkeypatch):
        """Count the network passes made inside each probe and trigger: calls
        of `nn.forward_activations`, which `nn.forward_batch` runs too."""
        passes = {"total": 0, "probe": [], "trigger": []}
        forward = nn.forward_activations

        def counted(*args):
            passes["total"] += 1
            return forward(*args)

        def within(name, fn):
            def wrapped(*args, **kwargs):
                before = passes["total"]
                result = fn(*args, **kwargs)
                passes[name].append(passes["total"] - before)
                return result

            return wrapped

        monkeypatch.setattr(nn, "forward_activations", counted)
        monkeypatch.setattr(poem, "kl_divergence_mc", within("probe", poem.kl_divergence_mc))
        monkeypatch.setattr(poem, "mutate_and_select", within("trigger", poem.mutate_and_select))
        return passes

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("scope,alpha_ent", [
        ("actor_only", 0.0), ("actor_and_critic", 0.0), ("actor_only", 0.01),
    ], ids=["actor_only", "actor_and_critic", "actor_only-entropy"])
    @pytest.mark.parametrize("make", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    def test_trigger_runs_one_critic_pass_and_one_actor_pass_per_candidate(
        self, rng, monkeypatch, make, scope, alpha_ent, k
    ):
        ac = make(seed=15)
        batch = gaussian_batch(ac, rng, n=16)
        cfg = small_ppo_cfg(epochs=1, alpha_ent=alpha_ent)
        pc = PoemConfig(delta=10.0, n_candidates=k, mutate_scope=scope)  # trigger on every minibatch
        passes = self.passes_per_call(monkeypatch)
        poem.poem_update(ac, poem.init_tracker(ac, pc.beta), batch, cfg, pc,
                         nn.init_adam(len(ac.params), lr=cfg.learning_rate),
                         np.random.default_rng(1), np.random.default_rng(2))
        per_candidate = 2 if scope == "actor_and_critic" else 1
        # a counted categorical entropy costs the incumbent one actor pass
        entropy_pass = int(alpha_ent != 0.0 and make is make_categorical_ac)
        assert passes["probe"] == [2, 2]
        assert passes["trigger"] == [1 + entropy_pass + per_candidate * k] * 2

    @pytest.mark.parametrize("env_id", ["mountain_car_continuous", "sparse_lander"])
    def test_entropy_is_computed_once_per_gradient_step_and_scored_candidate(self, monkeypatch, env_id):
        # the d_post probe, the EMA pass and the rollout's pi_old pass read no entropy, so compute none
        from poemrl import envs, harness, rollout
        from poemrl.config import load_run_config

        cfg = load_run_config(flag_overrides={("run", "env"): env_id}, environ={})
        env = envs.make_env(env_id)
        ac = harness.build_actor_critic(env, cfg.hidden_sizes, 0, cfg.log_std_init)
        calls = []
        for owner, name in ((pol, "categorical_entropy"), (pol.DiagGaussianHead, "entropy")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        batch, _ = rollout.collect(env, ac, cfg.n_steps, np.random.default_rng(0), env.reset(seed=1))
        assert calls == []
        batch = rollout.compute_gae(batch, cfg.ppo.gamma, cfg.ppo.lam)
        _, _, _, diags = poem.poem_update(ac, poem.init_tracker(ac, cfg.poem.beta), batch, cfg.ppo, cfg.poem,
                                          nn.init_adam(len(ac.params), lr=cfg.ppo.learning_rate),
                                          np.random.default_rng(1), np.random.default_rng(2))
        triggers = sum(dm.mutation_triggered for _, dm in diags)
        assert cfg.ppo.alpha_ent == 0.0 and 0 < triggers < len(diags)  # the incumbent's entropy is not weighted
        assert len(calls) == len(diags) + triggers * cfg.poem.n_candidates

    @staticmethod
    def tensors_made(monkeypatch, env_id, run) -> int:
        """Tensors that `run(ac, mb, ppo_cfg, lambda_div, ema_policy_params)`
        makes on one minibatch under `env_id`'s default config."""
        from poemrl import envs, harness
        from poemrl.autodiff import Tensor
        from poemrl.config import load_run_config

        cfg = load_run_config(flag_overrides={("run", "env"): env_id}, environ={})
        ac = harness.build_actor_critic(envs.make_env(cfg.env_id), cfg.hidden_sizes, 0, cfg.log_std_init)
        mb = gaussian_batch(ac, np.random.default_rng(0), n=cfg.ppo.minibatch_size).minibatch(
            np.arange(cfg.ppo.minibatch_size))
        created = []
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Tensor, "__init__", counted)
            run(ac, mb, cfg.ppo, cfg.poem.lambda_div, ac.policy_params() + 0.01)
        return len(created)

    def gradient_step_tensor_count(self, monkeypatch, env_id) -> int:
        """Tensors one POEM gradient step makes: the parameter leaf and the loss node."""
        def step(ac, mb, cfg, lambda_div, ema):
            ppo.apply_minibatch_step(ac, mb, cfg, nn.init_adam(len(ac.params)), lambda_div, ema)

        return self.tensors_made(monkeypatch, env_id, step)

    def test_mcc_poem_gradient_step_tensor_count(self, monkeypatch):
        assert self.gradient_step_tensor_count(monkeypatch, "mountain_car_continuous") == 2

    def test_lander_poem_gradient_step_tensor_count(self, monkeypatch):
        assert self.gradient_step_tensor_count(monkeypatch, "sparse_lander") == 2

    @pytest.mark.parametrize("env_id", ["mountain_car_continuous", "sparse_lander"])
    def test_scoring_builds_no_tensor(self, monkeypatch, env_id):
        # with the three stand-ins mutate_and_select passes, and with none
        def with_stand_ins(ac, mb, cfg, lambda_div, ema):
            known = dict(logp=pol.logp_batch(ac, mb.obs, mb.actions), values=pol.values_batch(ac, mb.obs),
                         ema_logp=pol.logp_batch(ac, mb.obs, mb.actions, policy_params=ema))
            return ppo.evaluate_loss(ac, mb, replace(cfg, alpha_ent=0.01), lambda_div, ema, **known)

        assert self.tensors_made(monkeypatch, env_id, with_stand_ins) == 0
        assert self.tensors_made(monkeypatch, env_id, ppo.evaluate_loss) == 0


class TestUpdateErrors:
    """A numerical failure anywhere in a minibatch names that minibatch."""

    def _run(self, rng):
        ac = make_gaussian_ac(seed=16)
        batch = gaussian_batch(ac, rng, n=32)
        cfg = small_ppo_cfg(epochs=1)
        pc = PoemConfig(delta=10.0)
        return lambda: poem.poem_update(
            ac, poem.init_tracker(ac, pc.beta), batch, cfg, pc,
            nn.init_adam(len(ac.params), lr=cfg.learning_rate),
            np.random.default_rng(3), np.random.default_rng(4),
        )

    def test_non_finite_probe_names_its_minibatch(self, rng, monkeypatch):
        probe = poem.kl_divergence_mc
        calls = []

        def nan_on_fourth(ac, ema, batch, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                ema = np.full_like(ema, np.nan)  # a non-finite log-probability
            return probe(ac, ema, batch, **kwargs)

        monkeypatch.setattr(poem, "kl_divergence_mc", nan_on_fourth)
        with pytest.raises(NumericalError, match=r"^update aborted at minibatch 3: non-finite log-probability"):
            self._run(rng)()

    def test_failed_trigger_names_its_minibatch(self, rng, monkeypatch):
        select = poem.mutate_and_select
        calls = []

        def fail_on_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise NumericalError("scoring failed")
            return select(*args)

        monkeypatch.setattr(poem, "mutate_and_select", fail_on_third)
        with pytest.raises(NumericalError, match=r"^update aborted at minibatch 2: scoring failed$"):
            self._run(rng)()
