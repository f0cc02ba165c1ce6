"""Welch's t-test against frozen reference fixtures, the incomplete beta
identities, and the deterministic evaluation protocol, whose lockstep
episodes must equal episodes played one after another."""

import json
import math
import pathlib
import re

import numpy as np
import pytest

from poemrl import harness, stats
from poemrl.autodiff import NumericalError
from poemrl.envs import ArrayStep, ContinuousSpace, DiscreteSpace, SparseLander, StepResult, make_env
from poemrl.stats import EvalReport, compare_runs, evaluate_policy, regularized_incomplete_beta, welch_t_test

from conftest import make_categorical_ac, make_gaussian_ac
from row_sampler import one_row_distribution, sample_row

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self, rng):
        for _ in range(300):
            a, b = rng.uniform(0.1, 60, size=2)
            x = float(rng.uniform(0, 1))
            total = regularized_incomplete_beta(a, b, x) + regularized_incomplete_beta(b, a, 1 - x)
            assert abs(total - 1.0) <= 1e-12

    def test_uniform_case_is_identity(self, rng):
        # I_x(1, 1) = x
        for x in rng.uniform(0, 1, size=20):
            assert abs(regularized_incomplete_beta(1.0, 1.0, float(x)) - x) < 1e-14

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)


class TestStudentT:
    def test_t_zero_gives_p_one(self):
        assert stats.student_t_two_tailed_p(0.0, 8.0) == 1.0

    def test_p_monotone_in_abs_t(self):
        for dof in (1.5, 4.0, 8.0, 30.0):
            ps = [stats.student_t_two_tailed_p(t, dof) for t in np.linspace(0, 6, 40)]
            assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))

    def test_symmetric_in_t(self):
        assert stats.student_t_two_tailed_p(1.7, 6.0) == stats.student_t_two_tailed_p(-1.7, 6.0)


class TestWelch:
    def test_identical_samples(self):
        r = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.t_statistic == 0.0
        assert r.p_value == 1.0

    def test_hand_case(self):
        r = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert abs(r.t_statistic - (-1.0)) < 1e-15
        assert abs(r.dof - 8.0) < 1e-12
        assert abs(r.p_value - 0.3466) < 5e-5

    def test_ordering_antisymmetry(self, rng):
        a = rng.normal(size=9)
        b = rng.normal(loc=0.5, size=7)
        r1, r2 = welch_t_test(a, b), welch_t_test(b, a)
        assert r1.t_statistic == -r2.t_statistic
        assert r1.p_value == r2.p_value

    def test_against_frozen_reference_fixtures(self):
        cases = json.loads((FIXTURES / "welch_oracle.json").read_text())
        assert len(cases) >= 20
        for case in cases:
            r = welch_t_test(case["a"], case["b"])
            assert abs(r.t_statistic - case["t"]) <= 1e-10
            assert abs(r.p_value - case["p"]) <= 1e-8
            assert abs(r.dof - case["dof"]) <= 1e-8

    def test_dof_bounds(self, rng):
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(2, 12)))
            b = rng.normal(size=int(rng.integers(2, 12)))
            if a.var(ddof=1) == 0 and b.var(ddof=1) == 0:
                continue
            r = welch_t_test(a, b)
            assert r.dof <= len(a) + len(b) - 2 + 1e-9
            assert r.dof >= min(len(a), len(b)) - 1 - 1e-9

    def test_scaled_samples_give_the_same_statistic(self, rng):
        # t, the dof and p are scale-free; the dof's squared variances of the
        # mean would overflow from about 1e77
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(2, 12)))
            b = rng.normal(loc=0.5, size=int(rng.integers(2, 12)))
            r, scaled = welch_t_test(a, b), welch_t_test(a * 2.0**400, b * 2.0**400)
            assert (scaled.t_statistic, scaled.dof, scaled.p_value) == (r.t_statistic, r.dof, r.p_value)
        r = welch_t_test([1e140, -1e140, 3e139], [1.0, 2.0, 3.0])
        assert 2.0 - 1e-9 <= r.dof <= 4.0 + 1e-9 and 0.0 < r.p_value <= 1.0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_t_test([2.0, 2.0], [3.0, 3.0])  # both variances zero


class TestCompareRuns:
    def test_sign_convention_and_flag(self):
        poem_r = [95.0, 96.0, 94.0]
        ppo_r = [1.0, 2.0, 0.5]
        row = compare_runs(poem_r, ppo_r, alpha=0.05)
        assert row["t"] < 0
        assert row["significant"]
        assert row["mean_poem"] > row["mean_ppo"]

    def test_identical_samples_not_significant(self):
        row = compare_runs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], alpha=0.05)
        assert row["p"] == 1.0
        assert not row["significant"]

    def test_alpha_zero_never_flags(self):
        row = compare_runs([95.0, 96.0], [1.0, 2.0], alpha=0.0)
        assert not row["significant"]

    def test_higher_ppo_mean_never_flags(self):
        row = compare_runs([1.0, 2.0, 0.5], [95.0, 96.0, 94.0], alpha=0.05)
        assert row["t"] > 0
        assert not row["significant"]


class StubEnv:
    """One step, reward 1, then termination."""

    observation_dim = 2
    action_space = ContinuousSpace(1, -1.0, 1.0)
    max_episode_steps = 5

    def reset(self, seed=None):
        self._seed = seed
        return np.array([0.0, 0.0])

    def step(self, action):
        return StepResult(np.array([1.0, 1.0]), 1.0, True, False, {})

    def state(self):
        return (self._seed,)

    @staticmethod
    def step_arrays(state, actions):
        n = len(actions)
        return ArrayStep(state, np.ones((n, 2)), np.ones(n), np.ones(n, dtype=bool), np.zeros(n, dtype=bool), {})


class TestEvaluatePolicy:
    def test_constant_reward_stub(self):
        ac = make_gaussian_ac()
        report = evaluate_policy(StubEnv, ac, n_episodes=4, seed_base=100)
        assert report.mean == 1.0
        assert report.std == 0.0
        assert np.array_equal(report.per_episode_steps, [1, 1, 1, 1])
        assert report.seeds == [100, 101, 102, 103]
        assert [len(s) for s in report.step_series] == [1, 1, 1, 1]

    def test_replay_identical(self):
        ac = make_gaussian_ac(seed=3)
        r1 = evaluate_policy("mountain_car_continuous", ac, 2, seed_base=7, deterministic=True)
        r2 = evaluate_policy("mountain_car_continuous", ac, 2, seed_base=7, deterministic=True)
        assert np.array_equal(r1.per_episode_rewards, r2.per_episode_rewards)
        assert np.array_equal(r1.per_episode_steps, r2.per_episode_steps)

    def test_stochastic_replay_identical(self):
        ac = make_gaussian_ac(seed=4)
        r1 = evaluate_policy("mountain_car_continuous", ac, 2, seed_base=19, deterministic=False)
        r2 = evaluate_policy("mountain_car_continuous", ac, 2, seed_base=19, deterministic=False)
        assert np.array_equal(r1.per_episode_rewards, r2.per_episode_rewards)

    def test_fifteen_episode_protocol(self):
        ac = make_gaussian_ac()
        report = evaluate_policy(StubEnv, ac, n_episodes=15, seed_base=0)
        assert len(report.per_episode_rewards) == 15

    def test_summary_recomputable(self):
        ac = make_gaussian_ac(seed=5)
        report = evaluate_policy("mountain_car_continuous", ac, 3, seed_base=50)
        assert report.mean == pytest.approx(float(report.per_episode_rewards.mean()), abs=1e-15)
        assert report.std == pytest.approx(float(report.per_episode_rewards.std(ddof=1)), abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        ac = make_gaussian_ac(obs_dim=3)
        with pytest.raises(ValueError):
            evaluate_policy(StubEnv, ac, 1, seed_base=0)

    def test_cumulative_series_tracks_totals(self):
        ac = make_gaussian_ac(seed=6)
        report = evaluate_policy("mountain_car_continuous", ac, 1, seed_base=3)
        series = report.step_series[0]
        assert series[-1] == pytest.approx(report.per_episode_rewards[0], abs=1e-12)
        assert len(series) == report.per_episode_steps[0]


def sequential_evaluate(make, ac, n_episodes, seed_base, deterministic) -> EvalReport:
    """Episodes played one after another with one-row actor passes and
    per-row draws: the loop that lockstep evaluation must reproduce bit for bit."""
    rewards, steps, seeds, series, infos = [], [], [], [], []
    for i in range(n_episodes):
        seed = seed_base + i
        env = make()
        obs = env.reset(seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        total, cumulative = 0.0, []
        while True:
            result = env.step(sample_row(one_row_distribution(ac, obs), rng, deterministic))
            total += result.reward
            cumulative.append(total)
            obs = result.obs
            if result.terminated or result.truncated:
                infos.append(dict(result.info, terminated=result.terminated, truncated=result.truncated))
                break
        rewards.append(total)
        steps.append(len(cumulative))
        seeds.append(seed)
        series.append(np.asarray(cumulative))
    rewards = np.asarray(rewards, dtype=np.float64)
    return EvalReport(
        per_episode_rewards=rewards,
        per_episode_steps=np.asarray(steps, dtype=np.int64),
        mean=float(rewards.mean()),
        std=float(rewards.std(ddof=1)) if n_episodes > 1 else 0.0,
        seeds=seeds,
        step_series=series,
        final_infos=infos,
    )


def assert_same_report(got: EvalReport, want: EvalReport) -> None:
    for name in ("per_episode_rewards", "per_episode_steps", "mean", "std"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.per_episode_steps.dtype == want.per_episode_steps.dtype
    assert got.seeds == want.seeds
    assert got.final_infos == want.final_infos
    assert len(got.step_series) == len(want.step_series)
    for i, (a, b) in enumerate(zip(got.step_series, want.step_series)):
        assert np.array_equal(a, b), f"step_series[{i}]"


class StaggeredEnv:
    """An episode of 1 + seed % 7 steps that a termination ends on even seeds
    and a time limit on odd ones. The reward depends on the action, so a
    sampled action shows in the totals; stepping past the end is allowed, so
    an extra step shows in the lengths. `log` records every reset and step."""

    observation_dim = 2
    action_space = ContinuousSpace(1, -1.0, 1.0)

    def __init__(self, log=None):
        self.log = [] if log is None else log

    def reset(self, seed=None):
        self.log.append(("reset", seed))
        self.seed, self.t = seed, 0
        return np.array([0.1 * (seed % 5), 0.0])

    def step(self, action):
        self.log.append(("step", self.seed))
        self.t += 1
        done = self.t >= 1 + self.seed % 7
        obs = np.array([0.1 * (self.seed % 5) + 0.05 * self.t, -0.03 * self.t])
        reward = float(np.sum(action)) + 0.01 * self.t
        odd = self.seed % 2 == 1
        return StepResult(obs, reward, done and not odd, done and odd, {"seed": self.seed, "t": self.t})

    def state(self):
        return self.seed, self.t

    @staticmethod
    def step_arrays(state, actions):
        # `step` for E episodes; a categorical action is one number per row
        seed, t = state
        t = t + 1
        done = t >= 1 + seed % 7
        obs = np.stack([0.1 * (seed % 5) + 0.05 * t, -0.03 * t], axis=1)
        reward = np.asarray(actions, dtype=np.float64).reshape(len(seed), -1).sum(axis=1) + 0.01 * t
        odd = seed % 2 == 1
        return ArrayStep((seed, t), obs, reward, done & ~odd, done & odd, {"seed": seed, "t": t})


class StaggeredDiscreteEnv(StaggeredEnv):
    """StaggeredEnv for a 3-way categorical policy."""

    action_space = DiscreteSpace(3)


def perturbed(ac, seed):
    ac.params.data[:] += np.random.default_rng(seed).normal(scale=0.5, size=len(ac.params))
    return ac


class TestLockstepEvaluation:
    @pytest.mark.parametrize("n_episodes", [1, 7, 20])
    @pytest.mark.parametrize("deterministic", [True, False], ids=["mode", "sampled"])
    @pytest.mark.parametrize("make_ac, env", [
        (lambda: make_gaussian_ac(hidden=(5, 3), seed=1), StaggeredEnv),
        (lambda: make_categorical_ac(n_actions=3, hidden=(7,), seed=2), StaggeredDiscreteEnv),
    ], ids=["gaussian", "categorical"])
    def test_staggered_episodes_match_sequential_play(self, make_ac, env, deterministic, n_episodes):
        ac = perturbed(make_ac(), n_episodes)
        report = evaluate_policy(env, ac, n_episodes, seed_base=100, deterministic=deterministic)
        assert_same_report(report, sequential_evaluate(env, ac, n_episodes, 100, deterministic))
        seeds = list(range(100, 100 + n_episodes))
        assert report.per_episode_steps.tolist() == [1 + s % 7 for s in seeds]
        assert [len(series) for series in report.step_series] == [1 + s % 7 for s in seeds]
        assert [(info["seed"], info["terminated"], info["truncated"]) for info in report.final_infos] == [
            (s, s % 2 == 0, s % 2 == 1) for s in seeds
        ]

    @pytest.mark.parametrize("env_id, hidden, deterministic, n_episodes", [
        ("mountain_car_continuous", (64, 64), True, 1),
        ("mountain_car_continuous", (7,), False, 3),
        ("sparse_lander", (16, 8, 4), True, 20),
        ("sparse_lander", (33, 5), False, 15),
        ("sparse_lander", (64, 64), False, 1),
    ])
    def test_env_episodes_match_sequential_play(self, env_id, hidden, deterministic, n_episodes):
        ac = perturbed(harness.build_actor_critic(make_env(env_id), hidden, param_seed=n_episodes), 3)
        report = evaluate_policy(env_id, ac, n_episodes, seed_base=40, deterministic=deterministic)
        want = sequential_evaluate(lambda: make_env(env_id), ac, n_episodes, 40, deterministic)
        assert_same_report(report, want)

    def test_non_finite_actor_output_raises(self):
        ac = make_gaussian_ac()
        ac.params.data[:] = np.nan
        with pytest.raises(NumericalError):
            evaluate_policy(StaggeredEnv, ac, 3, seed_base=0)

    def test_dimension_mismatch_raises_before_any_env_call(self):
        log, made = [], []

        def make():
            env = StaggeredEnv(log)
            if len(made) == 3:
                env.observation_dim = 3
            made.append(env)
            return env

        with pytest.raises(ValueError, match="^policy expects 2-dim observations, env has 3$"):
            evaluate_policy(make, make_gaussian_ac(), 5, seed_base=0)
        assert log == []

    @pytest.mark.parametrize("env_id, ac, message", [
        ("mountain_car_continuous", make_categorical_ac(n_actions=1),
         "policy head CategoricalHead(n_actions=1) does not match the env's action space "
         "ContinuousSpace(dim=1, low=-1.0, high=1.0)"),
        ("sparse_lander", make_gaussian_ac(obs_dim=5, action_dim=4),
         "policy head DiagGaussianHead(action_dim=4) does not match the env's action space DiscreteSpace(n=4)"),
    ], ids=["categorical-on-mountain-car", "gaussian-on-lander"])
    def test_head_mismatch_raises(self, env_id, ac, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_policy(env_id, ac, 3, seed_base=0)

    def test_sampled_actions_do_not_reuse_the_env_stream(self):
        # with a uniform 4-way actor the first action is floor(4u) of the action
        # generator's first uniform draw u, and reset places the lander at
        # x0 = 2u' - 1 from the env's first draw u': one shared stream would make
        # every first action floor(2 * (x0 + 1))
        first = []

        class Lander(SparseLander):
            @classmethod
            def step_arrays(cls, state, actions):
                if not first:
                    first.append(actions.tolist())
                return super().step_arrays(state, actions)

        ac = harness.build_actor_critic(SparseLander(), (8,), param_seed=0)
        for array in ac.actor_layers[-1]:  # the final layer's W and b: every logit is 0
            array[:] = 0.0
        report = evaluate_policy(Lander, ac, 40, seed_base=10_000, deterministic=False)
        x0 = [SparseLander().reset(seed=seed)[0] for seed in report.seeds]
        assert first[0] != [math.floor(2.0 * (x + 1.0)) for x in x0]
