"""Collection and advantage estimation against brute-force oracles."""

import numpy as np
import pytest

from poemrl import harness, policy as pol
from poemrl.envs import ContinuousSpace, StepResult, make_env
from poemrl.rollout import RolloutBatch, collect, compute_gae

from conftest import make_categorical_ac, make_gaussian_ac
from row_sampler import one_row_distribution, sample_row


class OneStepEnv:
    """Terminates on every step with reward 1."""

    observation_dim = 2
    action_space = ContinuousSpace(1, -1.0, 1.0)
    max_episode_steps = 10

    def __init__(self):
        self.resets = 0

    def reset(self, seed=None):
        self.resets += 1
        return np.array([0.1, 0.2])

    def step(self, action):
        return StepResult(np.array([0.0, 0.0]), 1.0, True, False, {})


class DriftEnv:
    """Never terminates; observation drifts deterministically."""

    observation_dim = 2
    action_space = ContinuousSpace(1, -1.0, 1.0)
    max_episode_steps = 1000

    def __init__(self):
        self.t = 0

    def reset(self, seed=None):
        self.t = 0
        return np.array([0.0, 0.0])

    def step(self, action):
        self.t += 1
        return StepResult(np.array([self.t * 0.01, -self.t * 0.01]), 0.5, False, False, {})


class ClippingDriftEnv(DriftEnv):
    """DriftEnv that zeroes the action array it is given, in place."""

    def step(self, action):
        action[...] = 0.0
        return super().step(action)


class CutOffEnv:
    """Hits a time limit every `limit` steps of an episode and terminates at
    the given global steps; every observation is distinct, and every step
    result is recorded."""

    observation_dim = 2
    action_space = ContinuousSpace(1, -1.0, 1.0)

    def __init__(self, limit, terminate_at):
        self.limit = limit
        self.terminate_at = set(terminate_at)
        self.total = 0
        self.t = 0
        self.resets = 0
        self.results = []

    def reset(self, seed=None):
        self.resets += 1
        self.t = 0
        return np.array([-0.5, 0.1 * self.resets])

    def step(self, action):
        self.total += 1
        self.t += 1
        obs = np.array([0.1 * self.t + 0.01 * self.total, -0.05 * self.total])
        result = StepResult(obs, 1.0, self.total in self.terminate_at, self.t >= self.limit, {})
        self.results.append(result)
        return result


class RecordingEnv:
    """A registered env that keeps a copy of every action it is given."""

    def __init__(self, env_id):
        self.env = make_env(env_id)
        self.observation_dim = self.env.observation_dim
        self.received = []

    def reset(self, seed=None):
        return self.env.reset(seed)

    def step(self, action):
        self.received.append(np.copy(action))
        return self.env.step(action)


def batch_from(rewards, values, terminated=None, truncated=None, bootstrap=0.0, next_values=None):
    n = len(rewards)
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    terminated = np.zeros(n, bool) if terminated is None else np.asarray(terminated, bool)
    truncated = np.zeros(n, bool) if truncated is None else np.asarray(truncated, bool)
    if next_values is None:
        next_values = np.zeros(n)
        for t in range(n - 1):
            if not (terminated[t] or truncated[t]):
                next_values[t] = values[t + 1]
        if not (terminated[-1] or truncated[-1]):
            next_values[-1] = bootstrap
    return RolloutBatch(
        obs=np.zeros((n, 2)),
        actions=np.zeros((n, 1)),
        log_probs_old=np.zeros(n),
        rewards=rewards,
        values_old=values,
        terminated=terminated,
        truncated=truncated,
        next_values=np.asarray(next_values, dtype=np.float64),
        bootstrap_value=bootstrap,
    )


def reference_collect(env, ac, n_steps, rng, obs):
    """`collect`'s step loop, one row distribution and one draw per step:
    the stored obs, actions, rewards and flags, and the obs to resume from."""
    rows = []
    for _ in range(n_steps):
        action = sample_row(one_row_distribution(ac, obs), rng)
        taken = np.copy(action)  # before the env sees it
        result = env.step(action)
        rows.append((obs, taken, result.reward, result.terminated, result.truncated))
        obs = env.reset() if result.terminated or result.truncated else result.obs
    return [np.array(column) for column in zip(*rows)], obs


def collect_and_reference(new_env, ac, n_steps) -> RolloutBatch:
    """Run `collect` and the reference loop from equal envs and generators,
    check that they agree byte for byte, and return collect's batch."""
    runs = []
    for run in (collect, reference_collect):
        env, rng = new_env(), np.random.default_rng(11)
        out, obs = run(env, ac, n_steps, rng, env.reset(seed=9))
        runs.append((out, obs, rng.bit_generator.state))
    (batch, obs, state), (columns, ref_obs, ref_state) = runs
    got = (batch.obs, batch.actions, batch.rewards, batch.terminated, batch.truncated)
    for name, a, b in zip(("obs", "actions", "rewards", "terminated", "truncated"), got, columns):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert obs.tobytes() == ref_obs.tobytes()
    assert state == ref_state
    return batch


class TestCollect:
    @pytest.mark.parametrize("make", [make_gaussian_ac, make_categorical_ac], ids=["gaussian", "categorical"])
    @pytest.mark.parametrize("n_steps", [1, 14, 18, 19, 40])
    def test_matches_the_per_row_reference_loop(self, make, n_steps):
        # episodes terminate at global steps 6 and 14 and are cut off every 4 steps
        batch = collect_and_reference(lambda: CutOffEnv(limit=4, terminate_at=(6, 14)), make(seed=7), n_steps)
        if n_steps >= 18:
            assert batch.terminated.any() and (batch.truncated & ~batch.terminated).any()

    @pytest.mark.parametrize("env_id", ["mountain_car_continuous", "sparse_lander"])
    def test_matches_the_reference_loop_on_registered_envs(self, env_id):
        collect_and_reference(lambda: make_env(env_id), harness.build_actor_critic(make_env(env_id), (8,), 2), 300)

    @pytest.mark.parametrize("obs", [np.zeros(3), np.zeros((1, 2)), np.zeros(())], ids=["long", "2-D", "scalar"])
    def test_initial_obs_of_the_wrong_shape_is_refused(self, obs):
        for make in (make_gaussian_ac, make_categorical_ac):
            with pytest.raises(ValueError, match="does not match"):
                collect(DriftEnv(), make(), 4, np.random.default_rng(0), obs)

    def test_single_step_records_value(self):
        ac = make_gaussian_ac(seed=1)
        env = OneStepEnv()
        batch, obs = collect(env, ac, 1, np.random.default_rng(0))
        assert len(batch) == 1
        # the rows collect stacks: the stored state, then the state to resume from
        assert batch.values_old[0] == pol.values_batch(ac, np.vstack([batch.obs, obs]))[0]

    def test_replay_identical(self):
        ac = make_gaussian_ac(seed=2)
        b1, _ = collect(DriftEnv(), ac, 16, np.random.default_rng(5), DriftEnv().reset())
        b2, _ = collect(DriftEnv(), ac, 16, np.random.default_rng(5), DriftEnv().reset())
        assert np.array_equal(b1.actions, b2.actions)
        assert np.array_equal(b1.obs, b2.obs)
        assert np.array_equal(b1.log_probs_old, b2.log_probs_old)

    def test_terminating_env_sets_flags_and_resets(self):
        ac = make_gaussian_ac(seed=3)
        env = OneStepEnv()
        batch, _ = collect(env, ac, 5, np.random.default_rng(1))
        assert batch.terminated.all()
        assert env.resets == 6  # initial + one per episode
        assert np.array_equal(batch.next_values, np.zeros(5))

    def test_n_steps_validated(self):
        with pytest.raises(ValueError):
            collect(OneStepEnv(), make_gaussian_ac(), 0, np.random.default_rng(0))

    def test_stored_log_probs_match_policy(self):
        for make in (make_gaussian_ac, make_categorical_ac):
            ac = make(seed=4)
            batch, _ = collect(DriftEnv(), ac, 8, np.random.default_rng(2), DriftEnv().reset())
            assert np.array_equal(batch.log_probs_old, pol.logp_batch(ac, batch.obs, batch.actions))

    def test_env_that_rewrites_its_action_leaves_the_batch_alone(self):
        ac = make_gaussian_ac(seed=6)
        kept, _ = collect(DriftEnv(), ac, 8, np.random.default_rng(3), DriftEnv().reset())
        clipped, _ = collect(ClippingDriftEnv(), ac, 8, np.random.default_rng(3), DriftEnv().reset())
        assert np.array_equal(clipped.actions, kept.actions)
        assert np.array_equal(clipped.log_probs_old, kept.log_probs_old)

    @pytest.mark.parametrize("env_id, shape, dtype", [
        ("mountain_car_continuous", (300, 1), np.float64),
        ("sparse_lander", (300,), np.int64),
    ])
    def test_actions_are_what_the_env_received(self, env_id, shape, dtype):
        env = RecordingEnv(env_id)
        ac = harness.build_actor_critic(env.env, (8,), param_seed=3)
        batch, _ = collect(env, ac, 300, np.random.default_rng(4), env.reset(seed=5))
        assert batch.actions.shape == shape and batch.actions.dtype == dtype
        assert np.array_equal(batch.actions, np.array(env.received))

    # 14 steps end on a step that is both terminated and cut off, 18 on a
    # cut-off step, 19 on an ordinary step
    @pytest.mark.parametrize("n_steps", [14, 18, 19])
    def test_bootstrap_values_follow_episode_ends(self, n_steps):
        ac = make_gaussian_ac(seed=5)
        env = CutOffEnv(limit=4, terminate_at=(6, 14))
        batch, obs = collect(env, ac, n_steps, np.random.default_rng(3), env.reset())
        results = env.results
        assert [r.terminated for r in results] == batch.terminated.tolist()
        assert [r.truncated for r in results] == batch.truncated.tolist()
        assert batch.truncated.sum() >= 3 and batch.terminated.sum() >= 1

        cut_off = [r.obs for r in results if r.truncated and not r.terminated]
        values = pol.values_batch(ac, np.vstack([batch.obs, *cut_off, obs]))
        assert np.array_equal(batch.values_old, values[:n_steps])
        assert batch.bootstrap_value == values[-1]
        cut_off_values = iter(values[n_steps:-1])
        for t, r in enumerate(results):
            if r.terminated:
                expected = 0.0
            elif r.truncated:
                expected = next(cut_off_values)
                # the value of the state the episode stopped in, not the reset one
                assert abs(expected - pol.value(ac, r.obs)) <= 1e-12
                if t + 1 < n_steps:
                    assert batch.next_values[t] != batch.values_old[t + 1]
            elif t + 1 < n_steps:
                expected = batch.values_old[t + 1]
            else:
                expected = batch.bootstrap_value
            assert batch.next_values[t] == expected, t
        assert next(cut_off_values, None) is None


class TestComputeGae:
    def test_single_terminated_step(self):
        batch = compute_gae(batch_from([1.0], [0.5], terminated=[True]), 0.99, 0.95, normalize=False)
        assert batch.advantages_raw[0] == 0.5
        assert batch.returns[0] == 1.0

    def test_gamma_zero_collapses_to_reward_minus_value(self, rng):
        rewards = rng.normal(size=7)
        values = rng.normal(size=7)
        batch = compute_gae(batch_from(rewards, values, bootstrap=2.0), 0.0, 0.7, normalize=False)
        assert np.allclose(batch.advantages_raw, rewards - values, atol=1e-15)

    def test_lambda_one_equals_discounted_monte_carlo(self, rng):
        # independent oracle: full discounted return minus the value baseline
        gamma = 0.99
        rewards = rng.normal(size=5)
        values = rng.normal(size=5)
        terminated = [False, False, False, False, True]
        batch = compute_gae(batch_from(rewards, values, terminated), gamma, 1.0, normalize=False)
        for t in range(5):
            mc = sum(gamma ** (k - t) * rewards[k] for k in range(t, 5))
            assert abs(batch.advantages_raw[t] - (mc - values[t])) < 1e-12

    def test_lambda_zero_is_one_step_td(self, rng):
        gamma = 0.9
        rewards = rng.normal(size=6)
        values = rng.normal(size=6)
        batch = compute_gae(batch_from(rewards, values, bootstrap=0.3), gamma, 0.0, normalize=False)
        next_values = np.append(values[1:], 0.3)
        td = rewards + gamma * next_values - values
        assert np.allclose(batch.advantages_raw, td, atol=1e-15)

    def test_recursion_equals_explicit_double_sum(self, rng):
        # oracle: A_t = sum_l (gamma*lam)^l delta_{t+l} within one episode
        for trial in range(20):
            n = int(rng.integers(1, 11))
            gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.0, 1.0)
            rewards = rng.normal(size=n)
            values = rng.normal(size=n)
            terminated = np.zeros(n, bool)
            terminated[-1] = True
            batch = compute_gae(batch_from(rewards, values, terminated), gamma, lam, normalize=False)

            next_values = np.append(values[1:], 0.0)
            next_values[-1] = 0.0
            delta = rewards + gamma * next_values * (1 - terminated) - values
            for t in range(n):
                explicit = sum((gamma * lam) ** (l - t) * delta[l] for l in range(t, n))
                assert abs(batch.advantages_raw[t] - explicit) <= 1e-12

    def test_returns_equal_advantages_plus_values_exactly(self, rng):
        rewards = rng.normal(size=32)
        values = rng.normal(size=32)
        terminated = rng.random(32) < 0.2
        batch = compute_gae(batch_from(rewards, values, terminated, bootstrap=0.7), 0.99, 0.95)
        assert np.array_equal(batch.returns, batch.advantages_raw + batch.values_old)

    def test_truncation_bootstraps_but_cuts_accumulation(self):
        # truncated mid-batch: delta uses the stored next value, the
        # advantage recursion restarts after the cut
        rewards = [1.0, 1.0, 1.0]
        values = [0.0, 0.0, 0.0]
        truncated = [False, True, False]
        next_values = [0.0, 5.0, 2.0]  # V(s1), V(s_truncated_final), bootstrap
        batch = compute_gae(
            batch_from(rewards, values, truncated=truncated, next_values=next_values, bootstrap=2.0),
            1.0, 1.0, normalize=False,
        )
        assert batch.advantages_raw[2] == 1.0 + 2.0  # r + bootstrap
        assert batch.advantages_raw[1] == 1.0 + 5.0  # r + V(final state), no tail
        assert batch.advantages_raw[0] == 1.0 + 0.0 + batch.advantages_raw[1]

    def test_normalization_moments(self, rng):
        rewards = rng.normal(size=256)
        values = rng.normal(size=256)
        batch = compute_gae(batch_from(rewards, values, bootstrap=0.0), 0.99, 0.95)
        assert abs(batch.advantages.mean()) <= 1e-10
        assert abs(batch.advantages.std() - 1.0) <= 1e-6

    def test_range_validation(self):
        b = batch_from([1.0], [0.0])
        with pytest.raises(ValueError):
            compute_gae(b, 1.0001, 0.95)
        with pytest.raises(ValueError):
            compute_gae(b, 0.99, -0.1)

    def test_minibatch_requires_gae(self):
        b = batch_from([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            b.minibatch(np.array([0]))
