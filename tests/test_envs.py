"""Native environment dynamics, bounds, determinism, and termination."""

import math

import numpy as np
import pytest

from poemrl.envs import (
    ContinuousSpace,
    DiscreteSpace,
    MountainCarContinuous,
    SparseLander,
    make_env,
)


class TestRegistry:
    def test_ids(self):
        assert isinstance(make_env("mountain_car_continuous"), MountainCarContinuous)
        assert isinstance(make_env("sparse_lander"), SparseLander)
        with pytest.raises(ValueError):
            make_env("car_racing")

    def test_spaces(self):
        mc = make_env("mountain_car_continuous")
        assert mc.action_space == ContinuousSpace(1, -1.0, 1.0)
        assert mc.observation_dim == 2
        sl = make_env("sparse_lander")
        assert sl.action_space == DiscreteSpace(4)
        assert sl.observation_dim == 5


class TestMountainCar:
    def test_reset_velocity_zero_and_position_band(self):
        env = MountainCarContinuous()
        for seed in range(25):
            obs = env.reset(seed=seed)
            assert obs[1] == 0.0
            assert -0.6 <= obs[0] <= -0.4

    def test_reset_deterministic(self):
        a = MountainCarContinuous().reset(seed=7)
        b = MountainCarContinuous().reset(seed=7)
        assert np.array_equal(a, b)

    def test_dynamics_reference_point(self):
        # frozen from the classic-control equations: x=-0.5, v=0, a=0
        env = MountainCarContinuous()
        env.reset(seed=0)
        env._pos, env._vel = -0.5, 0.0
        r = env.step([0.0])
        assert abs(r.obs[1] - (-1.76843e-4)) < 1e-9
        assert abs(r.obs[0] - (-0.500177)) < 1e-6
        assert r.reward == 0.0

    def test_zero_action_costs_nothing(self):
        env = MountainCarContinuous()
        env.reset(seed=3)
        for _ in range(10):
            assert env.step([0.0]).reward == 0.0

    def test_goal_bonus_arithmetic(self):
        env = MountainCarContinuous()
        env.reset(seed=0)
        env._pos, env._vel = 0.449, 0.07
        r = env.step([1.0])
        assert r.terminated
        assert abs(r.reward - 99.9) < 1e-12

    def test_action_clipped_to_bounds(self):
        env = MountainCarContinuous()
        env.reset(seed=0)
        env._pos, env._vel = -0.5, 0.0
        big = env.step([10.0])  # clips to 1.0
        env.reset(seed=0)
        env._pos, env._vel = -0.5, 0.0
        one = env.step([1.0])
        assert big.obs[1] == one.obs[1]
        assert big.reward == one.reward

    def test_step_matches_the_np_clip_formula(self, rng):
        # the dynamics as written with np.clip; step must give the same bits,
        # NaN and signed zeros included
        car = MountainCarContinuous

        def reference(pos, vel, action):
            a = float(np.clip(np.asarray(action, dtype=np.float64).reshape(-1)[0], -1.0, 1.0))
            vel += a * car.POWER - car.GRAVITY_SCALE * math.cos(3.0 * pos)
            vel = float(np.clip(vel, -car.MAX_SPEED, car.MAX_SPEED))
            pos += vel
            pos = float(np.clip(pos, car.MIN_POSITION, car.MAX_POSITION))
            if pos == car.MIN_POSITION and vel < 0.0:
                vel = 0.0
            terminated = pos >= car.GOAL_POSITION
            return pos, vel, -0.1 * a * a + (100.0 if terminated else 0.0), terminated

        special = [math.nan, math.inf, -math.inf, 0.0, -0.0]
        # math.cos rejects an infinite position; clipping keeps it from arising
        positions = [math.nan, 0.0, -0.0, car.MIN_POSITION, car.MAX_POSITION, car.GOAL_POSITION, math.pi / 6]
        velocities = special + [car.MAX_SPEED, -car.MAX_SPEED]
        actions = special + [1.0, -1.0]
        env = car()
        env.reset(seed=0)
        for _ in range(3000):
            pos = rng.choice(positions) if rng.random() < 0.3 else rng.uniform(-1.4, 0.8)
            vel = rng.choice(velocities) if rng.random() < 0.3 else rng.uniform(-0.1, 0.1)
            action = rng.choice(actions) if rng.random() < 0.3 else rng.uniform(-1.5, 1.5)
            env._pos, env._vel, env._steps, env._done = float(pos), float(vel), 0, False
            r = env.step(np.array([action]))
            expected = reference(float(pos), float(vel), [action])
            got = (float(r.obs[0]), float(r.obs[1]), r.reward, r.terminated)
            assert repr(got) == repr(expected), (pos, vel, action)

    def test_bounds_hold_under_random_actions(self, rng):
        env = MountainCarContinuous()
        env.reset(seed=11)
        for _ in range(10_000):
            r = env.step(rng.uniform(-1, 1, size=1))
            assert -1.2 <= r.obs[0] <= 0.6
            assert -0.07 <= r.obs[1] <= 0.07
            if r.terminated or r.truncated:
                env.reset()

    def test_truncates_at_999(self):
        env = MountainCarContinuous()
        env.reset(seed=5)
        for t in range(999):
            r = env.step([0.0])
        assert r.truncated and not r.terminated
        assert r.info["steps"] == 999

    def test_zero_action_policy_never_reaches_goal(self):
        # the task genuinely requires momentum building
        for seed in (0, 1, 2):
            env = MountainCarContinuous()
            env.reset(seed=seed)
            while True:
                r = env.step([0.0])
                assert not r.terminated
                if r.truncated:
                    break

    def test_step_after_done_rejected(self):
        env = MountainCarContinuous()
        with pytest.raises(RuntimeError):
            env.step([0.0])  # never reset
        env.reset(seed=0)
        env._pos = 0.449
        env._vel = 0.07
        r = env.step([1.0])
        assert r.terminated
        with pytest.raises(RuntimeError):
            env.step([0.0])

    def test_trajectories_bit_identical_for_same_seed(self, rng):
        actions = rng.uniform(-1, 1, size=(200, 1))
        seen = []
        for _ in range(2):
            env = MountainCarContinuous()
            obs = [env.reset(seed=99)]
            for a in actions:
                r = env.step(a)
                obs.append(r.obs)
                if r.terminated or r.truncated:
                    break
            seen.append(np.vstack(obs))
        assert np.array_equal(seen[0], seen[1])


class TestSparseLander:
    def test_reset_state(self):
        env = SparseLander()
        obs = env.reset(seed=4)
        assert obs[1] == 10.0
        assert obs[4] == 1.0  # full tank, normalized
        assert -1.0 <= obs[0] <= 1.0
        again = SparseLander().reset(seed=4)
        assert np.array_equal(obs, again)

    def test_fuel_accounting(self):
        env = SparseLander()
        env.reset(seed=1)
        assert env.step(1).info["fuel"] == 597.0  # main engine: 3 units
        env.reset(seed=1)
        assert env.step(2).info["fuel"] == 599.0  # side engine: 1 unit
        env.reset(seed=1)
        assert env.step(0).info["fuel"] == 600.0  # noop: free

    def test_invalid_action_rejected(self):
        env = SparseLander()
        env.reset(seed=0)
        with pytest.raises(ValueError):
            env.step(4)

    def test_fuel_monotone_and_engines_die_empty(self, rng):
        env = SparseLander()
        env.reset(seed=8)
        fuel = 600.0
        for _ in range(300):
            r = env.step(int(rng.integers(0, 4)))
            assert r.info["fuel"] <= fuel
            assert r.info["fuel"] >= 0.0
            fuel = r.info["fuel"]
            if r.terminated or r.truncated:
                obs = env.reset()
                fuel = 600.0
        # burn the tank dry, then check a main-engine command is a noop
        env.reset(seed=9)
        env._fuel = 0.0
        vy_before = env._vy
        r = env.step(1)
        assert r.info["fuel"] == 0.0
        assert env._vy == vy_before - 9.8 * env.DT  # gravity only

    def test_ballistic_fall_matches_closed_form(self):
        for seed in range(5):
            env = SparseLander()
            obs = env.reset(seed=seed)
            y0, vy0 = obs[1], obs[3]
            g = env.GRAVITY
            t_star = (vy0 + math.sqrt(vy0 * vy0 + 2 * g * y0)) / g  # seconds until y=0
            expect = math.ceil(t_star / env.DT)
            steps = 0
            while True:
                r = env.step(0)
                steps += 1
                if r.terminated:
                    break
                assert not r.truncated
            assert abs(steps - expect) <= 1

    def test_every_episode_ends(self, rng):
        for seed in range(6):
            env = SparseLander()
            env.reset(seed=seed)
            for t in range(env.max_episode_steps + 1):
                r = env.step(int(rng.integers(0, 4)))
                if r.terminated or r.truncated:
                    break
            assert r.terminated or r.truncated
            assert t < env.max_episode_steps

    def test_landing_outcomes(self):
        env = SparseLander()
        env.reset(seed=0)
        env._x, env._y, env._vx, env._vy = 0.0, 0.01, 0.0, -0.1
        r = env.step(0)
        assert r.terminated and r.reward > 99.0  # gentle centered touchdown

        env.reset(seed=0)
        env._x, env._y, env._vx, env._vy = 0.0, 0.01, 0.0, -8.0
        r = env.step(0)
        assert r.terminated and r.reward < -99.0  # slammed into the ground

        env.reset(seed=0)
        env._x, env._y, env._vx, env._vy = 3.0, 0.01, 0.0, -0.1
        r = env.step(0)
        assert r.terminated and r.reward < -99.0  # touched down off the pad

        env.reset(seed=0)
        env._x, env._vx = 5.1, 1.0
        r = env.step(0)
        assert r.terminated and r.reward < -99.0  # drifted out of bounds

    def test_main_engine_shaping_cost(self):
        env = SparseLander()
        env.reset(seed=2)
        env._x, env._vx, env._vy = 0.0, 0.0, 0.0
        r_noop = env.step(0).reward
        env.reset(seed=2)
        env._x, env._vx, env._vy = 0.0, 0.0, 0.0
        r_main = env.step(1).reward
        # same shaping state contribution up to the velocity change; the main
        # burn adds its fixed 0.03 cost
        assert r_main < r_noop

    def test_trajectories_bit_identical_for_same_seed(self, rng):
        actions = [int(a) for a in rng.integers(0, 4, size=200)]
        seen = []
        for _ in range(2):
            env = SparseLander()
            obs = [env.reset(seed=31)]
            for a in actions:
                r = env.step(a)
                obs.append(r.obs)
                if r.terminated or r.truncated:
                    break
            seen.append(np.vstack(obs))
        assert np.array_equal(seen[0], seen[1])

    def test_step_after_done_rejected(self):
        env = SparseLander()
        env.reset(seed=0)
        env._y = 0.001
        env._vy = -5.0
        r = env.step(0)
        assert r.terminated
        with pytest.raises(RuntimeError):
            env.step(0)
