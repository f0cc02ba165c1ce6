"""Native environment dynamics, bounds, determinism, and termination."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        for action in (4, 2.9):  # a float is refused, not rounded to an engine
            with pytest.raises(ValueError, match="invalid action"):
                env.step(action)

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

    def test_touchdown_on_the_time_limit_step_is_terminated_not_truncated(self):
        env = SparseLander()
        env.reset(seed=0)
        env._y, env._vy, env._steps = 0.001, -0.5, env.max_episode_steps - 1
        r = env.step(0)
        assert (r.terminated, r.truncated, r.info["steps"]) == (True, False, env.max_episode_steps)

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

    # action, fuel before, fuel after, x and y acceleration, reward charge
    @pytest.mark.parametrize("action, fuel, fuel_left, ax, ay, charge", [
        (0, 600.0, 600.0, 0.0, -9.8, 0.0),
        (1, 600.0, 597.0, 0.0, -9.8 + 15.0, 0.03),
        (2, 600.0, 599.0, -4.0, -9.8, 0.0),
        (3, 600.0, 599.0, 4.0, -9.8, 0.0),
        (1, 2.0, 0.0, 0.0, -9.8 + 15.0, 0.03),  # the last of the tank still fires
        (0, 0.0, 0.0, 0.0, -9.8, 0.0),
        (1, 0.0, 0.0, 0.0, -9.8, 0.0),  # engines dead: gravity only, no charge
        (2, 0.0, 0.0, 0.0, -9.8, 0.0),
        (3, 0.0, 0.0, 0.0, -9.8, 0.0),
    ])
    def test_one_step_per_action(self, action, fuel, fuel_left, ax, ay, charge):
        env = SparseLander()
        env.reset(seed=0)
        env._x, env._y, env._vx, env._vy, env._fuel = 0.5, 5.0, 0.2, -1.0, fuel
        r = env.step(action)
        vx, vy = 0.2 + ax * 0.05, -1.0 + ay * 0.05
        x = 0.5 + vx * 0.05
        assert (r.info["fuel"], env._vx, env._vy, env._x) == (fuel_left, vx, vy, x)
        assert r.reward == -0.3 * (abs(x) + abs(vx) + abs(vy)) * 0.05 - charge
        assert not (r.terminated or r.truncated)

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


class TestRuleEdges:
    """Each comparison in the rules, hit exactly. `step` and `step_arrays`
    run the same rules, so comparing them cannot see an edge moved in both."""

    def test_car_reaches_the_goal_exactly(self):
        env = MountainCarContinuous()
        env.reset(seed=0)
        env._pos, env._vel = 0.38, 0.1  # the speed clips to 0.07, and 0.38 + 0.07 == 0.45
        assert env.step([0.0]).terminated and env._pos == env.GOAL_POSITION

    # a noop step from (x, y, vx, vy), then the field that lands on its edge
    @pytest.mark.parametrize("x, y, vx, vy, field, edge", [
        (0.5, 0.01, 0.0, -0.5, "_x", 0.5),  # on the pad's edge
        (0.0, 0.01, 1.0, -0.5, "_vx", 1.0),  # at the safe sideways speed
        (0.0, 0.01, 0.0, -0.51, "_vy", -1.0),  # -0.51 - 9.8 * 0.05: the safe falling speed
        (0.0, -((-0.5 - 9.8 * 0.05) * 0.05), 0.0, -0.5, "_y", 0.0),  # on the ground
    ], ids=["pad-edge", "vx-edge", "vy-edge", "ground"])
    def test_safe_touchdown_on_an_edge(self, x, y, vx, vy, field, edge):
        env = SparseLander()
        env.reset(seed=0)
        env._x, env._y, env._vx, env._vy = x, y, vx, vy
        r = env.step(0)
        assert getattr(env, field) == edge
        assert r.terminated and r.reward > 99.0

    def test_on_the_side_limit_is_live(self):
        env = SparseLander()
        env.reset(seed=0)
        env._x, env._y, env._vx, env._vy = env.X_LIMIT, 5.0, 0.0, 0.0
        r = env.step(0)
        assert env._x == env.X_LIMIT and not r.terminated


class TestScalarStepTypes:
    """`step` runs the rules on Python floats: a numpy scalar leaking into
    them would slow `collect` and pass the array comparisons unseen."""

    @staticmethod
    def assert_python_scalars(r, info_types):
        assert type(r.reward) is float
        assert type(r.terminated) is bool and type(r.truncated) is bool
        assert {key: type(value) for key, value in r.info.items()} == info_types

    def run_episode(self, env, act, info_types):
        while True:
            r = env.step(act())
            self.assert_python_scalars(r, info_types)
            if r.terminated or r.truncated:
                return r

    def test_mountain_car(self, rng):
        env = MountainCarContinuous()
        env.reset(seed=0)
        types = {"steps": int}
        assert self.run_episode(env, lambda: rng.uniform(-0.2, 0.2, size=1), types).truncated
        env.reset()  # push along the velocity: momentum reaches the goal
        assert self.run_episode(env, lambda: np.array([1.0 if env._vel >= 0.0 else -1.0]), types).terminated

    def test_lander(self, rng):
        env = SparseLander()
        env.reset(seed=0)
        types = {"fuel": float, "steps": int}
        assert self.run_episode(env, lambda: rng.integers(0, 4), types).terminated  # an np.int64, as sampled
        env.reset()
        env._steps, env._fuel = env.max_episode_steps - 5, 2.0  # the tank runs dry, then the time limit
        assert self.run_episode(env, lambda: 1, types).truncated


# ---- array step: step_arrays must equal E scalar steps, bit for bit --------

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]


def floats_near(*edges, lo=None, hi=None):
    """Special values, the given edges exactly, values in [lo, hi], any float."""
    return st.one_of(
        st.sampled_from(SPECIAL + list(edges)),
        st.floats(lo, hi),
        st.floats(allow_nan=True, allow_infinity=True),
    )


def _steps_near_limit(env_cls):
    last = env_cls.max_episode_steps - 1  # the next step lands on the time limit
    return st.one_of(st.sampled_from([0, last]), st.integers(0, last))


# the private fields behind each env's state(), in state()'s order
STATE_FIELDS = {
    MountainCarContinuous: ("_pos", "_vel", "_steps"),
    SparseLander: ("_x", "_y", "_vx", "_vy", "_fuel", "_steps"),
}


def set_state(env, state):
    for name, value in zip(STATE_FIELDS[type(env)], state, strict=True):
        setattr(env, name, value)
    env._done = False


def _scalar_steps(env_cls, states, actions):
    """Each row through a fresh env's scalar step: its results and the env's
    state afterwards, or the exception it raised."""
    rows = []
    for state, action in zip(states, actions):
        env = env_cls()
        env.reset(seed=0)
        set_state(env, state)
        try:
            r = env.step(action)
        except Exception as err:  # noqa: BLE001 - the array step must raise alike
            return err
        rows.append((r, env.state()))
    return rows


def _float_repr(x) -> str:
    # repr tells -0.0 from 0.0 and keeps every bit of a finite float;
    # steps.csv writes floats with repr
    return repr(float(x))


def assert_array_step_matches_scalar(env_cls, states, actions):
    want = _scalar_steps(env_cls, states, actions)
    stacked = tuple(np.array(values) for values in zip(*states))
    if isinstance(want, Exception):
        with pytest.raises(type(want)):
            env_cls.step_arrays(stacked, np.array(actions))
        return
    got = env_cls.step_arrays(stacked, np.array(actions))
    for j, (r, state_after) in enumerate(want):
        assert [_float_repr(v) for v in got.obs[j]] == [_float_repr(v) for v in r.obs], j
        assert got.obs.flags.c_contiguous
        assert _float_repr(got.reward[j]) == _float_repr(r.reward), j
        assert (bool(got.terminated[j]), bool(got.truncated[j])) == (r.terminated, r.truncated), j
        info = {key: values[j].item() for key, values in got.info.items()}
        assert repr(info) == repr(r.info), j
        assert repr(tuple(values[j].item() for values in got.state)) == repr(state_after), j


car = MountainCarContinuous
CAR_ROW = st.tuples(
    st.tuples(
        floats_near(car.MIN_POSITION, car.MAX_POSITION, car.GOAL_POSITION, lo=-1.4, hi=0.8),
        floats_near(car.MAX_SPEED, -car.MAX_SPEED, lo=-0.1, hi=0.1),
        _steps_near_limit(car),
    ),
    floats_near(1.0, -1.0, lo=-1.5, hi=1.5).map(lambda a: [a]),
)
lander = SparseLander
LANDER_ROW = st.tuples(
    st.tuples(
        floats_near(lander.PAD_HALF_WIDTH, -lander.PAD_HALF_WIDTH, lander.X_LIMIT, -lander.X_LIMIT, lo=-6, hi=6),
        floats_near(lo=-0.5, hi=0.5),
        floats_near(lander.SAFE_SPEED, -lander.SAFE_SPEED, lo=-2, hi=2),
        floats_near(lander.SAFE_SPEED, -lander.SAFE_SPEED, lo=-2, hi=2),
        floats_near(lander.MAIN_FUEL, lander.SIDE_FUEL, lander.FUEL_INIT, lo=-1, hi=5),
        _steps_near_limit(lander),
    ),
    st.integers(0, lander.action_space.n - 1),
)


def batches(row):
    return st.sampled_from([1, 3, 15]).flatmap(lambda e: st.lists(row, min_size=e, max_size=e))


class TestArrayStep:
    @settings(max_examples=300, deadline=None)
    @given(batches(CAR_ROW))
    def test_mountain_car_matches_scalar_steps(self, rows):
        states, actions = zip(*rows)
        with np.errstate(all="ignore"):  # inf - inf and overflow, as in step
            assert_array_step_matches_scalar(MountainCarContinuous, states, actions)

    @settings(max_examples=300, deadline=None)
    @given(batches(LANDER_ROW))
    def test_lander_matches_scalar_steps(self, rows):
        states, actions = zip(*rows)
        with np.errstate(all="ignore"):
            assert_array_step_matches_scalar(SparseLander, states, actions)

    @pytest.mark.parametrize("env_cls, rows", [
        # the goal on the time-limit step: terminated wins, truncated stays False
        (car, [((0.449, 0.07, 998), [1.0]), ((-0.5, 0.0, 998), [0.0]), ((0.3, 0.0, 5), [0.0])]),
        # an infinite position makes math.cos raise; the array step raises too
        (car, [((-0.5, 0.0, 0), [0.0]), ((math.inf, 0.0, 0), [0.0])]),
        # a touchdown on the time-limit step beside a live row whose reward is
        # -0.0, and fuel at 0 and at exactly one burn
        (lander, [((0.0, 0.01, 0.0, -0.5, 600.0, 999), 0), ((0.0, 5.0, 0.0, 0.0, 600.0, 999), 0),
                  ((0.0, 5.0, 0.0, lander.GRAVITY * lander.DT, 600.0, 0), 0),
                  ((0.0, 5.0, 0.0, 0.0, 0.0, 3), 1), ((0.0, 5.0, 0.0, 0.0, lander.MAIN_FUEL, 3), 1),
                  ((0.0, 5.0, 0.0, 0.0, lander.SIDE_FUEL, 3), 3), ((0.0, 0.0, 0.0, 0.0, -0.0, 0), 2)]),
        # one invalid action fails the whole array step, as it fails step
        (lander, [((0.0, 5.0, 0.0, 0.0, 600.0, 0), 1), ((0.0, 5.0, 0.0, 0.0, 0.0, 0), 4)]),
        (lander, [((0.0, 5.0, 0.0, 0.0, 600.0, 0), -1)]),
        # a float action is refused by both steps, not rounded or used as an index
        (lander, [((0.0, 5.0, 0.0, 0.0, 600.0, 0), 1), ((0.0, 5.0, 0.0, 0.0, 600.0, 0), 1.7)]),
    ], ids=["car-goal-at-limit", "car-infinite-position", "lander-edges", "lander-invalid", "lander-negative",
            "lander-float"])
    def test_edge_rows(self, env_cls, rows):
        states, actions = zip(*rows)
        assert_array_step_matches_scalar(env_cls, states, actions)

    def test_goal_at_time_limit_is_terminated_not_truncated(self):
        got = car.step_arrays((np.array([0.449]), np.array([0.07]), np.array([998])), np.array([[1.0]]))
        assert got.terminated.tolist() == [True] and got.truncated.tolist() == [False]
        assert got.info["steps"].tolist() == [999]
