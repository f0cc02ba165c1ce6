"""Native desk-scale control environments with a uniform reset/step API.

Both environments are stateful and single-threaded: reset(seed) seeds an
internal generator, later reset() calls reuse it, and stepping a finished
episode raises until the next reset.

Each env states its rules (dynamics, reward, termination, truncation and
info) once, in `_advance`, and has two entry points that run them: `step`
on Python floats, and the class's `step_arrays` on E episodes at once, with
`state()`'s fields stacked into (E,) arrays and one action row per episode.
It returns what E scalar `step` calls would, bit for bit, as arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple, Union

import numpy as np


@dataclass(frozen=True)
class ContinuousSpace:
    dim: int
    low: float
    high: float


@dataclass(frozen=True)
class DiscreteSpace:
    n: int


ActionSpace = Union[ContinuousSpace, DiscreteSpace]


@dataclass(frozen=True)
class StepResult:
    obs: np.ndarray
    reward: float
    terminated: bool  # task-defined end
    truncated: bool  # time limit
    info: dict = field(default_factory=dict)


class ArrayStep(NamedTuple):
    """One step of E episodes: row j is what episode j's scalar step returns.
    `state` is the episodes' state after the step, laid out as `state()`
    lays it out, and `info` maps each key of the scalar step's info to an
    (E,) array."""

    state: tuple
    obs: np.ndarray  # (E, observation_dim)
    reward: np.ndarray
    terminated: np.ndarray
    truncated: np.ndarray
    info: dict


# The operations of the rules that differ between Python floats (`step`) and (E,)
# arrays (`step_arrays`), alike bit for bit, NaN included; the rules write the rest
# with operators both support. `take(table, a)`: action a's row, one item per column.
_SCALAR = SimpleNamespace(minimum=min, maximum=max, cos=math.cos, abs=abs, any=bool,
                          where=lambda cond, x, y: x if cond else y, take=operator.getitem,
                          integers=lambda a: operator.index(a) if isinstance(a, (int, np.integer)) else None)
_ARRAYS = SimpleNamespace(minimum=np.minimum, maximum=np.maximum, cos=np.cos, abs=np.abs, any=np.count_nonzero,
                          where=np.where, take=lambda table, a: table[a].T,
                          integers=lambda a: a if a.dtype.kind in "iu" else None)


class MountainCarContinuous:
    """Underpowered car in a valley; continuous push in [-1, 1].

    Dynamics and rewards follow the classic control task: the engine costs
    0.1*a^2 per step and reaching x >= 0.45 pays +100, so doing nothing
    scores ~0 and the only way to win is building momentum.
    """

    observation_dim = 2
    action_space: ActionSpace = ContinuousSpace(1, -1.0, 1.0)
    max_episode_steps = 999

    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    GOAL_POSITION = 0.45
    POWER = 0.0015
    GRAVITY_SCALE = 0.0025
    # feature scaling for function approximators; position is already near unit range
    observation_scale = (1.0, 1.0 / MAX_SPEED)

    _rng, _done = None, True  # before the first reset
    _pos = _vel = 0.0
    _steps = 0

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if self._rng is None:
            raise RuntimeError("first reset must provide a seed")
        self._pos, self._vel, self._steps = self._rng.uniform(-0.6, -0.4), 0.0, 0
        self._done = False
        return self._obs()

    def _obs(self) -> np.ndarray:
        return np.array(self._observe(*self.state()), dtype=np.float64)

    @staticmethod
    def _observe(pos, vel, steps) -> tuple:
        """The observation's columns from `state()`'s fields."""
        return pos, vel

    @classmethod
    def _advance(cls, ops, pos, vel, steps, a):
        """One step under push `a` from (pos, vel, steps), floats or (E,) arrays:
        the state after it, the reward, terminated, truncated and the info."""
        a = ops.minimum(ops.maximum(a, -1.0), 1.0)
        vel = vel + (a * cls.POWER - cls.GRAVITY_SCALE * ops.cos(3.0 * pos))
        vel = ops.minimum(ops.maximum(vel, -cls.MAX_SPEED), cls.MAX_SPEED)
        pos = ops.minimum(ops.maximum(pos + vel, cls.MIN_POSITION), cls.MAX_POSITION)
        vel = ops.where((pos == cls.MIN_POSITION) & (vel < 0.0), 0.0, vel)
        steps = steps + 1

        terminated = pos >= cls.GOAL_POSITION
        truncated = ops.where(terminated, False, steps >= cls.max_episode_steps)
        reward = -0.1 * a * a + terminated * 100.0  # False * 100.0 adds 0.0
        return (pos, vel, steps), reward, terminated, truncated, {"steps": steps}

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        a = float(np.asarray(action, dtype=np.float64).reshape(-1)[0])
        state, reward, terminated, truncated, info = self._advance(_SCALAR, *self.state(), a)
        self._pos, self._vel, self._steps = state
        self._done = terminated or truncated
        return StepResult(self._obs(), reward, terminated, truncated, info)

    def state(self) -> tuple:
        """(position, velocity, steps taken), the fields of `step_arrays`."""
        return self._pos, self._vel, self._steps

    @classmethod
    def step_arrays(cls, state: tuple, actions: np.ndarray) -> ArrayStep:
        """`step` for E live episodes: `actions` is a float64 (E, 1) array.
        An infinite 3 * position raises ValueError, as math.cos does in `step`."""
        if np.count_nonzero(np.isinf(3.0 * state[0])):
            raise ValueError("math domain error")
        state, reward, terminated, truncated, info = cls._advance(_ARRAYS, *state, actions[:, 0])
        return ArrayStep(state, _rows(*cls._observe(*state)), reward, terminated, truncated, info)


class SparseLander:
    """Point-mass 2D lander with a hard fuel budget and discrete engines.

    Actions: 0 noop, 1 main (+15 m/s^2 up, 3 fuel), 2 push left, 3 push
    right (+-4 m/s^2, 1 fuel). Once the tank is empty the engines are dead
    and gravity finishes the episode. Touching down inside |x| <= 0.5 with
    both speed components <= 1 m/s pays +100, any other contact (or
    drifting past |x| > 5) is a -100 crash.
    """

    observation_dim = 5
    action_space: ActionSpace = DiscreteSpace(4)
    max_episode_steps = 1000
    observation_scale = (0.2, 0.1, 0.2, 0.1, 1.0)

    DT = 0.05
    GRAVITY = 9.8
    MAIN_ACCEL = 15.0
    SIDE_ACCEL = 4.0
    FUEL_INIT = 600.0
    MAIN_FUEL = 3.0
    SIDE_FUEL = 1.0
    X_LIMIT = 5.0
    PAD_HALF_WIDTH = 0.5
    SAFE_SPEED = 1.0
    START_ALTITUDE = 10.0
    # per action (noop, main, left, right): fuel burnt, x and y acceleration with gravity, reward charge
    _ENGINE_ROWS = ((0.0, 0.0, -GRAVITY, 0.0),
                    (MAIN_FUEL, 0.0, -GRAVITY + MAIN_ACCEL, 0.03),
                    (SIDE_FUEL, -SIDE_ACCEL, -GRAVITY, 0.0),
                    (SIDE_FUEL, SIDE_ACCEL, -GRAVITY, 0.0))
    _ENGINES = np.array(_ENGINE_ROWS)  # the rows as one array, for step_arrays

    _rng, _done = None, True  # before the first reset
    _x = _y = _vx = _vy = _fuel = 0.0
    _steps = 0

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if self._rng is None:
            raise RuntimeError("first reset must provide a seed")
        rng = self._rng  # x, vx and vy are drawn in that order
        self._x, self._vx, self._vy = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.0)
        self._y, self._fuel, self._steps = self.START_ALTITUDE, self.FUEL_INIT, 0
        self._done = False
        return self._obs()

    def _obs(self) -> np.ndarray:
        return np.array(self._observe(*self.state()), dtype=np.float64)

    @classmethod
    def _observe(cls, x, y, vx, vy, fuel, steps) -> tuple:
        """The observation's columns from `state()`'s fields."""
        return x, y, vx, vy, fuel / cls.FUEL_INIT

    @classmethod
    def _integer_actions(cls, ops, actions):
        """`actions` as integers, or the `invalid action` ValueError unless each is one in [0, n)."""
        a = ops.integers(actions)  # None for floats: they are refused, not rounded
        invalid = a is None or (a < 0) | (a >= cls.action_space.n)
        if ops.any(invalid):
            raise ValueError(f"invalid action {np.ravel(actions)[np.flatnonzero(invalid)[0]]}")
        return a

    @classmethod
    def _advance(cls, ops, engines, x, y, vx, vy, fuel, steps, action):
        """As the car's `_advance`, under engine `action`; `engines` is the
        engine table's rows, tuples for floats and one array for arrays."""
        a = ops.where(fuel <= 0.0, 0, action)  # engines dead on an empty tank
        fuel_cost, accel_x, accel_y, main_cost = ops.take(engines, a)
        # x - 0.0 is x, -0.0 and NaN included, so a zero cost or charge changes nothing
        burnt = fuel - fuel_cost
        fuel = ops.where((burnt > 0.0) | (a == 0), burnt, 0.0)  # max(0.0, burnt) where an engine fired
        # semi-implicit Euler: velocity first, then position
        vx = vx + accel_x * cls.DT
        vy = vy + accel_y * cls.DT
        x = x + vx * cls.DT
        y = y + vy * cls.DT
        steps = steps + 1

        abs_x, abs_vx, abs_vy = ops.abs(x), ops.abs(vx), ops.abs(vy)
        reward = -0.3 * (abs_x + abs_vx + abs_vy) * cls.DT - main_cost
        landed = y <= 0.0
        terminated = landed | (abs_x > cls.X_LIMIT)
        if ops.any(terminated):
            safe = landed & (abs_x <= cls.PAD_HALF_WIDTH) & (abs_vy <= cls.SAFE_SPEED) & (abs_vx <= cls.SAFE_SPEED)
            # r - (-100.0) is r + 100.0; subtracting 0.0 leaves a live row's -0.0 as it is
            reward = reward - ops.where(terminated, ops.where(safe, -100.0, 100.0), 0.0)
        truncated = ops.where(terminated, False, steps >= cls.max_episode_steps)
        return (x, y, vx, vy, fuel, steps), reward, terminated, truncated, {"fuel": fuel, "steps": steps}

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        a = self._integer_actions(_SCALAR, action)
        state, reward, terminated, truncated, info = self._advance(_SCALAR, self._ENGINE_ROWS, *self.state(), a)
        self._x, self._y, self._vx, self._vy, self._fuel, self._steps = state
        self._done = terminated or truncated
        return StepResult(self._obs(), reward, terminated, truncated, info)

    def state(self) -> tuple:
        """(x, y, vx, vy, fuel, steps taken), the fields of `step_arrays`."""
        return self._x, self._y, self._vx, self._vy, self._fuel, self._steps

    @classmethod
    def step_arrays(cls, state: tuple, actions: np.ndarray) -> ArrayStep:
        """`step` for E live episodes: `actions` is an integer (E,) array."""
        a = cls._integer_actions(_ARRAYS, actions)
        state, reward, terminated, truncated, info = cls._advance(_ARRAYS, cls._ENGINES, *state, a)
        return ArrayStep(state, _rows(*cls._observe(*state)), reward, terminated, truncated, info)


def _rows(*columns: np.ndarray) -> np.ndarray:
    """np.stack(columns, axis=1), C-ordered, without np.stack's per-call checks."""
    return np.array(columns).T.copy()


ENV_REGISTRY = {
    "mountain_car_continuous": MountainCarContinuous,
    "sparse_lander": SparseLander,
}


def make_env(env_id: str):
    try:
        return ENV_REGISTRY[env_id]()
    except KeyError:
        raise ValueError(f"unknown env id {env_id!r}; known: {sorted(ENV_REGISTRY)}") from None
