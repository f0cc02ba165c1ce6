"""Native desk-scale control environments with a uniform reset/step API.

Both environments are stateful and single-threaded: reset(seed) seeds an
internal generator, later reset() calls reuse it, and stepping a finished
episode raises until the next reset.

Each also steps E episodes at once: `state()` gives an env's state as a
tuple of scalars, and the class's `step_arrays` takes those fields stacked
into (E,) arrays, with one action row per episode, and returns what E
scalar `step` calls would, bit for bit, as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def __init__(self):
        self._rng = None
        self._pos = 0.0
        self._vel = 0.0
        self._steps = 0
        self._done = True

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if self._rng is None:
            raise RuntimeError("first reset must provide a seed")
        self._pos = self._rng.uniform(-0.6, -0.4)
        self._vel = 0.0
        self._steps = 0
        self._done = False
        return self._obs()

    def _obs(self) -> np.ndarray:
        return np.array([self._pos, self._vel], dtype=np.float64)

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        # min(max(x, lo), hi) keeps NaN as NaN, as np.clip does
        a = min(max(float(np.asarray(action, dtype=np.float64).reshape(-1)[0]), -1.0), 1.0)
        self._vel += a * self.POWER - self.GRAVITY_SCALE * math.cos(3.0 * self._pos)
        self._vel = min(max(self._vel, -self.MAX_SPEED), self.MAX_SPEED)
        self._pos += self._vel
        self._pos = min(max(self._pos, self.MIN_POSITION), self.MAX_POSITION)
        if self._pos == self.MIN_POSITION and self._vel < 0.0:
            self._vel = 0.0
        self._steps += 1

        terminated = self._pos >= self.GOAL_POSITION
        truncated = not terminated and self._steps >= self.max_episode_steps
        reward = -0.1 * a * a + (100.0 if terminated else 0.0)
        self._done = terminated or truncated
        return StepResult(self._obs(), reward, terminated, truncated, {"steps": self._steps})

    def state(self) -> tuple:
        """(position, velocity, steps taken), the fields of `step_arrays`."""
        return self._pos, self._vel, self._steps

    @classmethod
    def step_arrays(cls, state: tuple, actions: np.ndarray) -> ArrayStep:
        """`step` for E live episodes: `actions` is a float64 (E, 1) array.
        An infinite 3 * position raises ValueError, as math.cos does in `step`."""
        pos, vel, steps = state
        angle = 3.0 * pos
        if np.count_nonzero(np.isinf(angle)):
            raise ValueError("math domain error")
        # np.minimum(np.maximum(x, lo), hi) is min(max(x, lo), hi), NaN included
        a = np.minimum(np.maximum(actions[:, 0], -1.0), 1.0)
        vel = vel + (a * cls.POWER - cls.GRAVITY_SCALE * np.cos(angle))
        vel = np.minimum(np.maximum(vel, -cls.MAX_SPEED), cls.MAX_SPEED)
        pos = np.minimum(np.maximum(pos + vel, cls.MIN_POSITION), cls.MAX_POSITION)
        vel = np.where((pos == cls.MIN_POSITION) & (vel < 0.0), 0.0, vel)
        steps = steps + 1

        terminated = pos >= cls.GOAL_POSITION
        truncated = (steps >= cls.max_episode_steps) & ~terminated
        reward = -0.1 * a * a + terminated * 100.0  # False * 100.0 is the 0.0 that step adds
        return ArrayStep((pos, vel, steps), _rows(pos, vel), reward, terminated, truncated, {"steps": steps})


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
    # per action (noop, main, left, right): fuel burnt, acceleration with gravity, main-engine charge
    FUEL_COST = (0.0, MAIN_FUEL, SIDE_FUEL, SIDE_FUEL)
    ACCEL_X = (0.0, 0.0, -SIDE_ACCEL, SIDE_ACCEL)
    ACCEL_Y = (-GRAVITY, -GRAVITY + MAIN_ACCEL, -GRAVITY, -GRAVITY)
    MAIN_COST = (0.0, 0.03, 0.0, 0.0)
    _ENGINES = np.array([FUEL_COST, ACCEL_X, ACCEL_Y, MAIN_COST])  # the table as rows, for step_arrays

    def __init__(self):
        self._rng = None
        self._x = 0.0
        self._y = 0.0
        self._vx = 0.0
        self._vy = 0.0
        self._fuel = 0.0
        self._steps = 0
        self._done = True

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if self._rng is None:
            raise RuntimeError("first reset must provide a seed")
        self._x = self._rng.uniform(-1.0, 1.0)
        self._y = self.START_ALTITUDE
        self._vx = self._rng.uniform(-0.5, 0.5)
        self._vy = self._rng.uniform(-0.5, 0.0)
        self._fuel = self.FUEL_INIT
        self._steps = 0
        self._done = False
        return self._obs()

    def _obs(self) -> np.ndarray:
        return np.array(
            [self._x, self._y, self._vx, self._vy, self._fuel / self.FUEL_INIT],
            dtype=np.float64,
        )

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        a = int(action)
        if not 0 <= a < self.action_space.n:
            raise ValueError(f"invalid action {a}")
        if self._fuel <= 0.0:
            a = 0  # engines dead
        elif a:
            self._fuel = max(0.0, self._fuel - self.FUEL_COST[a])

        # semi-implicit Euler: velocity first, then position
        self._vx += self.ACCEL_X[a] * self.DT
        self._vy += self.ACCEL_Y[a] * self.DT
        self._x += self._vx * self.DT
        self._y += self._vy * self.DT
        self._steps += 1

        terminated = False
        reward = -0.3 * (abs(self._x) + abs(self._vx) + abs(self._vy)) * self.DT - self.MAIN_COST[a]
        if self._y <= 0.0:
            terminated = True
            safe = (
                abs(self._x) <= self.PAD_HALF_WIDTH
                and abs(self._vy) <= self.SAFE_SPEED
                and abs(self._vx) <= self.SAFE_SPEED
            )
            reward += 100.0 if safe else -100.0
        elif abs(self._x) > self.X_LIMIT:
            terminated = True
            reward += -100.0
        truncated = not terminated and self._steps >= self.max_episode_steps
        self._done = terminated or truncated
        info = {"fuel": self._fuel, "steps": self._steps}
        return StepResult(self._obs(), reward, terminated, truncated, info)

    def state(self) -> tuple:
        """(x, y, vx, vy, fuel, steps taken), the fields of `step_arrays`."""
        return self._x, self._y, self._vx, self._vy, self._fuel, self._steps

    @classmethod
    def step_arrays(cls, state: tuple, actions: np.ndarray) -> ArrayStep:
        """`step` for E live episodes: `actions` is an integer (E,) array."""
        x, y, vx, vy, fuel, steps = state
        invalid = (actions < 0) | (actions >= cls.action_space.n)
        if np.count_nonzero(invalid):
            raise ValueError(f"invalid action {actions[invalid][0]}")
        a = np.where(fuel <= 0.0, 0, actions)  # engines dead on an empty tank

        fuel_cost, accel_x, accel_y, main_cost = cls._ENGINES[:, a]
        # x - 0.0 is x, -0.0 and NaN included, so a zero cost or charge changes nothing
        burnt = fuel - fuel_cost
        fuel = np.where((burnt > 0.0) | (a == 0), burnt, 0.0)  # max(0.0, burnt) where an engine fired
        vx = vx + accel_x * cls.DT
        vy = vy + accel_y * cls.DT
        x = x + vx * cls.DT
        y = y + vy * cls.DT
        steps = steps + 1

        abs_x, abs_vx, abs_vy = np.abs(x), np.abs(vx), np.abs(vy)
        reward = -0.3 * (abs_x + abs_vx + abs_vy) * cls.DT - main_cost
        landed = y <= 0.0
        terminated = landed | (abs_x > cls.X_LIMIT)
        if np.count_nonzero(terminated):
            safe = landed & (abs_x <= cls.PAD_HALF_WIDTH) & (abs_vy <= cls.SAFE_SPEED) & (abs_vx <= cls.SAFE_SPEED)
            # r - (-100.0) is r + 100.0; subtracting 0.0 leaves a live row's -0.0 as it is
            reward = reward - np.where(terminated, np.where(safe, -100.0, 100.0), 0.0)
        truncated = (steps >= cls.max_episode_steps) & ~terminated
        obs = _rows(x, y, vx, vy, fuel / cls.FUEL_INIT)
        return ArrayStep((x, y, vx, vy, fuel, steps), obs, reward, terminated, truncated,
                         {"fuel": fuel, "steps": steps})


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
