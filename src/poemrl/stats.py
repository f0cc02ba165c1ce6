"""Deterministic policy evaluation and Welch's two-sample t-test.

The t distribution's tail probability comes from the regularized incomplete
beta function, computed with the continued-fraction (modified Lentz)
expansion and the usual symmetry switch for numerical stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import policy as pol
from .envs import make_env
from .policy import ActorCritic

_MAX_CF_ITER = 300
_CF_EPS = 3e-16
_CF_TINY = 1e-300


def _floor(x: float) -> float:
    """Lentz's guard: a magnitude under _CF_TINY becomes _CF_TINY; NaN passes through."""
    return _CF_TINY if abs(x) < _CF_TINY else x


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _floor(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _floor(1.0 + aa * d)
        c = _floor(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _floor(1.0 + aa * d)
        c = _floor(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # switch to the mirrored fraction where it converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, dof: float) -> float:
    """P(|T_dof| >= |t|) via I_x(dof/2, 1/2), x = dof / (dof + t^2)."""
    if dof <= 0.0:
        raise ValueError("dof must be positive")
    return regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    p_value: float
    dof: float
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised below as a non-finite statistic
def welch_t_test(a, b) -> TTestResult:
    """Two-sample location test without the equal-variance assumption;
    two-tailed p, Welch-Satterthwaite degrees of freedom."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least 2 observations")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise ValueError("both samples have zero variance; the test is undefined")
    sa, sb = va / len(a), vb / len(b)
    se = math.sqrt(sa + sb)
    t = (a.mean() - b.mean()) / se
    # the dof is scale-free; scaling both sides by 2**-k is exact and keeps the squares finite
    k = math.frexp(max(sa, sb))[1]
    sa, sb = np.ldexp(sa, -k), np.ldexp(sb, -k)
    dof = (sa + sb) ** 2 / (sa * sa / (len(a) - 1) + sb * sb / (len(b) - 1))
    if not (math.isfinite(t) and math.isfinite(dof)):
        raise ValueError("the Welch statistic is not finite")
    return TTestResult(
        t_statistic=float(t),
        p_value=student_t_two_tailed_p(float(t), float(dof)),
        dof=float(dof),
        mean_a=float(a.mean()),
        mean_b=float(b.mean()),
        n_a=len(a),
        n_b=len(b),
    )


def compare_runs(rewards_poem, rewards_ppo, alpha: float) -> dict:
    """Welch test of baseline vs mutation variant, as one comparison-table
    row; t is negative when the variant's mean is higher (the baseline is
    sample a), and the row is significant only when p < alpha and the
    variant's mean is actually higher."""
    res = welch_t_test(rewards_ppo, rewards_poem)
    return {
        "t": res.t_statistic,
        "p": res.p_value,
        "significant": bool(res.p_value < alpha and res.mean_b > res.mean_a),
        "mean_poem": res.mean_b,
        "mean_ppo": res.mean_a,
        "dof": res.dof,
        "n_poem": res.n_b,
        "n_ppo": res.n_a,
    }


@dataclass
class EvalReport:
    """Per-episode rewards from fixed-seed evaluation episodes."""

    per_episode_rewards: np.ndarray
    per_episode_steps: np.ndarray
    mean: float
    std: float
    seeds: list[int]
    step_series: list[np.ndarray] = field(default_factory=list)  # cumulative reward per step
    final_infos: list[dict] = field(default_factory=list)


def evaluate_policy(
    env_or_id,
    ac: ActorCritic,
    n_episodes: int,
    seed_base: int,
    deterministic: bool = True,
) -> EvalReport:
    """Run n_episodes, episode i seeded with seed_base + i; the deterministic
    flag plays the distribution's mode instead of sampling. Sampled actions
    come from a child of the seed, not from the stream the env's reset seeds.

    The episodes run in lockstep, each with its own env, seed and RNG: per
    step, one stacked actor pass and one `step_arrays` call serve every live
    episode, and an episode leaves the live set when it ends. A callable
    env_or_id must return a fresh env on every call, and the envs it returns
    must share a `step_arrays` over their `state()` fields (see `envs`)."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    make = (lambda: make_env(env_or_id)) if isinstance(env_or_id, str) else env_or_id

    seeds = [seed_base + i for i in range(n_episodes)]
    envs = [make() for _ in seeds]
    for env in envs:  # every env is checked before any is reset
        if env.observation_dim != ac.obs_dim():
            raise ValueError(f"policy expects {ac.obs_dim()}-dim observations, env has {env.observation_dim}")
        if pol.head_for(env.action_space) != ac.head:
            raise ValueError(f"policy head {ac.head} does not match the env's action space {env.action_space}")
    obs = np.stack([env.reset(seed=seed) for env, seed in zip(envs, seeds)])
    state = tuple(np.array(values) for values in zip(*(env.state() for env in envs)))
    rngs = None if deterministic else [np.random.default_rng(np.random.SeedSequence(s).spawn(1)[0]) for s in seeds]
    totals = np.zeros(n_episodes)
    history = []  # totals after each step; an episode's series is its column's head
    steps = np.zeros(n_episodes, dtype=np.int64)
    infos = [None] * n_episodes

    step_arrays = envs[0].step_arrays  # the envs of one factory share it
    live = np.arange(n_episodes)  # the episode behind each row of obs and state
    while len(live):
        actions = pol.act(ac, obs, None if rngs is None else [rngs[i] for i in live])
        step = step_arrays(state, actions)
        totals[live] += step.reward
        history.append(totals.copy())
        obs, state = step.obs, step.state
        ended = step.terminated | step.truncated
        if np.count_nonzero(ended):
            for j in np.flatnonzero(ended):
                i = live[j]
                steps[i] = len(history)
                info = {key: values[j].item() for key, values in step.info.items()}
                infos[i] = dict(info, terminated=bool(step.terminated[j]), truncated=bool(step.truncated[j]))
            kept = ~ended
            live, obs, state = live[kept], obs[kept], tuple(values[kept] for values in state)
    history = np.array(history).T
    series = [history[i, :n].copy() for i, n in enumerate(steps)]

    return EvalReport(
        per_episode_rewards=totals,
        per_episode_steps=steps,
        mean=float(totals.mean()),
        std=float(totals.std(ddof=1)) if n_episodes > 1 else 0.0,
        seeds=seeds,
        step_series=series,
        final_infos=infos,
    )
