"""Trajectory collection and generalized advantage estimation.

A rollout batch is a fixed number of environment steps with episodes
auto-reset inside it. Time-limit truncation bootstraps with the value of
the cut-off state; true termination zeroes the bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import policy as pol
from .policy import ActorCritic


@dataclass
class RolloutBatch:
    """Column-major rollout storage; advantages/returns appear after GAE."""

    obs: np.ndarray  # (n, obs_dim)
    actions: np.ndarray  # (n, action_dim) float or (n,) int
    log_probs_old: np.ndarray  # (n,)
    rewards: np.ndarray  # (n,)
    values_old: np.ndarray  # (n,)
    terminated: np.ndarray  # (n,) bool
    truncated: np.ndarray  # (n,) bool
    next_values: np.ndarray  # (n,) value of each successor state (0 if terminated)
    bootstrap_value: float  # value of the state after the final transition
    advantages: np.ndarray | None = None  # normalized, used by the loss
    advantages_raw: np.ndarray | None = None  # pre-normalization
    returns: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rewards)

    def minibatch(self, idx: np.ndarray) -> "Minibatch":
        if self.advantages is None or self.returns is None:
            raise ValueError("run compute_gae before slicing minibatches")
        return Minibatch(
            obs=self.obs[idx],
            actions=self.actions[idx],
            log_probs_old=self.log_probs_old[idx],
            advantages=self.advantages[idx],
            returns=self.returns[idx],
        )


@dataclass
class Minibatch:
    obs: np.ndarray
    actions: np.ndarray
    log_probs_old: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray

    def __len__(self) -> int:
        return len(self.returns)


def collect(
    env,
    ac: ActorCritic,
    n_steps: int,
    rng: np.random.Generator,
    obs: np.ndarray | None = None,
) -> tuple[RolloutBatch, np.ndarray]:
    """Run the stochastic policy for exactly n_steps, auto-resetting episodes.

    Returns the batch and the observation to resume from next call. The env
    must have been reset (seeded) already when obs is passed; with obs=None
    a fresh episode is started from the env's internal generator. Only the
    actor runs inside the step loop; pi_old(a|s) and V of every stored state
    come from one batched pass each once the loop is done.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if obs is None:
        obs = env.reset()
    if np.shape(obs) != (ac.obs_dim(),):  # once: an env's observations keep the shape of the first
        raise ValueError(f"obs shape {np.shape(obs)} does not match ({ac.obs_dim()},)")
    sample = pol.sampler(ac)

    obs_buf = np.empty((n_steps, env.observation_dim), dtype=np.float64)
    taken = []  # each action as sampled: a float64 (action_dim,) row or an int64
    rew_buf = np.empty(n_steps, dtype=np.float64)
    term_buf = np.zeros(n_steps, dtype=bool)
    trunc_buf = np.zeros(n_steps, dtype=bool)
    cut_off = []  # states where a time limit ended an episode, in step order

    for t in range(n_steps):
        action = sample(obs, rng)
        obs_buf[t] = obs
        taken.append(action.copy())  # an env may rewrite the action it is given

        result = env.step(action)
        rew_buf[t] = result.reward
        term_buf[t] = result.terminated
        trunc_buf[t] = result.truncated

        if result.terminated or result.truncated:
            if not result.terminated:
                cut_off.append(result.obs)
            obs = env.reset()
        else:
            obs = result.obs

    act_buf = np.array(taken)
    # rows: the stored states, the cut-off states, then the state to resume from
    val = pol.values_batch(ac, np.vstack([obs_buf, *cut_off, obs]))
    next_val = np.append(val[1:n_steps], val[-1])
    # time limit: bootstrap from the state the episode stopped in, not the reset one
    next_val[trunc_buf & ~term_buf] = val[n_steps:-1]
    next_val[term_buf] = 0.0

    batch = RolloutBatch(
        obs=obs_buf,
        actions=act_buf,
        log_probs_old=pol.logp_batch(ac, obs_buf, act_buf),
        rewards=rew_buf,
        values_old=val[:n_steps],
        terminated=term_buf,
        truncated=trunc_buf,
        next_values=next_val,
        bootstrap_value=float(val[-1]),
    )
    return batch, obs


def compute_gae(
    batch: RolloutBatch, gamma: float, lam: float, normalize: bool = True
) -> RolloutBatch:
    """GAE(lambda) advantages and returns-to-go (returns = adv + value)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")

    n = len(batch)
    adv = np.zeros(n, dtype=np.float64)
    not_terminated = 1.0 - batch.terminated.astype(np.float64)
    done = batch.terminated | batch.truncated
    not_done = 1.0 - done.astype(np.float64)

    delta = batch.rewards + gamma * batch.next_values * not_terminated - batch.values_old
    running = 0.0
    for t in range(n - 1, -1, -1):
        running = delta[t] + gamma * lam * not_done[t] * running
        adv[t] = running

    returns = adv + batch.values_old
    adv_out = (adv - adv.mean()) / max(adv.std(), 1e-8) if normalize else adv
    return replace(batch, advantages=adv_out, advantages_raw=adv, returns=returns)
