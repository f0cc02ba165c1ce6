"""The per-row acting path that the library's batched one replaced.

`policy.distribution` returns one object for a whole stacked actor pass,
and its `sample` draws every row of it. Here each observation gets its own
one-row actor pass, its own distribution object and its own draw, as the
library once did; the batched path is checked against these bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from poemrl import nn
from poemrl.policy import LOG_STD_MAX, LOG_STD_MIN, ActorCritic, DiagGaussianHead


@dataclass(frozen=True)
class GaussianRow:
    mean: np.ndarray  # (action_dim,)
    std: np.ndarray  # (action_dim,)


@dataclass(frozen=True)
class CategoricalRow:
    probs: np.ndarray  # (n_actions,)


def one_row_distribution(ac: ActorCritic, obs) -> GaussianRow | CategoricalRow:
    """pi(.|obs) from a one-row (1, obs_dim) actor pass, the reference that
    each row of the stacked pass in `policy.distribution` must equal."""
    x = np.asarray(obs, dtype=np.float64)[None, :] * ac.obs_scale
    out = nn.forward_batch(ac.actor_layers, x)[0]
    if isinstance(ac.head, DiagGaussianHead):
        return GaussianRow(mean=out, std=np.exp(np.clip(ac.log_std, LOG_STD_MIN, LOG_STD_MAX)))
    e = np.exp(out - out.max())
    return CategoricalRow(probs=e / e.sum())


def sample_row(dist: GaussianRow | CategoricalRow, rng: np.random.Generator, deterministic: bool = False):
    """Draw one row's action; deterministic mode returns the mean / argmax."""
    if isinstance(dist, GaussianRow):
        if deterministic:
            return dist.mean.copy()
        return dist.mean + dist.std * rng.standard_normal(dist.mean.shape)
    if deterministic:
        return int(np.argmax(dist.probs))
    # inverse-CDF draw so replaying the generator state replays the action
    u = rng.random()
    return int(np.searchsorted(np.cumsum(dist.probs), u, side="right").clip(0, len(dist.probs) - 1))
