"""Actor-critic policies over flat parameter vectors.

Two separate networks (no shared trunk): an actor producing either a
diagonal-Gaussian mean (with one state-independent log-std per action
dimension) or categorical logits, and a critic producing a scalar value.
All parameters live in one ParamVector laid out actor | log_std | critic,
so the leading actor+log_std block is "the policy" for tracking,
divergence measurement, and mutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import LOG_2PI, NumericalError, Tensor
from .nn import LayoutEntry, MlpSpec, ParamVector

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
GAUSSIAN_ENTROPY_CONST = 0.5 * math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class DiagGaussianHead:
    action_dim: int


@dataclass(frozen=True)
class CategoricalHead:
    n_actions: int


@dataclass(frozen=True)
class DiagGaussian:
    """Per-dimension mean and std of an unsquashed Gaussian action."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class Categorical:
    probs: np.ndarray


@dataclass
class ActorCritic:
    actor_spec: MlpSpec
    critic_spec: MlpSpec
    head: DiagGaussianHead | CategoricalHead
    params: ParamVector
    obs_scale: np.ndarray = None  # fixed per-feature input scaling

    def __post_init__(self):
        if self.obs_scale is None:
            self.obs_scale = np.ones(self.actor_spec.layer_sizes[0])
        self.obs_scale = np.asarray(self.obs_scale, dtype=np.float64)

    @classmethod
    def create(
        cls,
        obs_dim: int,
        head: DiagGaussianHead | CategoricalHead,
        hidden_sizes: tuple[int, ...] = (64, 64),
        seed: int = 0,
        obs_scale=None,
        log_std_init: float = 0.0,
    ) -> "ActorCritic":
        out_dim = head.action_dim if isinstance(head, DiagGaussianHead) else head.n_actions
        actor_spec = MlpSpec((obs_dim, *hidden_sizes, out_dim))
        critic_spec = MlpSpec((obs_dim, *hidden_sizes, 1))
        actor_seed, critic_seed = np.random.SeedSequence(seed).generate_state(2)
        # small final layer keeps fresh action distributions near-uniform
        actor = nn.init_params(actor_spec, int(actor_seed), final_layer_scale=0.01)
        critic = nn.init_params(critic_spec, int(critic_seed))

        n_log_std = head.action_dim if isinstance(head, DiagGaussianHead) else 0
        layout = list(nn.mlp_layout(actor_spec, "actor."))
        offset = actor_spec.n_params
        if n_log_std:
            layout.append(LayoutEntry("log_std", (n_log_std,), offset, n_log_std))
            offset += n_log_std
        layout.extend(nn.mlp_layout(critic_spec, "critic.", offset))

        data = np.concatenate([actor.data, np.full(n_log_std, float(log_std_init)), critic.data])
        return cls(actor_spec, critic_spec, head, ParamVector(data, tuple(layout)), obs_scale)

    # ---- parameter geometry ------------------------------------------

    @property
    def n_log_std(self) -> int:
        return self.head.action_dim if isinstance(self.head, DiagGaussianHead) else 0

    @property
    def n_policy(self) -> int:
        """Length of the actor + log_std block (the pi-defining slice)."""
        return self.actor_spec.n_params + self.n_log_std

    @property
    def policy_slice(self) -> slice:
        return slice(0, self.n_policy)

    @property
    def critic_slice(self) -> slice:
        return slice(self.n_policy, len(self.params))

    def policy_params(self) -> np.ndarray:
        return self.params.data[self.policy_slice].copy()

    def with_params(self, data: np.ndarray) -> "ActorCritic":
        return replace(self, params=self.params.with_data(data))

    def obs_dim(self) -> int:
        return self.actor_spec.layer_sizes[0]


def _actor_views(ac: ActorCritic, policy_params: np.ndarray | None) -> dict[str, np.ndarray]:
    flat = ac.params.data if policy_params is None else np.asarray(policy_params, dtype=np.float64)
    views = {}
    for e in nn.mlp_layout(ac.actor_spec):
        views[e.name] = flat[e.offset : e.offset + e.size].reshape(e.shape)
    return views


def _log_std_of(ac: ActorCritic, policy_params: np.ndarray | None) -> np.ndarray:
    flat = ac.params.data if policy_params is None else np.asarray(policy_params, dtype=np.float64)
    raw = flat[ac.actor_spec.n_params : ac.actor_spec.n_params + ac.n_log_std]
    return np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)


def _critic_views(ac: ActorCritic) -> dict[str, np.ndarray]:
    base = ac.n_policy
    views = {}
    for e in nn.mlp_layout(ac.critic_spec):
        views[e.name] = ac.params.data[base + e.offset : base + e.offset + e.size].reshape(e.shape)
    return views


def _features(ac: ActorCritic, obs: np.ndarray) -> np.ndarray:
    return np.asarray(obs, dtype=np.float64) * ac.obs_scale


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---- per-observation distribution API ------------------------------------


def distribution(ac: ActorCritic, obs) -> DiagGaussian | Categorical:
    """The action distribution pi(.|obs) under the current parameters."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (ac.obs_dim(),):
        raise ValueError(f"obs shape {obs.shape} does not match input size {ac.obs_dim()}")
    out = nn.forward_batch(ac.actor_spec, _actor_views(ac, None), _features(ac, obs[None, :]))[0]
    if not np.all(np.isfinite(out)):
        raise NumericalError("actor network produced non-finite output")
    if isinstance(ac.head, DiagGaussianHead):
        return DiagGaussian(mean=out, std=np.exp(_log_std_of(ac, None)))
    return Categorical(probs=_softmax_rows(out[None, :])[0])


def sample(dist: DiagGaussian | Categorical, rng: np.random.Generator, deterministic: bool = False):
    """Draw an action; deterministic mode returns the mean / argmax."""
    if isinstance(dist, DiagGaussian):
        if deterministic:
            return dist.mean.copy()
        return dist.mean + dist.std * rng.standard_normal(dist.mean.shape)
    if deterministic:
        return int(np.argmax(dist.probs))
    # inverse-CDF draw so replaying the generator state replays the action
    u = rng.random()
    return int(np.searchsorted(np.cumsum(dist.probs), u, side="right").clip(0, len(dist.probs) - 1))


def log_prob(dist: DiagGaussian | Categorical, action) -> float:
    if isinstance(dist, DiagGaussian):
        a = np.asarray(action, dtype=np.float64)
        if a.shape != dist.mean.shape:
            raise ValueError(f"action shape {a.shape} does not match {dist.mean.shape}")
        z = (a - dist.mean) / dist.std
        return float(-0.5 * LOG_2PI * a.size - np.log(dist.std).sum() - 0.5 * (z * z).sum())
    idx = int(action)
    if not 0 <= idx < len(dist.probs):
        raise ValueError(f"action index {idx} out of range for {len(dist.probs)} actions")
    return float(np.log(dist.probs[idx]))


def entropy(dist: DiagGaussian | Categorical) -> float:
    if isinstance(dist, DiagGaussian):
        return float((GAUSSIAN_ENTROPY_CONST + np.log(dist.std)).sum())
    p = dist.probs
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-terms.sum())


def value(ac: ActorCritic, obs) -> float:
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (ac.obs_dim(),):
        raise ValueError(f"obs shape {obs.shape} does not match input size {ac.obs_dim()}")
    return float(nn.forward_batch(ac.critic_spec, _critic_views(ac), _features(ac, obs[None, :]))[0, 0])


# ---- vectorized plain-numpy paths (collection, evaluation, KL probes) ----


def values_batch(ac: ActorCritic, obs: np.ndarray) -> np.ndarray:
    return nn.forward_batch(ac.critic_spec, _critic_views(ac), _features(ac, obs))[:, 0]


def logp_batch(
    ac: ActorCritic,
    obs: np.ndarray,
    actions: np.ndarray,
    policy_params: np.ndarray | None = None,
) -> np.ndarray:
    """log pi(a_i|s_i) for stored pairs, optionally under replacement policy
    parameters (an array shaped like the actor+log_std slice)."""
    out = nn.forward_batch(ac.actor_spec, _actor_views(ac, policy_params), _features(ac, obs))
    if isinstance(ac.head, DiagGaussianHead):
        log_std = _log_std_of(ac, policy_params)
        z = (actions - out) / np.exp(log_std)
        return -0.5 * LOG_2PI * ac.head.action_dim - log_std.sum() - 0.5 * (z * z).sum(axis=1)
    logits = out - out.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    return logits[np.arange(len(actions)), actions] - log_z


def entropy_mean(ac: ActorCritic, obs: np.ndarray) -> float:
    """Mean per-state policy entropy over a batch of observations."""
    if isinstance(ac.head, DiagGaussianHead):
        # summed as policy_graph does, so the two agree bit for bit
        return float(_log_std_of(ac, None).sum() + GAUSSIAN_ENTROPY_CONST * ac.head.action_dim)
    logits = nn.forward_batch(ac.actor_spec, _actor_views(ac, None), _features(ac, obs))
    probs = _softmax_rows(logits)
    logp = np.log(np.maximum(probs, 1e-300))
    return float(-(probs * logp).sum(axis=1).mean())


# ---- tape paths (differentiable, for the update step) --------------------


def policy_graph(
    ac: ActorCritic, leaves: dict[str, Tensor], obs: np.ndarray, actions: np.ndarray
) -> tuple[Tensor, Tensor]:
    """Build (per-sample log-prob (n,), mean entropy scalar) on the tape."""
    out = nn.forward_batch_t(ac.actor_spec, leaves, _features(ac, obs), prefix="actor.")
    if isinstance(ac.head, DiagGaussianHead):
        log_std = ad.clip(leaves["log_std"], LOG_STD_MIN, LOG_STD_MAX)
        logp = ad.diag_gaussian_logp(out, log_std, actions)
        ent = ad.add(ad.tsum(log_std), ad.constant(GAUSSIAN_ENTROPY_CONST * ac.head.action_dim))
        return logp, ent
    log_all = ad.add(out, ad.mul(ad.logsumexp_rows(out), -1.0))
    logp = ad.gather_rows(log_all, actions)
    # H = -sum p log p, averaged over the batch
    ent = ad.mul(ad.tmean(ad.tsum(ad.mul(ad.exp(log_all), log_all), axis=1)), -1.0)
    return logp, ent


def values_graph(ac: ActorCritic, leaves: dict[str, Tensor], obs: np.ndarray) -> Tensor:
    out = nn.forward_batch_t(ac.critic_spec, leaves, _features(ac, obs), prefix="critic.")
    return ad.tsum(out, axis=1)  # (n, 1) -> (n,)
