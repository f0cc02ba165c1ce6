"""Actor-critic policies over flat parameter vectors.

Two separate networks (no shared trunk): an actor producing either a
diagonal-Gaussian mean (with one state-independent log-std per action
dimension) or categorical logits, and a critic producing a scalar value.
All parameters live in one ParamVector laid out actor | log_std | critic,
so the leading actor+log_std block is "the policy" for tracking,
divergence measurement, and mutation. The per-layer views into that vector
are built once per parameter vector, when an ActorCritic is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import NumericalError, Tensor
from .envs import ContinuousSpace
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
    """Unsquashed Gaussian actions: (E, action_dim) means, one (action_dim,) std."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class Categorical:
    probs: np.ndarray  # (E, n_actions)


@dataclass
class ActorCritic:
    actor_spec: MlpSpec
    critic_spec: MlpSpec
    head: DiagGaussianHead | CategoricalHead
    params: ParamVector
    obs_scale: np.ndarray = None  # fixed per-feature input scaling
    # geometry of `params`: views into params.data, set in __post_init__
    n_policy: int = field(init=False, repr=False, compare=False)  # actor + log_std length
    actor_layers: tuple = field(init=False, repr=False, compare=False)
    log_std: np.ndarray = field(init=False, repr=False, compare=False)  # raw, unclipped
    critic_layers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs_dim = self.actor_spec.layer_sizes[0]
        if self.obs_scale is None:
            self.obs_scale = np.ones(obs_dim)
        self.obs_scale = np.asarray(self.obs_scale, dtype=np.float64)
        if self.obs_scale.shape != (obs_dim,) or not np.all(np.isfinite(self.obs_scale)):
            raise ValueError(f"obs_scale must be {obs_dim} finite numbers, got {self.obs_scale.tolist()}")
        n_actor = self.actor_spec.n_params
        self.n_policy = len(self.params) - self.critic_spec.n_params  # the critic's block comes last
        data = self.params.data
        self.actor_layers = nn.layer_views(self.actor_spec, data)
        self.log_std = data[n_actor : self.n_policy]
        self.critic_layers = nn.layer_views(self.critic_spec, data, self.n_policy)

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
        actor_spec, critic_spec, layout = param_layout(obs_dim, head, hidden_sizes)
        actor_seed, critic_seed = np.random.SeedSequence(seed).generate_state(2)
        # small final layer keeps fresh action distributions near-uniform
        actor = nn.init_params(actor_spec, int(actor_seed), final_layer_scale=0.01)
        critic = nn.init_params(critic_spec, int(critic_seed))
        n_log_std = sum(e.size for e in layout) - actor_spec.n_params - critic_spec.n_params
        data = np.concatenate([actor.data, np.full(n_log_std, float(log_std_init)), critic.data])
        return cls(actor_spec, critic_spec, head, ParamVector(data, layout), obs_scale)

    @property
    def policy_slice(self) -> slice:
        return slice(0, self.n_policy)

    def policy_params(self) -> np.ndarray:
        return self.params.data[self.policy_slice].copy()

    def with_params(self, data: np.ndarray) -> "ActorCritic":
        return replace(self, params=self.params.with_data(data))

    def obs_dim(self) -> int:
        return self.actor_spec.layer_sizes[0]


def head_for(space) -> DiagGaussianHead | CategoricalHead:
    """The policy head that acts in an env's action space."""
    return DiagGaussianHead(space.dim) if isinstance(space, ContinuousSpace) else CategoricalHead(space.n)


def param_layout(
    obs_dim: int, head: DiagGaussianHead | CategoricalHead, hidden_sizes: tuple[int, ...]
) -> tuple[MlpSpec, MlpSpec, tuple[LayoutEntry, ...]]:
    """The actor and critic specs and the actor | log_std | critic layout of
    their one parameter vector. Sizes only: nothing is allocated, so a
    caller can check a parameter count before building a network."""
    gaussian = isinstance(head, DiagGaussianHead)
    out_dim = head.action_dim if gaussian else head.n_actions
    actor_spec = MlpSpec((obs_dim, *hidden_sizes, out_dim))
    critic_spec = MlpSpec((obs_dim, *hidden_sizes, 1))
    layout = nn.mlp_layout(actor_spec, "actor.")
    offset = actor_spec.n_params
    if gaussian:
        layout += (LayoutEntry("log_std", (out_dim,), offset, out_dim),)
        offset += out_dim
    return actor_spec, critic_spec, layout + nn.mlp_layout(critic_spec, "critic.", offset)


def _clip_log_std(log_std: np.ndarray) -> np.ndarray:
    """np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)'s value, NaN included,
    without its per-call overhead."""
    return np.minimum(np.maximum(log_std, LOG_STD_MIN), LOG_STD_MAX)


def _features(ac: ActorCritic, obs: np.ndarray) -> np.ndarray:
    return np.asarray(obs, dtype=np.float64) * ac.obs_scale


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---- acting: one distribution per stacked actor pass ---------------------


def distribution(ac: ActorCritic, obs) -> DiagGaussian | Categorical:
    """The action distributions pi(.|obs_i) of an (E, obs_dim) batch under the
    current parameters, one row each. The actor runs once on the stacked
    (E, 1, obs_dim) input, so each row rounds exactly as a one-row pass
    would; a 2-D (E, obs_dim) pass would not."""
    out = _actor_pass(ac, obs)
    if isinstance(ac.head, DiagGaussianHead):
        return DiagGaussian(mean=out, std=np.exp(_clip_log_std(ac.log_std)))
    return Categorical(probs=_softmax_rows(out))


def act(ac: ActorCritic, obs: np.ndarray, rngs: list[np.random.Generator] | None = None) -> np.ndarray:
    """Actions for a float64 (E, obs_dim) batch. Without `rngs`, the mode of
    one stacked actor pass: the means as an (E, action_dim) array, or each
    probs row's argmax. With them, `sample(distribution(ac, obs), rngs)`."""
    if rngs is not None:
        return sample(distribution(ac, obs), rngs)
    out = _actor_pass(ac, obs)
    if isinstance(ac.head, DiagGaussianHead):
        return out
    return _softmax_rows(out).argmax(axis=1)


def _actor_pass(ac: ActorCritic, obs) -> np.ndarray:
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[1] != ac.obs_dim():
        raise ValueError(f"obs shape {obs.shape} does not match (E, {ac.obs_dim()})")
    out = nn.forward_batch(ac.actor_layers, _features(ac, obs[:, None, :]))[:, 0]
    if not np.isfinite(out).all():
        raise NumericalError("actor network produced non-finite output")
    return out


def sample(dist: DiagGaussian | Categorical, rngs: list[np.random.Generator]) -> np.ndarray:
    """One action per row, row i drawn from rngs[i] in row order: a float64
    (E, action_dim) array, or an int64 (E,) array of action indices."""
    if isinstance(dist, DiagGaussian):
        return dist.mean + dist.std * np.array([rng.standard_normal(dist.std.shape) for rng in rngs])
    # inverse-CDF draw so replaying the generator state replays the action
    cdf = np.cumsum(dist.probs, axis=1)
    drawn = np.array([np.searchsorted(row, rng.random(), side="right") for row, rng in zip(cdf, rngs)])
    return drawn.clip(0, cdf.shape[1] - 1)


def value(ac: ActorCritic, obs) -> float:
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (ac.obs_dim(),):
        raise ValueError(f"obs shape {obs.shape} does not match input size {ac.obs_dim()}")
    return float(nn.forward_batch(ac.critic_layers, _features(ac, obs[None, :]))[0, 0])


# ---- vectorized plain-numpy paths (collection, evaluation, KL probes) ----


def values_batch(ac: ActorCritic, obs: np.ndarray) -> np.ndarray:
    """V(s_i) for an (n, obs_dim) batch."""
    return nn.forward_batch(ac.critic_layers, _features(ac, obs))[:, 0]


def logp_batch(
    ac: ActorCritic,
    obs: np.ndarray,
    actions: np.ndarray,
    policy_params: np.ndarray | None = None,
    with_entropy: bool = False,
):
    """log pi(a_i|s_i) for stored pairs, optionally under replacement policy
    parameters (an array shaped like the actor+log_std slice). With
    `with_entropy`, returns (log-probs, entropy_mean) from one actor pass."""
    if policy_params is None:
        layers, log_std = ac.actor_layers, ac.log_std
    else:
        flat = np.asarray(policy_params, dtype=np.float64)
        layers, log_std = nn.layer_views(ac.actor_spec, flat), flat[ac.actor_spec.n_params : ac.n_policy]
    out = nn.forward_batch(layers, _features(ac, obs))
    if isinstance(ac.head, DiagGaussianHead):
        logp = ad.gaussian_logp(out, _clip_log_std(log_std), actions)[0]
    else:
        out = ad.log_softmax(out)  # every action's log-prob, which the entropy reads too
        logp = out[np.arange(len(actions)), actions]
    return (logp, _entropy(ac, out, log_std)) if with_entropy else logp


def _entropy(ac: ActorCritic, log_p: np.ndarray | None, log_std: np.ndarray) -> float:
    if isinstance(ac.head, DiagGaussianHead):
        return float(_clip_log_std(log_std).sum() + GAUSSIAN_ENTROPY_CONST * ac.head.action_dim)
    return ad.categorical_entropy(log_p)


def entropy_mean(ac: ActorCritic, obs: np.ndarray) -> float:
    """Mean per-state policy entropy over a batch of observations."""
    if isinstance(ac.head, DiagGaussianHead):
        return _entropy(ac, None, ac.log_std)
    return _entropy(ac, ad.log_softmax(nn.forward_batch(ac.actor_layers, _features(ac, obs))), ac.log_std)


# ---- tape paths: outputs with a VJP into a flat gradient laid out like params


def _plus(first, second):
    """first + second, where a None term passes nothing."""
    return second if first is None else first if second is None else first + second


def policy_forward(ac: ActorCritic, x: np.ndarray, actions: np.ndarray):
    """The actor on features `x`: log-probs (n,) of `actions`, mean entropy,
    and `vjp(g_logp, g_ent, grad)`, writing the actor's and log_std's part of
    `grad`; a None upstream passes nothing. Where both feed one input, the
    entropy's gradient is added first, as `Tensor.backward` did."""
    hs = nn.forward_activations(ac.actor_layers, x)
    if isinstance(ac.head, DiagGaussianHead):
        clipped = _clip_log_std(ac.log_std)
        inside = (ac.log_std >= LOG_STD_MIN) & (ac.log_std <= LOG_STD_MAX)
        logp, std, diff, z = ad.gaussian_logp(hs[-1], clipped, actions)
        ent = _entropy(ac, None, ac.log_std)

        def head_vjp(g_logp, g_ent):
            g_out, g_clipped = (None, None) if g_logp is None else ad.gaussian_logp_vjp(g_logp, std, diff, z)
            return g_out, _plus(None if g_ent is None else np.broadcast_to(g_ent, clipped.shape), g_clipped) * inside
    else:
        log_p, rows = ad.log_softmax(hs[-1]), np.arange(len(actions))
        logp, ent = log_p[rows, actions], _entropy(ac, log_p, ac.log_std)

        def head_vjp(g_logp, g_ent):
            g = None
            if g_logp is not None:
                g = np.zeros_like(log_p)
                np.add.at(g, (rows, actions), g_logp)
            g_ent = None if g_ent is None else ad.categorical_entropy_vjp(g_ent, log_p)
            return ad.log_softmax_vjp(_plus(g_ent, g), log_p), None

    def vjp(g_logp, g_ent, grad: np.ndarray) -> None:
        g_out, g_log_std = head_vjp(g_logp, g_ent)
        if g_log_std is not None:
            grad[ac.actor_spec.n_params : ac.n_policy] = g_log_std
        if g_out is not None:
            nn.mlp_vjp(ac.actor_layers, hs, g_out, nn.layer_views(ac.actor_spec, grad))

    return logp, ent, vjp


def values_forward(ac: ActorCritic, x: np.ndarray):
    """The critic on features `x`: values (n,) and `vjp(g, grad)`, writing the critic's part of `grad`."""
    hs = nn.forward_activations(ac.critic_layers, x)

    def vjp(g: np.ndarray, grad: np.ndarray) -> None:
        nn.mlp_vjp(ac.critic_layers, hs, g.reshape(-1, 1), nn.layer_views(ac.critic_spec, grad, ac.n_policy))

    return hs[-1][:, 0], vjp


def policy_graph(ac: ActorCritic, leaves: Tensor, obs: np.ndarray, actions: np.ndarray) -> tuple[Tensor, Tensor]:
    """The log-probs (n,) and the mean entropy on the tape, one node each over the parameter leaf."""
    logp, ent, vjp = policy_forward(ac, _features(ac, obs), actions)
    return (nn.leaf_node(leaves, ac.params.data, logp, lambda g, grad: vjp(g, None, grad)),
            nn.leaf_node(leaves, ac.params.data, ent, lambda g, grad: vjp(None, g, grad)))


def values_graph(ac: ActorCritic, leaves: Tensor, obs: np.ndarray) -> Tensor:
    """The values (n,) on the tape, one node over the parameter leaf."""
    return nn.leaf_node(leaves, ac.params.data, *values_forward(ac, _features(ac, obs)))
