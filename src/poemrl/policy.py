"""Actor-critic policies over flat parameter vectors.

Two separate networks (no shared trunk): an actor feeding an action head,
and a critic producing a scalar value. All parameters live in one
ParamVector laid out actor | log_std | critic, so the leading
actor+log_std block is "the policy" for tracking, divergence measurement,
and mutation. The per-layer views into that vector are built once per
parameter vector, when an ActorCritic is made.

Each head states its math once: the actor's output width, the
distribution that acting samples, the one-row sampler that a rollout
makes once, the mode, and the log-probs with their VJP, which the KL
probe, the mutation scorer and the tape all run; the mean entropy is
computed only for a caller that asks for it. A VJP repeats, op for op, the backward of the tape ops
in tests/tape_ops.py, so both give bit-identical gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .autodiff import NumericalError, Tensor
from .envs import ContinuousSpace
from .nn import LayoutEntry, MlpSpec, ParamVector

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)
GAUSSIAN_ENTROPY_CONST = 0.5 * math.log(2.0 * math.pi * math.e)


def _clip_log_std(log_std: np.ndarray) -> np.ndarray:
    """np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)'s value, NaN included,
    without its per-call overhead."""
    return np.minimum(np.maximum(log_std, LOG_STD_MIN), LOG_STD_MAX)


def gaussian_logp(mean: np.ndarray, log_std: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-row log N(actions | mean, diag(exp(log_std))^2), shape (n,), with
    the `std`, `diff` and `z` that its VJP reuses.

    `mean` is (n, d) and `log_std` is (d,), already clipped if it should be.
    """
    std = np.exp(log_std)
    diff = actions - mean
    z = diff / std
    return (z * z).sum(axis=1) * -0.5 + (log_std.sum() * -1.0 + (-0.5 * LOG_2PI * log_std.size)), std, diff, z


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of (n, k) logits: z - log(sum(exp(z))), with z
    the logits less their row's max, so no exp overflows."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def categorical_entropy(log_p: np.ndarray) -> float:
    """-mean_i sum_j p_ij log p_ij for (n, k) log-probs, with p = exp(log_p)."""
    return float(-(np.exp(log_p) * log_p).sum(axis=1).mean())


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, max-shifted so no exp overflows."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _inverse_cdf(cdf: np.ndarray, u: float) -> np.intp:
    """The index that uniform draw `u` picks from a (k,) CDF. Searching all
    but its last entry clips the index to k - 1, for a CDF that rounds to
    below the draw; replaying the generator state replays the index."""
    return cdf[:-1].searchsorted(u, side="right")


@dataclass(frozen=True)
class DiagGaussian:
    """Unsquashed Gaussian actions: (E, action_dim) means, one (action_dim,) std."""

    mean: np.ndarray
    std: np.ndarray

    def sample(self, rngs: list[np.random.Generator]) -> np.ndarray:
        """A float64 (E, action_dim) array, row i drawn from rngs[i] in row order."""
        return self.mean + self.std * np.array([rng.standard_normal(self.std.shape) for rng in rngs])


@dataclass(frozen=True)
class Categorical:
    probs: np.ndarray  # (E, n_actions)

    def sample(self, rngs: list[np.random.Generator]) -> np.ndarray:
        """An int64 (E,) array of action indices, row i drawn from rngs[i] in row order."""
        return np.array([_inverse_cdf(row, rng.random()) for row, rng in zip(self.probs.cumsum(axis=1), rngs)])


@dataclass(frozen=True)
class DiagGaussianHead:
    """The actor's (n, action_dim) output is the means; the raw `log_std`
    is clipped to [LOG_STD_MIN, LOG_STD_MAX] wherever it is read."""

    action_dim: int

    @property
    def out_dim(self) -> int:
        return self.action_dim

    n_log_std = out_dim  # one log-std per action dimension

    def distribution(self, out: np.ndarray, log_std: np.ndarray) -> DiagGaussian:
        return DiagGaussian(mean=out, std=np.exp(_clip_log_std(log_std)))

    def sampler(self, log_std: np.ndarray):
        """`draw(out, rng)`: one action from one state's (action_dim,) means,
        as `DiagGaussian.sample` draws a row; the std is computed here, once."""
        std = np.exp(_clip_log_std(log_std))
        return lambda out, rng: out + std * rng.standard_normal(std.shape)

    def mode(self, out: np.ndarray) -> np.ndarray:
        return out

    def entropy(self, actor_out, log_std: np.ndarray) -> float:
        """The entropy, the same in every state: `actor_out` is not called."""
        return float(_clip_log_std(log_std).sum() + GAUSSIAN_ENTROPY_CONST * self.action_dim)

    def logp(self, out: np.ndarray, log_std: np.ndarray, actions: np.ndarray, with_entropy: bool = False):
        """Log-probs (n,) of `actions`, the mean entropy (None unless
        `with_entropy`), and `vjp(g_logp, g_ent)` to (`out`, `log_std`), which
        adds the entropy's gradient first, as `Tensor.backward` did; a None
        upstream passes nothing."""
        clipped = _clip_log_std(log_std)
        logp, std, diff, z = gaussian_logp(out, clipped, actions)

        def vjp(g_logp, g_ent):
            g_out, g_clipped = None, (None if g_ent is None else np.broadcast_to(g_ent, clipped.shape))
            if g_logp is not None:
                g_z = (g_logp * -0.5)[:, None] * 2.0 * z
                g_std = (-g_z * diff / (std * std)).sum(axis=0)
                g_out, g_logp_clipped = g_z / std * -1.0, g_std * std + g_logp.sum() * -1.0
                g_clipped = g_logp_clipped if g_clipped is None else g_clipped + g_logp_clipped
            inside = (log_std >= LOG_STD_MIN) & (log_std <= LOG_STD_MAX)  # where the clip passes a gradient
            return g_out, g_clipped * inside

        return logp, self.entropy(None, log_std) if with_entropy else None, vjp


@dataclass(frozen=True)
class CategoricalHead:
    """The actor's (n, n_actions) output is the logits."""

    n_actions: int
    n_log_std = 0

    @property
    def out_dim(self) -> int:
        return self.n_actions

    def distribution(self, out: np.ndarray, log_std: np.ndarray) -> Categorical:
        return Categorical(probs=_softmax(out))

    def sampler(self, log_std: np.ndarray):
        """`draw(out, rng)`: one action index from one state's (n_actions,)
        logits, as `Categorical.sample` draws a row."""
        return lambda out, rng: _inverse_cdf(_softmax(out).cumsum(), rng.random())

    def mode(self, out: np.ndarray) -> np.ndarray:
        return self.distribution(out, None).probs.argmax(axis=1)

    def entropy(self, actor_out, log_std: np.ndarray) -> float:
        """The mean entropy over the states whose logits `actor_out()` returns."""
        return categorical_entropy(log_softmax(actor_out()))

    def logp(self, out: np.ndarray, log_std: np.ndarray, actions: np.ndarray, with_entropy: bool = False):
        """As `DiagGaussianHead.logp`; the VJP's second output, to `log_std`, is None."""
        log_p, rows = log_softmax(out), np.arange(len(actions))

        def vjp(g_logp, g_ent):
            g = None if g_ent is None else (g_ent * (-1.0 / log_p.shape[0])) * np.exp(log_p) * (log_p + 1.0)
            if g_logp is not None:
                g_gathered = np.zeros_like(log_p)
                np.add.at(g_gathered, (rows, actions), g_logp)
                g = g_gathered if g is None else g + g_gathered
            return g - np.exp(log_p) * g.sum(axis=1, keepdims=True), None

        return log_p[rows, actions], categorical_entropy(log_p) if with_entropy else None, vjp


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
        self.n_policy = len(self.params) - self.critic_spec.n_params  # the critic's block comes last
        self._view(self.params)

    def _view(self, params: ParamVector) -> None:
        """Hold `params` and its per-layer and log_std views."""
        data = params.data
        self.params = params
        self.actor_layers = nn.layer_views(self.actor_spec, data)
        self.log_std = data[self.actor_spec.n_params : self.n_policy]
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
        data = np.concatenate([actor.data, np.full(head.n_log_std, float(log_std_init)), critic.data])
        return cls(actor_spec, critic_spec, head, ParamVector(data, layout), obs_scale)

    @property
    def policy_slice(self) -> slice:
        return slice(0, self.n_policy)

    def policy_params(self) -> np.ndarray:
        return self.params.data[self.policy_slice].copy()

    def with_params(self, data: np.ndarray) -> "ActorCritic":
        """This policy over new parameter data, which is checked for rank and
        length; the layout and obs_scale were checked when this one was made."""
        new = object.__new__(ActorCritic)
        new.__dict__.update(self.__dict__)
        new._view(self.params.with_data(data))
        return new

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
    actor_spec = MlpSpec((obs_dim, *hidden_sizes, head.out_dim))
    critic_spec = MlpSpec((obs_dim, *hidden_sizes, 1))
    layout = nn.mlp_layout(actor_spec, "actor.")
    offset, n = actor_spec.n_params, head.n_log_std
    if n:
        layout += (LayoutEntry("log_std", (n,), offset, n),)
    return actor_spec, critic_spec, layout + nn.mlp_layout(critic_spec, "critic.", offset + n)


def _features(ac: ActorCritic, obs: np.ndarray) -> np.ndarray:
    return np.asarray(obs, dtype=np.float64) * ac.obs_scale


# ---- acting: one distribution per stacked actor pass ---------------------


def distribution(ac: ActorCritic, obs) -> DiagGaussian | Categorical:
    """The action distributions pi(.|obs_i) of an (E, obs_dim) batch under the
    current parameters, one row each. The actor runs once on the stacked
    (E, 1, obs_dim) input, so each row rounds exactly as a one-row pass
    would; a 2-D (E, obs_dim) pass would not."""
    return ac.head.distribution(_actor_pass(ac, obs), ac.log_std)


def act(ac: ActorCritic, obs: np.ndarray, rngs: list[np.random.Generator] | None = None) -> np.ndarray:
    """Actions for a float64 (E, obs_dim) batch. Without `rngs`, the head's
    mode of one stacked actor pass: the means as an (E, action_dim) array,
    or each probs row's argmax. With them, `distribution(ac, obs).sample(rngs)`."""
    if rngs is not None:
        return distribution(ac, obs).sample(rngs)
    return ac.head.mode(_actor_pass(ac, obs))


def sampler(ac: ActorCritic):
    """`sample(obs, rng)`: one action for one (obs_dim,) observation, equal
    to `act(ac, obs[None], [rng])[0]`, for a rollout's step loop. The head's
    per-rollout work (the Gaussian's std) is done here once; checking the
    observation's shape is the caller's."""
    layers, scale, draw = ac.actor_layers, ac.obs_scale, ac.head.sampler(ac.log_std)
    return lambda obs, rng: draw(_finite(nn.forward_batch(layers, (obs * scale)[None])[0]), rng)


def _actor_pass(ac: ActorCritic, obs) -> np.ndarray:
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[1] != ac.obs_dim():
        raise ValueError(f"obs shape {obs.shape} does not match (E, {ac.obs_dim()})")
    return _finite(nn.forward_batch(ac.actor_layers, _features(ac, obs[:, None, :]))[:, 0])


def _finite(out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NumericalError("actor network produced non-finite output")
    return out


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
    logp, ent, _ = ac.head.logp(nn.forward_batch(layers, _features(ac, obs)), log_std, actions, with_entropy)
    return (logp, ent) if with_entropy else logp


def entropy_mean(ac: ActorCritic, obs: np.ndarray) -> float:
    """Mean per-state policy entropy over a batch of observations."""
    return ac.head.entropy(lambda: nn.forward_batch(ac.actor_layers, _features(ac, obs)), ac.log_std)


# ---- tape paths: outputs with a VJP into a flat gradient laid out like params


def policy_forward(ac: ActorCritic, x: np.ndarray, actions: np.ndarray):
    """The actor on features `x`: log-probs (n,) of `actions`, mean entropy,
    and `vjp(g_logp, g_ent, grad)`, writing the actor's and log_std's part of
    `grad`; a None upstream passes nothing."""
    hs = nn.forward_activations(ac.actor_layers, x)
    logp, ent, head_vjp = ac.head.logp(hs[-1], ac.log_std, actions, with_entropy=True)

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
