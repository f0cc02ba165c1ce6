"""Clipped-surrogate policy optimization: losses and the epoch/minibatch loop.

The loss graph optionally includes a diversity term -lambda_div * D_KL
against a reference policy; with lambda_div = 0 that term is skipped
entirely, so the plain update is bit-identical whether it is invoked
directly or through the mutation-augmented loop built on top of it.

One plain-numpy function assembles the composite loss from the actor's
log-probs and mean entropy and the critic's values, with its VJP:
`evaluate_loss` calls it to score mutation candidates, building no Tensor,
and `loss_graph` makes it one tape node over the parameter leaf, chaining
its VJP through the head's and both networks' into one flat gradient, so
both compute the same number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import policy as pol
from .autodiff import NumericalError, Tensor
from .nn import AdamState
from .policy import ActorCritic
from .rollout import Minibatch, RolloutBatch


@dataclass(frozen=True)
class PpoConfig:
    # field order is the [ppo] order of config.ini
    learning_rate: float = 3e-4
    clip_epsilon: float = 0.2
    epochs: int = 10
    minibatch_size: int = 64
    gamma: float = 0.99
    lam: float = 0.95
    alpha_vf: float = 0.5
    alpha_ent: float = 0.0
    max_grad_norm: float | None = 0.5

    def __post_init__(self):
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be in (0, 1), got {self.clip_epsilon}")
        if self.alpha_vf < 0.0 or self.alpha_ent < 0.0:
            raise ValueError("loss coefficients must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0.0:
            raise ValueError("max_grad_norm must be positive or None")
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.lam <= 1.0:
            raise ValueError("gamma and lam must be in [0, 1]")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-minibatch loss terms; l_total = l_ppo - lambda_div*kl_div
    + alpha_vf*l_vf - alpha_ent*entropy, exactly as assembled."""

    l_ppo: float
    l_vf: float
    entropy: float
    kl_div: float
    l_total: float


def _surrogate(logp, logp_old, adv, clip_epsilon: float):
    """PPO's -mean(min(r * adv, clip(r, 1 - eps, 1 + eps) * adv)), where
    r = exp(logp - logp_old), with the `ratio`, `take_unclipped` and `inside`
    masks its VJP reuses: on ties the gradient goes to the unclipped branch,
    and outside the clip interval the clipped branch passes none."""
    lo, hi = 1.0 - clip_epsilon, 1.0 + clip_epsilon
    ratio = np.exp(logp - logp_old)
    inside = (ratio >= lo) & (ratio <= hi)
    unclipped = ratio * adv
    clipped = np.minimum(np.maximum(ratio, lo), hi) * adv  # np.clip's value without its per-call overhead
    take_unclipped = unclipped <= clipped
    surrogate = np.where(take_unclipped, unclipped, clipped).sum() * (1.0 / ratio.size) * -1.0
    return surrogate, ratio, take_unclipped, inside


def clipped_surrogate(logp_new, logp_old, adv, clip_epsilon: float) -> float:
    """-mean(min(ratio*adv, clip(ratio)*adv)); lower is better."""
    logp_new = np.asarray(logp_new, dtype=np.float64)
    logp_old = np.asarray(logp_old, dtype=np.float64)
    adv = np.asarray(adv, dtype=np.float64)
    if not (logp_new.shape == logp_old.shape == adv.shape) or logp_new.size < 1:
        raise ValueError("logp_new, logp_old, adv must have equal nonzero lengths")
    return float(_surrogate(logp_new, logp_old, adv, clip_epsilon)[0])


def value_loss(values_new, returns) -> float:
    values_new = np.asarray(values_new, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    if values_new.shape != returns.shape:
        raise ValueError("values and returns must have equal lengths")
    d = values_new + -returns
    return float((d * d).sum() * (1.0 / d.size))


def minibatch_plan(
    n: int, minibatch_size: int, epochs: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled minibatch index sets for every epoch, in execution order."""
    if minibatch_size > n:
        raise ValueError(f"minibatch_size {minibatch_size} exceeds rollout size {n}")
    plan = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, minibatch_size):
            plan.append(perm[start : start + minibatch_size])
    return plan


def _composite(ac: ActorCritic, logp: np.ndarray, ent, values: np.ndarray, mb: Minibatch, cfg: PpoConfig,
               lambda_div: float, ema_policy_params: np.ndarray | None, ema_logp=None):
    """The composite loss from the actor's log-probs and mean entropy and the
    critic's values, all plain arrays: its pieces, its value, and its VJP to
    those three, which repeats the per-term VJPs in `Tensor.backward`'s order.
    Every term is reported; a zero coefficient only keeps its term out of the
    sum, and its input's gradient is None. The diversity term needs the
    reference policy's log-probs, from an actor pass unless `ema_logp` is given.
    """
    scale = 1.0 / logp.size
    adv = mb.advantages
    l_ppo, ratio, take_unclipped, inside = _surrogate(logp, mb.log_probs_old, adv, cfg.clip_epsilon)
    loss = l_ppo

    kl = 0.0
    if lambda_div != 0.0:
        if ema_policy_params is None:
            raise ValueError("lambda_div != 0 requires reference policy parameters")
        if ema_logp is None:
            # the reference policy is a constant: its log-probs get no gradient
            ema_logp = pol.logp_batch(ac, mb.obs, mb.actions, policy_params=ema_policy_params)
        kl = (logp + -ema_logp).sum() * scale
        loss = loss + kl * -lambda_div

    d = values + -mb.returns
    l_vf = (d * d).sum() * scale
    if cfg.alpha_vf != 0.0:
        loss = loss + l_vf * cfg.alpha_vf
    if cfg.alpha_ent != 0.0:
        loss = loss + ent * -cfg.alpha_ent

    def vjp(g):
        g_min = g * -1.0 * scale
        g_logp = (g_min * take_unclipped * adv + g_min * ~take_unclipped * adv * inside) * ratio
        if lambda_div != 0.0:
            g_logp = g * -lambda_div * scale + g_logp
        return (g_logp,
                g * -cfg.alpha_ent if cfg.alpha_ent != 0.0 else None,
                g * cfg.alpha_vf * scale * 2.0 * d if cfg.alpha_vf != 0.0 else None)

    breakdown = LossBreakdown(l_ppo=float(l_ppo), l_vf=float(l_vf), entropy=float(ent), kl_div=float(kl),
                              l_total=float(loss))
    return breakdown, loss, vjp


def loss_graph(
    ac: ActorCritic,
    leaves: Tensor,
    mb: Minibatch,
    cfg: PpoConfig,
    lambda_div: float = 0.0,
    ema_policy_params: np.ndarray | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Build the total loss on the tape, one node over the parameter leaf, and
    report its pieces. Its backward runs `_composite`'s VJP, then the head's
    and both networks' into one flat gradient."""
    x = pol._features(ac, mb.obs)
    logp, ent, policy_vjp = pol.policy_forward(ac, x, mb.actions)
    values, values_vjp = pol.values_forward(ac, x)
    breakdown, loss, vjp = _composite(ac, logp, ent, values, mb, cfg, lambda_div, ema_policy_params)

    def fill(g, grad):
        g_logp, g_ent, g_values = vjp(g)
        policy_vjp(g_logp, g_ent, grad)
        if g_values is not None:
            values_vjp(g_values, grad)

    return nn.leaf_node(leaves, ac.params.data, loss, fill), breakdown


def evaluate_loss(
    ac: ActorCritic,
    mb: Minibatch,
    cfg: PpoConfig,
    lambda_div: float = 0.0,
    ema_policy_params: np.ndarray | None = None,
    *,
    logp: np.ndarray | None = None,
    ema_logp: np.ndarray | None = None,
    values: np.ndarray | None = None,
) -> LossBreakdown:
    """Loss values only, used to score mutation candidates: `loss_graph`'s
    loss on plain arrays, so the two agree bit for bit.

    `logp`, `ema_logp` and `values` stand in for the forward passes that
    would compute them. Without `logp`, the actor pass is `loss_graph`'s,
    which also gives the entropy; given `logp`, the entropy is computed only
    when alpha_ent weights it, and reported as NaN otherwise."""
    if logp is None:
        logp, ent, _ = pol.policy_forward(ac, pol._features(ac, mb.obs), mb.actions)
    else:
        ent = pol.entropy_mean(ac, mb.obs) if cfg.alpha_ent != 0.0 else np.nan
    if values is None:
        values = pol.values_batch(ac, mb.obs)
    return _composite(ac, logp, ent, values, mb, cfg, lambda_div, ema_policy_params, ema_logp)[0]


def clip_grad_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.sqrt(grad @ grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


def apply_minibatch_step(
    ac: ActorCritic,
    mb: Minibatch,
    cfg: PpoConfig,
    adam_state: AdamState,
    lambda_div: float = 0.0,
    ema_policy_params: np.ndarray | None = None,
) -> tuple[ActorCritic, AdamState, LossBreakdown]:
    """One gradient step on one minibatch; raises NumericalError on non-finite
    losses or gradients."""
    leaves = nn.make_leaves(ac.params)
    loss_t, breakdown = loss_graph(ac, leaves, mb, cfg, lambda_div, ema_policy_params)
    if not np.isfinite(breakdown.l_total):
        raise NumericalError(f"non-finite loss: {breakdown}")
    loss_t.backward()
    grad = nn.collect_leaf_grads(leaves, ac.params.layout)
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient")
    if cfg.max_grad_norm is not None:
        grad = clip_grad_norm(grad, cfg.max_grad_norm)
    adam_state, new_data = nn.adam_step(adam_state, ac.params.data, grad)
    return ac.with_params(new_data), adam_state, breakdown


def ppo_update(
    ac: ActorCritic,
    batch: RolloutBatch,
    cfg: PpoConfig,
    adam_state: AdamState,
    shuffle_rng: np.random.Generator,
) -> tuple[ActorCritic, AdamState, list[LossBreakdown]]:
    """Standard clipped-surrogate update: epochs of shuffled minibatches."""
    diagnostics = []
    for k, idx in enumerate(minibatch_plan(len(batch), cfg.minibatch_size, cfg.epochs, shuffle_rng)):
        try:
            ac, adam_state, breakdown = apply_minibatch_step(ac, batch.minibatch(idx), cfg, adam_state)
        except NumericalError as err:
            raise NumericalError(f"update aborted at minibatch {k}: {err}") from None
        diagnostics.append(breakdown)
    return ac, adam_state, diagnostics
