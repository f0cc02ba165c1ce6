"""Clipped-surrogate policy optimization: losses and the epoch/minibatch loop.

The loss graph optionally includes a diversity term -lambda_div * D_KL
against a reference policy; with lambda_div = 0 that term is skipped
entirely, so the plain update is bit-identical whether it is invoked
directly or through the mutation-augmented loop built on top of it.

The composite loss has two paths: `loss_graph` builds it on the tape for
the one backward pass per minibatch, and `evaluate_loss` computes the same
values in plain numpy for scoring. Both take means as the tape does (sum
times 1/n) and add the terms in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from . import policy as pol
from .autodiff import NumericalError, Tensor
from .nn import AdamState
from .policy import ActorCritic
from .rollout import Minibatch, RolloutBatch


@dataclass(frozen=True)
class PpoConfig:
    clip_epsilon: float = 0.2
    alpha_vf: float = 0.5
    alpha_ent: float = 0.0
    epochs: int = 10
    minibatch_size: int = 64
    learning_rate: float = 3e-4
    max_grad_norm: float | None = 0.5
    gamma: float = 0.99
    lam: float = 0.95

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


def _mean(x: np.ndarray) -> float:
    """Mean as `ad.tmean` computes it: the sum times 1/n."""
    return float(x.sum() * (1.0 / x.size))


def clipped_surrogate(logp_new, logp_old, adv, clip_epsilon: float) -> float:
    """-mean(min(ratio*adv, clip(ratio)*adv)); lower is better."""
    logp_new = np.asarray(logp_new, dtype=np.float64)
    logp_old = np.asarray(logp_old, dtype=np.float64)
    adv = np.asarray(adv, dtype=np.float64)
    if not (logp_new.shape == logp_old.shape == adv.shape) or logp_new.size < 1:
        raise ValueError("logp_new, logp_old, adv must have equal nonzero lengths")
    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon)
    return -_mean(np.minimum(ratio * adv, clipped * adv))


def value_loss(values_new, returns) -> float:
    values_new = np.asarray(values_new, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    if values_new.shape != returns.shape:
        raise ValueError("values and returns must have equal lengths")
    d = values_new - returns
    return _mean(d * d)


def minibatch_plan(
    n: int, minibatch_size: int, epochs: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled minibatch index sets for every epoch, in execution order."""
    plan = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, minibatch_size):
            plan.append(perm[start : start + minibatch_size])
    return plan


def loss_graph(
    ac: ActorCritic,
    leaves: dict[str, Tensor],
    mb: Minibatch,
    cfg: PpoConfig,
    lambda_div: float = 0.0,
    ema_policy_params: np.ndarray | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Build the total loss on the tape and report its pieces.

    Terms with a zero coefficient are left out of the graph (their gradient
    contribution would be exactly zero anyway); their diagnostic values are
    still reported.
    """
    logp_t, ent_t = pol.policy_graph(ac, leaves, mb.obs, mb.actions)
    l_ppo_t = ad.clipped_surrogate(logp_t, mb.log_probs_old, mb.advantages, cfg.clip_epsilon)
    loss = l_ppo_t

    kl_val = 0.0
    if lambda_div != 0.0:
        if ema_policy_params is None:
            raise ValueError("lambda_div != 0 requires reference policy parameters")
        # the reference policy is a constant: its log-probs stay off the tape
        ema_logp = pol.logp_batch(ac, mb.obs, mb.actions, policy_params=ema_policy_params)
        kl_t = ad.tmean(ad.add(logp_t, ad.constant(-ema_logp)))
        loss = ad.add(loss, ad.mul(kl_t, -lambda_div))
        kl_val = float(kl_t.data)

    if cfg.alpha_vf != 0.0:
        v_t = pol.values_graph(ac, leaves, mb.obs)
        l_vf_t = ad.tmean(ad.square(ad.add(v_t, ad.constant(-mb.returns))))
        loss = ad.add(loss, ad.mul(l_vf_t, cfg.alpha_vf))
        l_vf_val = float(l_vf_t.data)
    else:
        l_vf_val = value_loss(pol.values_batch(ac, mb.obs), mb.returns)

    if cfg.alpha_ent != 0.0:
        loss = ad.add(loss, ad.mul(ent_t, -cfg.alpha_ent))
    ent_val = float(ent_t.data)

    breakdown = LossBreakdown(
        l_ppo=float(l_ppo_t.data),
        l_vf=l_vf_val,
        entropy=ent_val,
        kl_div=kl_val,
        l_total=float(loss.data),
    )
    return loss, breakdown


def evaluate_loss(
    ac: ActorCritic,
    mb: Minibatch,
    cfg: PpoConfig,
    lambda_div: float = 0.0,
    ema_policy_params: np.ndarray | None = None,
) -> LossBreakdown:
    """Loss values only: the numpy value path, used to score mutation
    candidates. `loss_graph` is the gradient path; this adds the same terms
    in the same order, so for a Gaussian head the two agree bit for bit
    (a categorical head's log-softmax rounds differently, within 1e-12)."""
    logp = pol.logp_batch(ac, mb.obs, mb.actions)
    l_ppo = clipped_surrogate(logp, mb.log_probs_old, mb.advantages, cfg.clip_epsilon)
    loss = l_ppo

    kl_val = 0.0
    if lambda_div != 0.0:
        if ema_policy_params is None:
            raise ValueError("lambda_div != 0 requires reference policy parameters")
        kl_val = _mean(logp - pol.logp_batch(ac, mb.obs, mb.actions, policy_params=ema_policy_params))
        loss = loss + kl_val * -lambda_div

    l_vf = value_loss(pol.values_batch(ac, mb.obs), mb.returns)
    if cfg.alpha_vf != 0.0:
        loss = loss + l_vf * cfg.alpha_vf

    ent = pol.entropy_mean(ac, mb.obs)
    if cfg.alpha_ent != 0.0:
        loss = loss + ent * -cfg.alpha_ent
    return LossBreakdown(l_ppo=l_ppo, l_vf=l_vf, entropy=ent, kl_div=kl_val, l_total=loss)


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
    if not np.all(np.isfinite(grad)):
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
    if cfg.minibatch_size > len(batch):
        raise ValueError("minibatch_size exceeds rollout size")
    diagnostics = []
    for k, idx in enumerate(minibatch_plan(len(batch), cfg.minibatch_size, cfg.epochs, shuffle_rng)):
        try:
            ac, adam_state, breakdown = apply_minibatch_step(ac, batch.minibatch(idx), cfg, adam_state)
        except NumericalError as err:
            raise NumericalError(f"update aborted at minibatch {k}: {err}") from None
        diagnostics.append(breakdown)
    return ac, adam_state, diagnostics
