"""Stagnation-triggered evolutionary mutation on top of the clipped-surrogate
update.

Per minibatch: take a gradient step on the composite loss (which subtracts a
diversity bonus, lambda_div * D_KL against an EMA of the policy parameters),
update the EMA, estimate the post-step divergence d_post on the same
minibatch, and if d_post falls below the threshold delta, perturb the policy
parameters with Gaussian noise whose scale interpolates with stagnation
depth; a perturbed candidate replaces the incumbent only if it strictly
lowers the composite loss on that minibatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy as pol
from . import ppo
from .autodiff import NumericalError
from .nn import AdamState
from .policy import ActorCritic
from .ppo import LossBreakdown, PpoConfig
from .rollout import Minibatch, RolloutBatch

MUTATE_SCOPES = ("actor_only", "actor_and_critic")

# d_post can never reach this, so it turns the mutation path off entirely
# (delta <= 0 does not: the sampled KL estimator may go slightly negative).
TRIGGER_OFF = -1e9


@dataclass(frozen=True)
class PoemConfig:
    # field order is the [poem] order of config.ini
    beta: float = 0.99  # EMA smoothing
    delta: float = 0.01  # divergence threshold
    sigma_min: float = 0.005
    sigma_max: float = 0.05
    lambda_div: float = 0.01
    n_candidates: int = 1
    mutate_scope: str = "actor_only"

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.sigma_min <= self.sigma_max:
            raise ValueError("need 0 <= sigma_min <= sigma_max")
        if self.lambda_div < 0.0:
            raise ValueError("lambda_div must be nonnegative")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.mutate_scope not in MUTATE_SCOPES:
            raise ValueError(f"mutate_scope must be one of {MUTATE_SCOPES}")


@dataclass
class EmaTracker:
    """Exponential moving average of the actor+log_std parameter slice."""

    theta_hat: np.ndarray
    beta: float


def init_tracker(ac: ActorCritic, beta: float) -> EmaTracker:
    return EmaTracker(theta_hat=ac.policy_params(), beta=beta)


def ema_update(tracker: EmaTracker, theta: np.ndarray) -> EmaTracker:
    """theta_hat <- beta * theta_hat + (1 - beta) * theta, elementwise."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != tracker.theta_hat.shape:
        raise ValueError(
            f"layout mismatch: tracker has {tracker.theta_hat.shape}, got {theta.shape}"
        )
    return EmaTracker(tracker.beta * tracker.theta_hat + (1.0 - tracker.beta) * theta, tracker.beta)


@dataclass
class DiversityMetrics:
    """Record of one minibatch's stagnation check and mutation outcome."""

    d_post: float
    sigma_used: float | None
    mutation_triggered: bool
    mutation_accepted: bool
    l_total_before: float | None
    l_total_after: float | None


def _logp_pair(ac: ActorCritic, ema_policy_params: np.ndarray, batch) -> tuple[np.ndarray, np.ndarray]:
    """log pi(a_i|s_i) under the current and the EMA policy parameters."""
    return (pol.logp_batch(ac, batch.obs, batch.actions),
            pol.logp_batch(ac, batch.obs, batch.actions, policy_params=ema_policy_params))


def kl_divergence_mc(ac: ActorCritic, ema_policy_params: np.ndarray, batch, return_logps: bool = False):
    """Sampled KL estimate (1/N) sum log[pi(a_i|s_i) / pi_hat(a_i|s_i)] over
    the batch's stored state-action pairs; may be negative. With
    `return_logps`, returns (estimate, log pi, log pi_hat) so that scoring
    can reuse the two arrays."""
    if len(batch.obs) == 0:
        raise ValueError("empty batch")
    lp_cur, lp_ref = _logp_pair(ac, ema_policy_params, batch)
    diff = lp_cur - lp_ref
    if not np.isfinite(diff).all():
        raise NumericalError("non-finite log-probability in divergence estimate")
    d_post = float(diff.mean())
    return (d_post, lp_cur, lp_ref) if return_logps else d_post


def total_loss(
    ac: ActorCritic,
    ema_policy_params: np.ndarray,
    mb: Minibatch,
    ppo_cfg: PpoConfig,
    poem_cfg: PoemConfig,
    **known,
) -> LossBreakdown:
    """Composite loss (surrogate, diversity bonus, value, entropy terms);
    `known` passes precomputed terms on to `ppo.evaluate_loss`."""
    return ppo.evaluate_loss(ac, mb, ppo_cfg, poem_cfg.lambda_div, ema_policy_params, **known)


def mutation_sigma(d_post: float, cfg: PoemConfig) -> float:
    """Noise scale interpolated by stagnation depth, clamped to the band."""
    if cfg.delta == 0.0:
        return cfg.sigma_max
    sigma = cfg.sigma_min + (cfg.sigma_max - cfg.sigma_min) * (cfg.delta - d_post) / cfg.delta
    return float(min(max(sigma, cfg.sigma_min), cfg.sigma_max))


def mutate_and_select(
    ac: ActorCritic,
    ema_policy_params: np.ndarray,
    mb: Minibatch,
    sigma: float,
    ppo_cfg: PpoConfig,
    poem_cfg: PoemConfig,
    rng: np.random.Generator,
    d_post: float,
    logps: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[ActorCritic, DiversityMetrics]:
    """Try Gaussian parameter perturbations; adopt the best candidate only if
    it strictly beats the incumbent's composite loss on this minibatch.

    `logps` are the d_post probe's log-probs under the current and the EMA
    policy. The incumbent is scored from them and one critic pass; each
    candidate is an ActorCritic on a perturbed parameter copy and costs one
    actor pass, plus a critic pass when the critic is mutated too (else the
    incumbent's critic values stand in)."""
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    lp_cur, lp_ref = logps if logps is not None else _logp_pair(ac, ema_policy_params, mb)
    values = pol.values_batch(ac, mb.obs)
    incumbent = total_loss(ac, ema_policy_params, mb, ppo_cfg, poem_cfg,
                           logp=lp_cur, ema_logp=lp_ref, values=values).l_total
    critic_mutated = poem_cfg.mutate_scope == "actor_and_critic"
    scope = slice(0, len(ac.params)) if critic_mutated else ac.policy_slice

    best = None
    best_loss = np.inf
    for _ in range(poem_cfg.n_candidates):
        data = ac.params.data.copy()
        data[scope] += sigma * rng.standard_normal(scope.stop - scope.start)
        candidate = ac.with_params(data)
        loss = total_loss(candidate, ema_policy_params, mb, ppo_cfg, poem_cfg, ema_logp=lp_ref,
                          values=None if critic_mutated else values).l_total
        if not np.isfinite(loss):
            continue  # disqualified; the incumbent is never at risk
        if loss < best_loss:
            best, best_loss = candidate, loss

    accepted = best is not None and best_loss < incumbent
    metrics = DiversityMetrics(
        d_post=d_post,
        sigma_used=float(sigma),
        mutation_triggered=True,
        mutation_accepted=accepted,
        l_total_before=incumbent,
        l_total_after=best_loss if accepted else incumbent,
    )
    return (best if accepted else ac), metrics


def poem_update(
    ac: ActorCritic,
    tracker: EmaTracker,
    batch: RolloutBatch,
    ppo_cfg: PpoConfig,
    poem_cfg: PoemConfig,
    adam_state: AdamState,
    shuffle_rng: np.random.Generator,
    mutation_rng: np.random.Generator,
) -> tuple[ActorCritic, EmaTracker, AdamState, list[tuple[LossBreakdown, DiversityMetrics]]]:
    """Gradient step, EMA update, post-step divergence check, and (when the
    policy has stagnated) mutate-and-select, per minibatch."""
    diagnostics = []
    plan = ppo.minibatch_plan(len(batch), ppo_cfg.minibatch_size, ppo_cfg.epochs, shuffle_rng)
    for k, idx in enumerate(plan):
        mb = batch.minibatch(idx)
        try:
            ac, adam_state, breakdown = ppo.apply_minibatch_step(
                ac, mb, ppo_cfg, adam_state, poem_cfg.lambda_div, tracker.theta_hat
            )
            tracker = ema_update(tracker, ac.params.data[ac.policy_slice])
            d_post, lp_cur, lp_ref = kl_divergence_mc(ac, tracker.theta_hat, mb, return_logps=True)
            if d_post < poem_cfg.delta:
                sigma = mutation_sigma(d_post, poem_cfg)
                ac, metrics = mutate_and_select(
                    ac, tracker.theta_hat, mb, sigma, ppo_cfg, poem_cfg, mutation_rng, d_post, (lp_cur, lp_ref)
                )
            else:
                metrics = DiversityMetrics(d_post, None, False, False, None, None)
        except NumericalError as err:
            raise NumericalError(f"update aborted at minibatch {k}: {err}") from None
        diagnostics.append((breakdown, metrics))
    return ac, tracker, adam_state, diagnostics
