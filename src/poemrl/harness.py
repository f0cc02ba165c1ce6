"""Training, evaluation, comparison, and tuning pipelines.

Every run writes into its own output directory: a config snapshot that can
re-run the experiment, per-minibatch metrics as CSV, periodic and final
checkpoints, and (after evaluation) per-episode and per-step reward CSVs.
Independent runs share no state, so seed sweeps execute in parallel worker
processes.
"""

from __future__ import annotations

import csv
import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import nn, poem, ppo, rollout, stats
from .autodiff import NumericalError
from .config import RunConfig, TuneSpec, config_to_text
from .envs import ContinuousSpace, make_env
from .policy import ActorCritic, CategoricalHead, DiagGaussianHead
from .stats import EvalReport

CHECKPOINT_MAGIC = b"PRLCKPT1"
CHECKPOINT_KEYS = ("env_id", "algo", "obs_dim", "hidden_sizes", "head_kind", "head_dim")
HEAD_KINDS = ("diag_gaussian", "categorical")

METRICS_COLUMNS = [
    "update", "global_step", "minibatch_idx",
    "l_ppo", "l_vf", "entropy", "kl_div", "l_total",
    "d_post", "sigma", "triggered", "accepted", "l_total_before", "l_total_after",
]
EPISODES_COLUMNS = ["algo", "env", "run_id", "episode", "seed", "total_reward", "steps"]
STEPS_COLUMNS = ["algo", "env", "episode", "step", "cumulative_reward"]


# ---- seeding -------------------------------------------------------------


@dataclass
class RunStreams:
    """All randomness of a run, derived from the single config seed."""

    param_seed: int
    env_seed: int
    action_rng: np.random.Generator
    shuffle_rng: np.random.Generator
    mutation_rng: np.random.Generator


def derive_streams(seed: int) -> RunStreams:
    params, env, actions, shuffle, mutation = np.random.SeedSequence(seed).spawn(5)
    return RunStreams(
        param_seed=int(params.generate_state(1)[0]),
        env_seed=int(env.generate_state(1)[0]),
        action_rng=np.random.default_rng(actions),
        shuffle_rng=np.random.default_rng(shuffle),
        mutation_rng=np.random.default_rng(mutation),
    )


def build_actor_critic(env, hidden_sizes: tuple[int, ...], param_seed: int,
                       log_std_init: float = 0.0) -> ActorCritic:
    space = env.action_space
    if isinstance(space, ContinuousSpace):
        head = DiagGaussianHead(space.dim)
    else:
        head = CategoricalHead(space.n)
    return ActorCritic.create(env.observation_dim, head, hidden_sizes, seed=param_seed,
                              obs_scale=getattr(env, "observation_scale", None),
                              log_std_init=log_std_init)


def validate_compatible(ac: ActorCritic, env) -> None:
    if env.observation_dim != ac.obs_dim():
        raise ValueError(
            f"checkpoint expects {ac.obs_dim()}-dim observations, env has {env.observation_dim}"
        )
    space = env.action_space
    if isinstance(space, ContinuousSpace):
        if not isinstance(ac.head, DiagGaussianHead) or ac.head.action_dim != space.dim:
            raise ValueError("checkpoint head does not match the continuous action space")
    elif not isinstance(ac.head, CategoricalHead) or ac.head.n_actions != space.n:
        raise ValueError("checkpoint head does not match the discrete action space")


# ---- checkpoints -----------------------------------------------------------


def save_checkpoint(path: str | Path, ac: ActorCritic, env_id: str, algo: str) -> None:
    head = ac.head
    header = {
        "env_id": env_id,
        "algo": algo,
        "obs_dim": ac.obs_dim(),
        "hidden_sizes": list(ac.actor_spec.layer_sizes[1:-1]),
        "head_kind": "diag_gaussian" if isinstance(head, DiagGaussianHead) else "categorical",
        "head_dim": head.action_dim if isinstance(head, DiagGaussianHead) else head.n_actions,
        "obs_scale": [float(s) for s in ac.obs_scale],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(nn.params_to_bytes(ac.params))


def load_checkpoint(path: str | Path) -> tuple[ActorCritic, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 4 or not raw.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint file")
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    if len(raw) < off + hlen:
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"{path}: corrupt checkpoint header: {err}") from None
    off += hlen

    missing = [k for k in CHECKPOINT_KEYS if k not in header] if isinstance(header, dict) else CHECKPOINT_KEYS
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    if header["head_kind"] not in HEAD_KINDS:
        raise ValueError(f"{path}: unknown head_kind {header['head_kind']!r}, expected one of {HEAD_KINDS}")
    head_cls = DiagGaussianHead if header["head_kind"] == "diag_gaussian" else CategoricalHead
    try:
        head = head_cls(int(header["head_dim"]))
        ac = ActorCritic.create(
            int(header["obs_dim"]), head, tuple(int(h) for h in header["hidden_sizes"]), seed=0,
            obs_scale=header.get("obs_scale"),
        )
        params = nn.params_from_bytes(raw[off:], ac.params.layout)
    except (TypeError, ValueError) as err:  # a value of the wrong type, or a size that does not fit
        raise ValueError(f"{path}: bad checkpoint: {err}") from None
    return ac.with_params(params.data), header


# ---- training --------------------------------------------------------------


@dataclass
class TrainResult:
    out_dir: Path
    checkpoint_path: Path
    metrics_path: Path
    config_path: Path
    n_updates: int
    final_ac: ActorCritic


def _metrics_row(update: int, global_step: int, k: int, bd: ppo.LossBreakdown,
                 dm: poem.DiversityMetrics | None) -> list:
    row = [update, global_step, k,
           repr(bd.l_ppo), repr(bd.l_vf), repr(bd.entropy), repr(bd.kl_div), repr(bd.l_total)]
    if dm is None:
        row += ["", "", "", "", "", ""]
    else:
        row += [
            repr(dm.d_post),
            "" if dm.sigma_used is None else repr(dm.sigma_used),
            int(dm.mutation_triggered),
            int(dm.mutation_accepted),
            "" if dm.l_total_before is None else repr(dm.l_total_before),
            "" if dm.l_total_after is None else repr(dm.l_total_after),
        ]
    return row


def train(config: RunConfig) -> TrainResult:
    """Run one seeded training run to its timestep budget, persisting
    config snapshot, metrics CSV, and checkpoints."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.ini"
    config_path.write_text(config_to_text(config), encoding="utf-8")
    metrics_path = out_dir / "metrics.csv"
    final_path = out_dir / "checkpoint_final.bin"

    streams = derive_streams(config.seed)
    env = make_env(config.env_id)
    obs = env.reset(seed=streams.env_seed)
    ac = build_actor_critic(env, config.hidden_sizes, streams.param_seed, config.log_std_init)
    adam_state = nn.init_adam(len(ac.params), lr=config.ppo.learning_rate)
    tracker = poem.init_tracker(ac, config.poem.beta)

    rows: list[list] = []
    global_step = 0
    update = 0
    failure: Exception | None = None
    try:
        while global_step < config.total_timesteps:
            batch, obs = rollout.collect(env, ac, config.n_steps, streams.action_rng, obs)
            batch = rollout.compute_gae(batch, config.ppo.gamma, config.ppo.lam)
            if config.algo == "poem":
                ac, tracker, adam_state, diags = poem.poem_update(
                    ac, tracker, batch, config.ppo, config.poem,
                    adam_state, streams.shuffle_rng, streams.mutation_rng,
                )
                per_mb = diags
            else:
                ac, adam_state, breakdowns = ppo.ppo_update(
                    ac, batch, config.ppo, adam_state, streams.shuffle_rng
                )
                per_mb = [(bd, None) for bd in breakdowns]
            global_step += config.n_steps
            update += 1
            for k, (bd, dm) in enumerate(per_mb):
                rows.append(_metrics_row(update, global_step, k, bd, dm))
            if config.checkpoint_every and update % config.checkpoint_every == 0:
                save_checkpoint(out_dir / f"checkpoint_{update:05d}.bin", ac, config.env_id, config.algo)
    except NumericalError as err:
        failure = err

    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        writer.writerows(rows)
    save_checkpoint(final_path, ac, config.env_id, config.algo)
    if failure is not None:
        (out_dir / "failure.txt").write_text(
            f"training stopped after update {update}: {failure}\n", encoding="utf-8"
        )
        raise failure
    return TrainResult(out_dir, final_path, metrics_path, config_path, update, ac)


def _train_worker(config: RunConfig) -> TrainResult:
    result = train(config)
    # the policy itself stays in the checkpoint; keep the IPC payload small
    return replace(result, final_ac=None)


def run_many(configs: list[RunConfig], jobs: int = 1) -> list[TrainResult]:
    """Train independent seeded runs, optionally in parallel processes."""
    if jobs <= 1 or len(configs) == 1:
        return [train(c) for c in configs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
        return list(pool.map(_train_worker, configs))


# ---- evaluation ------------------------------------------------------------


def evaluate(
    checkpoint_path: str | Path,
    env_id: str | None = None,
    n_episodes: int = 15,
    seed_base: int = 10_000,
    deterministic: bool = True,
    out_dir: str | Path | None = None,
) -> EvalReport:
    """Evaluate a checkpoint over fixed-seed episodes and write the
    per-episode and per-step CSVs next to it (no partial files on error)."""
    checkpoint_path = Path(checkpoint_path)
    ac, header = load_checkpoint(checkpoint_path)
    env_id = env_id or header["env_id"]
    validate_compatible(ac, make_env(env_id))

    report = stats.evaluate_policy(env_id, ac, n_episodes, seed_base, deterministic)

    out_dir = checkpoint_path.parent if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = out_dir.name
    algo = header["algo"]
    with open(out_dir / "episodes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODES_COLUMNS)
        for i in range(n_episodes):
            writer.writerow([
                algo, env_id, run_id, i, report.seeds[i],
                repr(float(report.per_episode_rewards[i])), int(report.per_episode_steps[i]),
            ])
    with open(out_dir / "steps.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STEPS_COLUMNS)
        for i, series in enumerate(report.step_series):
            for step, cum in enumerate(series):
                writer.writerow([algo, env_id, i, step, repr(float(cum))])
    return report


# ---- comparison ------------------------------------------------------------


def _read_episode_csvs(run_set_dir: str | Path) -> dict[str, list[float]]:
    """Per-env lists of per-run mean rewards from a directory of run dirs."""
    run_set_dir = Path(run_set_dir)
    paths = sorted(run_set_dir.rglob("episodes.csv"))
    if not paths:
        raise FileNotFoundError(f"no episodes.csv under {run_set_dir}")
    by_env: dict[str, list[float]] = {}
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(EPISODES_COLUMNS) <= set(reader.fieldnames):
                raise ValueError(f"{path}: missing expected columns {EPISODES_COLUMNS}")
            env_rewards: dict[str, list[float]] = {}
            for row in reader:
                try:
                    env_rewards.setdefault(row["env"], []).append(float(row["total_reward"]))
                except (KeyError, TypeError, ValueError):
                    raise ValueError(f"{path}: ragged or malformed row {row!r}") from None
        if not env_rewards:
            raise ValueError(f"{path}: no evaluation episodes")
        for env, rewards in env_rewards.items():
            by_env.setdefault(env, []).append(float(np.mean(rewards)))
    return by_env


def compare(
    baseline_dir: str | Path,
    variant_dir: str | Path,
    alpha: float = 0.05,
    out_path: str | Path | None = None,
) -> list[dict]:
    """Welch-test per env: per-run mean rewards of the variant (second dir)
    against the baseline (first dir). Returns one row dict per env."""
    base = _read_episode_csvs(baseline_dir)
    variant = _read_episode_csvs(variant_dir)
    missing = set(base) ^ set(variant)
    if missing:
        raise ValueError(
            f"envs {sorted(missing)} present in only one of {baseline_dir}, {variant_dir}"
        )
    rows = []
    for env in sorted(base):
        if len(base[env]) < 2 or len(variant[env]) < 2:
            raise ValueError(f"need at least 2 runs per side for env {env}")
        row = stats.compare_runs(variant[env], base[env], alpha)
        rows.append({
            "env": env,
            "t": row.t_statistic,
            "p": row.p_value,
            "significant": row.significant,
            "mean_poem": row.mean_poem,
            "mean_ppo": row.mean_ppo,
            "dof": row.dof,
            "n_poem": row.n_poem,
            "n_ppo": row.n_ppo,
            "alpha": alpha,
        })
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows


def format_comparison(rows: list[dict]) -> str:
    header = f"{'env':<26} {'t':>10} {'p':>10} {'significant?':>13} {'mean_poem':>12} {'mean_ppo':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['env']:<26} {r['t']:>10.4f} {r['p']:>10.4f} "
            f"{('yes' if r['significant'] else 'no'):>13} "
            f"{r['mean_poem']:>12.2f} {r['mean_ppo']:>12.2f}"
        )
    return "\n".join(lines)


# ---- tuning ----------------------------------------------------------------

TUNED_PPO_KEYS = ("learning_rate", "clip_epsilon", "gamma", "lam", "alpha_vf", "alpha_ent")
TUNED_POEM_KEYS = ("beta", "delta", "sigma_min", "sigma_max", "lambda_div")


def _sample_trial_config(base: RunConfig, spec: TuneSpec, rng: np.random.Generator,
                         trial: int, out_root: Path) -> RunConfig:
    def jitter(value: float) -> float:
        return value * float(rng.uniform(1.0 - spec.bound, 1.0 + spec.bound))

    ppo_kwargs = {k: jitter(getattr(base.ppo, k)) for k in TUNED_PPO_KEYS}
    ppo_kwargs["gamma"] = min(ppo_kwargs["gamma"], 1.0)
    ppo_kwargs["lam"] = min(ppo_kwargs["lam"], 1.0)
    ppo_kwargs["clip_epsilon"] = min(ppo_kwargs["clip_epsilon"], 0.99)
    new_ppo = replace(base.ppo, **ppo_kwargs)

    new_poem = base.poem
    if base.algo == "poem":
        poem_kwargs = {k: jitter(getattr(base.poem, k)) for k in TUNED_POEM_KEYS}
        poem_kwargs["beta"] = min(poem_kwargs["beta"], 1.0)
        if poem_kwargs["sigma_min"] > poem_kwargs["sigma_max"]:
            poem_kwargs["sigma_min"], poem_kwargs["sigma_max"] = (
                poem_kwargs["sigma_max"], poem_kwargs["sigma_min"])
        new_poem = replace(base.poem, **poem_kwargs)

    return replace(
        base,
        ppo=new_ppo,
        poem=new_poem,
        total_timesteps=max(spec.trial_timesteps, base.n_steps),
        checkpoint_every=0,
        out_dir=str(out_root / f"trial_{trial:03d}"),
    )


@dataclass
class TuneResult:
    best_config: RunConfig
    best_trial: int
    best_score: float
    trials_path: Path


def tune(spec: TuneSpec, base_config: RunConfig, out_dir: str | Path) -> TuneResult:
    """Uniform random search within +-bound of the base config's values.

    Each trial trains briefly and is scored by mean reward over a short
    deterministic evaluation; failed trials score -inf and the search
    continues. Ties keep the earliest trial.
    """
    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    eval_seed_base = 900_000 + spec.seed

    tuned_keys = TUNED_PPO_KEYS + (TUNED_POEM_KEYS if base_config.algo == "poem" else ())
    rows = []
    best_trial, best_score, best_config = -1, -np.inf, None
    for trial in range(spec.n_trials):
        cfg = _sample_trial_config(base_config, spec, rng, trial, out_root)
        try:
            result = train(cfg)
            report = evaluate(
                result.checkpoint_path,
                n_episodes=spec.eval_episodes,
                seed_base=eval_seed_base,
            )
            score = report.mean
        except Exception as err:  # noqa: BLE001 - a failed trial must not stop the search
            score = -np.inf
            (Path(cfg.out_dir) / "trial_error.txt").write_text(f"{err}\n", encoding="utf-8")
        sampled = {k: getattr(cfg.ppo, k) for k in TUNED_PPO_KEYS}
        if base_config.algo == "poem":
            sampled.update({k: getattr(cfg.poem, k) for k in TUNED_POEM_KEYS})
        rows.append({"trial": trial, "score": score, **sampled})
        if score > best_score:
            best_trial, best_score, best_config = trial, score, cfg

    trials_path = out_root / "trials.csv"
    with open(trials_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["trial", "score", *tuned_keys])
        writer.writeheader()
        writer.writerows(rows)
    if best_config is None:  # every trial failed; fall back to the center
        best_config, best_trial, best_score = base_config, -1, -np.inf
    (out_root / "best_config.ini").write_text(config_to_text(best_config), encoding="utf-8")
    return TuneResult(best_config, best_trial, best_score, trials_path)
