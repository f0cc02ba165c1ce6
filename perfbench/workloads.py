"""The benchmark's workloads.

Each workload builds its inputs from the seed (config overrides, or
checkpoint files), makes one timed call into poemrl's public API per
repeat, and checks that call's outputs. A repeat with the same inputs must
reproduce the same digest and counters, so the check also returns them.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from poemrl import config, envs, harness

# training budget of one timed call, in updates of the default 512-step rollout
TRAIN_UPDATES = 20
EVAL_EPISODES = 15  # the harness default, per checkpoint
EVAL_SEED_BASE = 10_000
LOSS_COLUMNS = ("l_ppo", "l_vf", "entropy", "kl_div", "l_total")
MUTATION_LOSS_COLUMNS = ("l_total_before", "l_total_after")  # empty on untriggered rows


@dataclass
class Outcome:
    """What one timed call did, and whether its outputs were right."""

    steps: int  # environment steps completed
    problems: list[str] = field(default_factory=list)
    # digest and exact counters; every repeat of the same inputs must match
    fingerprint: dict = field(default_factory=dict)
    eval_return: dict | None = None  # deterministic mean return per env


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _nonfinite(rows: list[dict], columns, allow_empty: bool) -> list[str]:
    bad = []
    for i, row in enumerate(rows):
        for col in columns:
            raw = row.get(col) or ""
            if raw == "" and allow_empty:
                continue
            try:
                ok = math.isfinite(float(raw))
            except ValueError:
                ok = False
            if not ok:
                bad.append(f"metrics.csv row {i}: {col}={raw!r}")
    return bad


class TrainWorkload:
    """`harness.train` on a default config, truncated to a few updates."""

    def __init__(self, name: str, env_id: str, algo: str, updates: int = TRAIN_UPDATES):
        self.name, self.env_id, self.algo = name, env_id, algo
        self.updates = updates
        self.operations = updates  # one operation is one update

    def setup(self, seed: int, work: Path) -> config.RunConfig:
        overrides = {("run", "env"): self.env_id, ("run", "algo"): self.algo, ("run", "seed"): str(seed)}
        cfg = config.load_run_config(flag_overrides=overrides, environ={})
        return replace(cfg, total_timesteps=self.updates * cfg.n_steps, out_dir=str(work / "run"))

    def clear(self, cfg: config.RunConfig) -> None:
        shutil.rmtree(cfg.out_dir, ignore_errors=True)

    def call(self, cfg: config.RunConfig) -> harness.TrainResult:
        return harness.train(cfg)

    def check(self, cfg: config.RunConfig, result: harness.TrainResult) -> Outcome:
        out = Outcome(steps=result.n_updates * cfg.n_steps)
        if result.n_updates != self.updates:
            out.problems.append(f"ran {result.n_updates} updates, expected {self.updates}")
        rows = _csv_rows(result.metrics_path)
        per_update = cfg.ppo.epochs * math.ceil(cfg.n_steps / cfg.ppo.minibatch_size)
        if len(rows) != self.updates * per_update:
            out.problems.append(f"metrics.csv has {len(rows)} rows, expected {self.updates * per_update}")
        out.problems += _nonfinite(rows, LOSS_COLUMNS, allow_empty=False)
        out.problems += _nonfinite(rows, MUTATION_LOSS_COLUMNS, allow_empty=True)

        final = result.final_ac.params
        loaded, _ = harness.load_checkpoint(result.checkpoint_path)
        if loaded.params.layout != final.layout or not np.array_equal(loaded.params.data, final.data):
            out.problems.append("checkpoint_final.bin does not round-trip to final_ac")

        out_dir = Path(cfg.out_dir)
        out.fingerprint = {
            "digest": _digest(final.data),
            "metrics_rows": len(rows),
            "mutation_triggers": sum(r["triggered"] == "1" for r in rows),
            "mutation_accepts": sum(r["accepted"] == "1" for r in rows),
            "checkpoint_bytes": sum(p.stat().st_size for p in out_dir.glob("*.bin")),
            "csv_bytes": result.metrics_path.stat().st_size,
        }
        return out


@dataclass(frozen=True)
class EvalInput:
    checkpoint: Path
    seed_base: int
    out_dir: Path


class EvalWorkload:
    """`harness.evaluate` of one untrained checkpoint per environment."""

    env_ids = ("mountain_car_continuous", "sparse_lander")

    def __init__(self, name: str, episodes: int = EVAL_EPISODES):
        self.name = name
        self.episodes = episodes
        self.operations = episodes * len(self.env_ids)  # one operation is one episode

    def setup(self, seed: int, work: Path) -> list[EvalInput]:
        inputs = []
        for env_id in self.env_ids:
            cfg = config.load_run_config(
                flag_overrides={("run", "env"): env_id, ("run", "seed"): str(seed)}, environ={}
            )
            streams = harness.derive_streams(cfg.seed)
            ac = harness.build_actor_critic(
                envs.make_env(env_id), cfg.hidden_sizes, streams.param_seed, cfg.log_std_init
            )
            path = work / f"{env_id}.bin"
            harness.save_checkpoint(path, ac, env_id, cfg.algo)
            inputs.append(EvalInput(path, EVAL_SEED_BASE + 1000 * seed, work / f"eval_{env_id}"))
        return inputs

    def clear(self, inputs: list[EvalInput]) -> None:
        for inp in inputs:
            shutil.rmtree(inp.out_dir, ignore_errors=True)

    def call(self, inputs: list[EvalInput]) -> list:
        return [
            harness.evaluate(inp.checkpoint, n_episodes=self.episodes, seed_base=inp.seed_base,
                             out_dir=inp.out_dir)
            for inp in inputs
        ]

    def check(self, inputs: list[EvalInput], reports: list) -> Outcome:
        out = Outcome(steps=int(sum(r.per_episode_steps.sum() for r in reports)))
        arrays, csv_bytes = [], 0
        for env_id, inp, rep in zip(self.env_ids, inputs, reports):
            n_steps = int(rep.per_episode_steps.sum())
            episodes = _csv_rows(inp.out_dir / "episodes.csv")
            steps = _csv_rows(inp.out_dir / "steps.csv")
            if not len(episodes) == len(rep.per_episode_rewards) == self.episodes:
                out.problems.append(f"{env_id}: episodes.csv has {len(episodes)} rows, "
                                    f"report has {len(rep.per_episode_rewards)}")
            if not len(steps) == n_steps == sum(len(s) for s in rep.step_series):
                out.problems.append(f"{env_id}: steps.csv has {len(steps)} rows, report has {n_steps} steps")
            arrays += [rep.per_episode_rewards, rep.per_episode_steps]
            csv_bytes += sum((inp.out_dir / f).stat().st_size for f in ("episodes.csv", "steps.csv"))
        out.fingerprint = {
            "digest": _digest(*arrays),
            "env_steps": out.steps,
            "csv_bytes": csv_bytes,
        }
        out.eval_return = {env_id: rep.mean for env_id, rep in zip(self.env_ids, reports)}
        return out


# why each workload was chosen is recorded next to its name in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("mcc_poem_train", "mountain_car_continuous", "poem"),
        EvalWorkload("evaluate_mixed"),
    )
}
