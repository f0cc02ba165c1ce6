"""Command-line interface: train, evaluate, compare, tune."""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from . import harness
from .autodiff import NumericalError
from .config import ALGOS, TUNE_TRIAL_TIMESTEPS, ConfigError, TuneSpec, load_run_config, parse_float, parse_int


# each config flag sets one [run] key; its text is parsed like a config value
CONFIG_FLAGS = {  # --name: (key, metavar, help)
    "env": ("env", "ID", "environment id"),
    "algo": ("algo", "NAME", "algorithm: " + " or ".join(ALGOS)),
    "seed": ("seed", "N", "run seed"),
    "timesteps": ("total_timesteps", "N", "total training timesteps"),
    "out": ("out_dir", "DIR", "output directory"),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file (key = value sections)")
    for name, (_, metavar, help_text) in CONFIG_FLAGS.items():
        parser.add_argument(f"--{name}", metavar=metavar, help=help_text)


def _flag_overrides(args: argparse.Namespace) -> dict[tuple[str, str], str]:
    return {("run", key): getattr(args, name) for name, (key, _, _) in CONFIG_FLAGS.items()
            if getattr(args, name) is not None}


def _number(args: argparse.Namespace, name: str, parse):
    """A flag that is not a config setting, parsed here rather than by argparse's
    type= so a bad value is one error line naming the flag."""
    raw = getattr(args, name)
    return None if raw is None else parse(raw, "--" + name.replace("_", "-"))


def _default(fn, name: str) -> str:  # a flag's default as the library function's, so it has one owner
    return repr(inspect.signature(fn).parameters[name].default)


def _parse_seed(raw: str, where: str) -> int:
    seed = parse_int(raw, where)
    if seed < 0:  # checked here, so the error names the flag rather than numpy's seeding
        raise ConfigError(f"{where}: expected a non-negative integer, got {raw!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poemrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one seeded run")
    _add_config_flags(p_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint over fixed-seed episodes")
    p_eval.add_argument("checkpoint", help="checkpoint file")
    p_eval.add_argument("--env", metavar="ID", help="env id (defaults to the checkpoint's)")
    p_eval.add_argument("--episodes", default=_default(harness.evaluate, "n_episodes"), metavar="N")
    p_eval.add_argument("--seed", default=_default(harness.evaluate, "seed_base"), metavar="N",
                        help="evaluation seed base")
    p_eval.add_argument("--out", metavar="DIR", help="where to write episodes.csv / steps.csv")
    p_eval.add_argument("--stochastic", action="store_true", help="sample instead of playing the mode")

    p_cmp = sub.add_parser("compare", help="Welch-test two run-set directories (baseline first)")
    p_cmp.add_argument("baseline_dir", help="directory of baseline (ppo) runs")
    p_cmp.add_argument("variant_dir", help="directory of variant (poem) runs")
    p_cmp.add_argument("--alpha", default=_default(harness.compare, "alpha"), metavar="F")
    p_cmp.add_argument("--out", metavar="FILE", help="also write the table as CSV")

    p_tune = sub.add_parser("tune", help="bounded random search around the config's values")
    _add_config_flags(p_tune)
    p_tune.add_argument("--trials", default=str(TuneSpec.n_trials), metavar="N")
    p_tune.add_argument("--bound", default=repr(TuneSpec.bound), metavar="F",
                        help="relative deviation per hyperparameter, below 1")
    p_tune.add_argument("--trial-timesteps", metavar="N",
                        help="timesteps per trial (default: " + ", ".join(
                            f"{steps} on {env}" for env, steps in TUNE_TRIAL_TIMESTEPS.items()) + ")")
    p_tune.add_argument("--episodes", default=str(TuneSpec.eval_episodes), metavar="N",
                        help="evaluation episodes per trial")
    p_tune.add_argument("--tune-seed", default=str(TuneSpec.seed), metavar="N",
                        help="master seed for the trial sampler")
    return parser


def _run(args: argparse.Namespace) -> None:
    """Run one parsed command; `main` turns its errors into one line."""
    if args.command == "train":
        config = load_run_config(args.config, _flag_overrides(args))
        result = harness.train(config)
        print(f"trained {config.algo} on {config.env_id} for {config.total_timesteps} steps")
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"metrics:    {result.metrics_path}")
    elif args.command == "evaluate":
        report = harness.evaluate(
            args.checkpoint,
            env_id=args.env,
            n_episodes=_number(args, "episodes", parse_int),
            seed_base=_number(args, "seed", _parse_seed),
            deterministic=not args.stochastic,
            out_dir=args.out,
        )
        print(f"episodes: {len(report.per_episode_rewards)}  "
              f"mean reward: {report.mean:.2f}  std: {report.std:.2f}")
    elif args.command == "compare":
        rows = harness.compare(args.baseline_dir, args.variant_dir,
                               _number(args, "alpha", parse_float), args.out)
        print(harness.format_comparison(rows))
    elif args.command == "tune":
        config = load_run_config(args.config, _flag_overrides(args))
        spec = TuneSpec(
            n_trials=_number(args, "trials", parse_int),
            bound=_number(args, "bound", parse_float),
            trial_timesteps=_number(args, "trial_timesteps", parse_int),
            eval_episodes=_number(args, "episodes", parse_int),
            seed=_number(args, "tune_seed", _parse_seed),
        )
        out_dir = args.out or "tune_out"
        result = harness.tune(spec, config, out_dir)
        print(f"best trial: {result.best_trial}  score: {result.best_score:.2f}")
        print(f"best config: {out_dir}/best_config.ini")
        print(f"trials log:  {result.trials_path}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite result is one error line, not a warning per op
            _run(args)
    except (ConfigError, MemoryError, NumericalError, OSError, ValueError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
