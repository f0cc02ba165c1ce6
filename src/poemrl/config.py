"""Run configuration: declared settings, config-file parsing, and layering.

Each setting is declared once: the [run], [ppo] and [poem] keys, types and
defaults are the fields of RunConfig, PpoConfig and PoemConfig, in
config.ini order (``env`` sets ``env_id``), and GLOBAL_DEFAULTS is their
text. Per-env defaults (ENV_DEFAULTS) apply only through load_run_config.
Config files are flat UTF-8 ``key = value`` lines under [run], [ppo] and
[poem]; ``#`` starts a comment. Values layer as defaults < config file <
POEMRL_* environment variables < CLI flags, and unknown sections, unknown or
repeated keys and malformed values are hard errors so a typo cannot
silently skew a comparison.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

from .envs import ENV_REGISTRY
from .poem import TRIGGER_OFF, PoemConfig
from .ppo import PpoConfig

ENV_VAR_PREFIX = "POEMRL_"
ALGOS = ("ppo", "poem")

# per-env defaults: training budgets, and a gentler mutation scale on the
# lander (its reward plateau gives parameter noise nothing to find, so large
# perturbations only add variance)
ENV_DEFAULTS: dict[str, dict[tuple[str, str], str]] = {
    "mountain_car_continuous": {("run", "total_timesteps"): "150000"},
    "sparse_lander": {
        ("run", "total_timesteps"): "250000",
        ("poem", "sigma_min"): "0.002",
        ("poem", "sigma_max"): "0.005",
    },
}

# per-env training budget of one tune trial, unless TuneSpec sets one
TUNE_TRIAL_TIMESTEPS: dict[str, int] = {"mountain_car_continuous": 50_000, "sparse_lander": 100_000}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # field order is the [run] order of config.ini
    env_id: str = "mountain_car_continuous"
    algo: str = "poem"
    seed: int = 0
    total_timesteps: int = 150_000
    n_steps: int = 512
    hidden_sizes: tuple[int, ...] = (64, 64)
    log_std_init: float = -2.0
    checkpoint_every: int = 10
    out_dir: str = "runs/run"
    ppo: PpoConfig = field(default_factory=PpoConfig)
    poem: PoemConfig = field(default_factory=PoemConfig)

    def __post_init__(self):
        if self.env_id not in ENV_REGISTRY:
            raise ConfigError(f"unknown env {self.env_id!r}; known: {sorted(ENV_REGISTRY)}")
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}; known: {ALGOS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_steps < 1 or self.total_timesteps < self.n_steps:
            raise ConfigError("need total_timesteps >= n_steps >= 1")
        if self.ppo.minibatch_size > self.n_steps:
            raise ConfigError(f"ppo.minibatch_size ({self.ppo.minibatch_size}) exceeds "
                              f"run.n_steps ({self.n_steps}), the rollout it is drawn from")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0 (0 = final only)")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be positive integers")
        if self.algo == "ppo":
            # plain PPO never uses the diversity term or the mutation trigger
            object.__setattr__(self, "poem", replace(self.poem, lambda_div=0.0, delta=TRIGGER_OFF))


def parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected integer, got {raw!r}") from None


def parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _parse_str(raw: str, where: str) -> str:
    # config.ini must read back what it wrote
    if "#" in raw or raw != raw.strip() or len(raw.splitlines()) > 1:
        raise ConfigError(f"{where}: expected one line without '#' or outer spaces, got {raw!r}")
    return raw


# one parser per field type, each reporting errors as <section>.<key>
_PARSERS = {
    int: parse_int,
    float: parse_float,
    float | None: lambda raw, where: None if raw.lower() in ("none", "off") else parse_float(raw, where),
    tuple[int, ...]: lambda raw, where: tuple(
        parse_int(part.strip(), where) for part in raw.split(",") if part.strip()),
    str: _parse_str,
}


def _format(value) -> str:
    """Config text that the value's parser reads back as the same value."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


_SECTIONS = {"run": RunConfig, "ppo": PpoConfig, "poem": PoemConfig}

# every setting, in config.ini order: (section, key) -> the field it sets;
# ``env`` is the one key not named as its field, and RunConfig's ppo and
# poem fields, which have a default_factory, are sections, not settings
_FIELDS = {
    (section, "env" if f.name == "env_id" else f.name): f
    for section, cls in _SECTIONS.items() for f in fields(cls) if f.default is not MISSING
}

GLOBAL_DEFAULTS: dict[str, dict[str, str]] = {
    section: {key: _format(f.default) for (s, key), f in _FIELDS.items() if s == section} for section in _SECTIONS
}

_PARSER_OF = {
    (section, key): _PARSERS[typing.get_type_hints(_SECTIONS[section])[f.name]]
    for (section, key), f in _FIELDS.items()
}


def parse_config_text(text: str, source: str = "<config>") -> dict[tuple[str, str], str]:
    """Parse the flat key=value format into {(section, key): raw value}."""
    values: dict[tuple[str, str], str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in GLOBAL_DEFAULTS:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in GLOBAL_DEFAULTS[section]:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{section}]")
        values[(section, key)] = value
    return values


def env_var_overrides(environ=None) -> dict[tuple[str, str], str]:
    """POEMRL_<SECTION>_<KEY>=value entries from the environment."""
    environ = os.environ if environ is None else environ
    values: dict[tuple[str, str], str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_VAR_PREFIX):
            continue
        section, _, key = name[len(ENV_VAR_PREFIX) :].lower().partition("_")
        if section not in GLOBAL_DEFAULTS or key not in GLOBAL_DEFAULTS[section]:
            raise ConfigError(f"unrecognized override variable {name}")
        values[(section, key)] = value
    return values


def build_run_config(values: dict[tuple[str, str], str]) -> RunConfig:
    """Typed RunConfig from a fully-layered string map."""
    kwargs: dict[str, dict] = {section: {} for section in _SECTIONS}
    for (section, key), parse in _PARSER_OF.items():
        kwargs[section][_FIELDS[(section, key)].name] = parse(values[(section, key)], f"{section}.{key}")
    try:
        return RunConfig(**kwargs["run"], ppo=PpoConfig(**kwargs["ppo"]),
                         poem=PoemConfig(**kwargs["poem"]))
    except ValueError as err:
        raise ConfigError(str(err)) from None


def load_run_config(
    config_path: str | None = None,
    flag_overrides: dict[tuple[str, str], str] | None = None,
    environ=None,
) -> RunConfig:
    """Layer defaults, optional file, POEMRL_* variables, and CLI flags."""
    values = {(s, k): v for s, section in GLOBAL_DEFAULTS.items() for k, v in section.items()}

    file_values: dict[tuple[str, str], str] = {}
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            file_values = parse_config_text(fh.read(), source=config_path)

    env_values = env_var_overrides(environ)
    flag_values = flag_overrides or {}

    # the effective env id decides env-specific defaults, highest layer wins
    env_id = values[("run", "env")]
    for layer in (file_values, env_values, flag_values):
        env_id = layer.get(("run", "env"), env_id)
    for key, value in ENV_DEFAULTS.get(env_id, {}).items():
        values[key] = value

    values.update(file_values)
    values.update(env_values)
    values.update(flag_values)
    return build_run_config(values)


def config_to_text(config: RunConfig) -> str:
    """Snapshot in the same format load_run_config reads."""
    lines = []
    for section, keys in GLOBAL_DEFAULTS.items():
        settings = config if section == "run" else getattr(config, section)
        lines += [f"[{section}]", *(f"{key} = {_format(getattr(settings, _FIELDS[(section, key)].name))}"
                                    for key in keys), ""]
    return "\n".join(lines)


@dataclass(frozen=True)
class TuneSpec:
    """Bounded random search around the base config's values."""

    n_trials: int = 20
    bound: float = 0.10  # relative deviation per hyperparameter, below 1 so no value changes sign
    trial_timesteps: int | None = None  # None: TUNE_TRIAL_TIMESTEPS of the base config's env
    eval_episodes: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if not 0.0 <= self.bound < 1.0:
            raise ConfigError(f"bound must be a finite nonnegative number below 1, got {self.bound}")
        if (self.trial_timesteps is not None and self.trial_timesteps < 1) or self.eval_episodes < 1:
            raise ConfigError("trial_timesteps and eval_episodes must be >= 1")
