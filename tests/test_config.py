"""Config layering: defaults, file parsing, env-var and flag overrides."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poemrl.config import (
    ALGOS,
    GLOBAL_DEFAULTS,
    ConfigError,
    RunConfig,
    TuneSpec,
    config_to_text,
    load_run_config,
    parse_config_text,
)
from poemrl.envs import ENV_REGISTRY
from poemrl.poem import MUTATE_SCOPES, TRIGGER_OFF, PoemConfig
from poemrl.ppo import PpoConfig

README = Path(__file__).resolve().parents[1] / "README.md"
ALL_KEYS = {(section, key) for section, keys in GLOBAL_DEFAULTS.items() for key in keys}
FINITE = {"allow_nan": False, "allow_infinity": False}


class TestDefaults:
    def test_global_defaults(self):
        cfg = load_run_config(environ={})
        assert cfg.env_id == "mountain_car_continuous"
        assert cfg.n_steps == 512
        assert cfg.ppo.learning_rate == 3e-4
        assert cfg.ppo.clip_epsilon == 0.2
        assert cfg.ppo.alpha_ent == 0.0
        assert cfg.poem.delta == 0.01
        assert cfg.poem.sigma_max == 0.05
        assert cfg.hidden_sizes == (64, 64)
        assert cfg.log_std_init == -2.0

    def test_dataclass_defaults_are_the_loaded_defaults(self):
        assert RunConfig() == load_run_config(environ={})

    def test_env_specific_budget(self):
        mcc = load_run_config(environ={})
        assert mcc.total_timesteps == 150_000
        lander = load_run_config(flag_overrides={("run", "env"): "sparse_lander"}, environ={})
        assert lander.total_timesteps == 250_000

    def test_ppo_algo_disables_diversity_machinery(self):
        cfg = load_run_config(flag_overrides={("run", "algo"): "ppo"}, environ={})
        assert cfg.poem.lambda_div == 0.0
        assert cfg.poem.delta == TRIGGER_OFF


class TestFileParsing:
    def test_roundtrip(self, tmp_path):
        cfg = load_run_config(
            flag_overrides={("run", "seed"): "7", ("ppo", "learning_rate"): "1e-4"},
            environ={},
        )
        path = tmp_path / "config.ini"
        path.write_text(config_to_text(cfg))
        again = load_run_config(str(path), environ={})
        assert again == cfg

    def test_sections_comments_whitespace(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "# full line comment\n[run]\nseed = 3  # trailing comment\n\n[ppo]\nepochs = 2\n"
        )
        cfg = load_run_config(str(path), environ={})
        assert cfg.seed == 3
        assert cfg.ppo.epochs == 2

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[run]\nseeed = 3\n")

    def test_unknown_section_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[training]\nseed = 3\n")

    def test_key_outside_section_is_an_error(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("seed = 3\n")

    def test_malformed_line_is_an_error(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("[run]\nseed 3\n")

    def test_bad_number_reported_with_key(self):
        with pytest.raises(ConfigError, match="run.seed"):
            load_run_config(flag_overrides={("run", "seed"): "three"}, environ={})

    def test_repeated_key_is_an_error(self):
        with pytest.raises(ConfigError, match=r"^<config>:3: duplicate key 'seed' in \[run\]$"):
            parse_config_text("[run]\nseed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match=r"^<config>:5: duplicate key 'seed' in \[run\]$"):
            parse_config_text("[run]\nseed = 1\n[ppo]\n[run]\nseed = 2\n")

    def test_readme_example_is_the_defaults(self, tmp_path):
        block = next(b for b in README.read_text().split("```") if b.startswith("\n[run]\n"))
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert set(parse_config_text(block)) == ALL_KEYS
        assert load_run_config(str(path), environ={}) == load_run_config(environ={})


class TestOverridePrecedence:
    def test_env_var_beats_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 3\n")
        cfg = load_run_config(str(path), environ={"POEMRL_RUN_SEED": "9"})
        assert cfg.seed == 9

    def test_flag_beats_env_var(self):
        cfg = load_run_config(
            flag_overrides={("run", "seed"): "5"},
            environ={"POEMRL_RUN_SEED": "9"},
        )
        assert cfg.seed == 5

    def test_nested_key_override(self):
        cfg = load_run_config(environ={"POEMRL_PPO_LEARNING_RATE": "1e-5"})
        assert cfg.ppo.learning_rate == 1e-5

    def test_unknown_env_var_is_an_error(self):
        with pytest.raises(ConfigError):
            load_run_config(environ={"POEMRL_RUN_SEEED": "1"})

    def test_env_defaults_follow_overridden_env(self):
        cfg = load_run_config(
            flag_overrides={("run", "env"): "sparse_lander"},
            environ={},
        )
        assert cfg.total_timesteps == 250_000


class TestValidation:
    def test_budget_at_least_one_rollout(self):
        with pytest.raises(ConfigError):
            load_run_config(
                flag_overrides={("run", "total_timesteps"): "100", ("run", "n_steps"): "2048"},
                environ={},
            )

    def test_minibatch_larger_than_rollout_names_both_keys(self):
        with pytest.raises(ConfigError, match=r"ppo.minibatch_size \(64\) exceeds run.n_steps \(32\)"):
            load_run_config(flag_overrides={("run", "n_steps"): "32"}, environ={})
        cfg = load_run_config(flag_overrides={("run", "n_steps"): "64"}, environ={})
        assert cfg.ppo.minibatch_size == cfg.n_steps == 64

    def test_unknown_env_or_algo(self):
        with pytest.raises(ConfigError):
            load_run_config(flag_overrides={("run", "env"): "car_racing"}, environ={})
        with pytest.raises(ConfigError):
            load_run_config(flag_overrides={("run", "algo"): "sac"}, environ={})

    def test_max_grad_norm_none_spelling(self):
        cfg = load_run_config(flag_overrides={("ppo", "max_grad_norm"): "none"}, environ={})
        assert cfg.ppo.max_grad_norm is None

    def test_hidden_sizes_parsing(self):
        cfg = load_run_config(flag_overrides={("run", "hidden_sizes"): "32, 16"}, environ={})
        assert cfg.hidden_sizes == (32, 16)

    @pytest.mark.parametrize("key", [
        ("ppo", "learning_rate"), ("ppo", "alpha_vf"), ("ppo", "alpha_ent"),
        ("ppo", "max_grad_norm"), ("poem", "delta"), ("poem", "lambda_div"),
        ("run", "log_std_init"),
    ])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_number_is_an_error(self, key, raw):
        where = ".".join(key)
        with pytest.raises(ConfigError, match=rf"^{where}: expected a finite number, got '{raw}'$"):
            load_run_config(flag_overrides={key: raw}, environ={})

    def test_negative_seed_is_an_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            load_run_config(flag_overrides={("run", "seed"): "-1"}, environ={})

    def test_trigger_off_delta_stays_legal(self):
        cfg = load_run_config(flag_overrides={("poem", "delta"): "-1e9"}, environ={})
        assert cfg.poem.delta == TRIGGER_OFF

    @pytest.mark.parametrize("raw", ["runs/a#b", " runs/a", "runs/a ", "runs/a\nb", "runs\x85a"])
    def test_text_that_config_ini_cannot_hold_is_an_error(self, raw):
        with pytest.raises(ConfigError, match="run.out_dir: expected one line"):
            load_run_config(flag_overrides={("run", "out_dir"): raw}, environ={})

    @pytest.mark.parametrize("raw", ["runs/seed #3", "runs/a\nb", " runs/a", "runs/a "])
    def test_config_built_in_python_refuses_an_out_dir_config_ini_cannot_hold(self, raw):
        with pytest.raises(ConfigError, match="^run.out_dir: expected one line"):
            RunConfig(out_dir=raw)
        with pytest.raises(ConfigError, match="^run.out_dir: expected one line"):
            replace(RunConfig(), out_dir=raw)

    def test_tune_spec_validation(self):
        with pytest.raises(ConfigError):
            TuneSpec(n_trials=0)
        # from a bound of 1 up, a jittered value could reach 0 or change sign
        for bound in (-0.1, float("nan"), float("inf"), 1.0, 1.9):
            with pytest.raises(ConfigError, match=f"bound must be a finite nonnegative number below 1, got {bound}"):
                TuneSpec(bound=bound)


def config_ini_can_hold(text: str) -> bool:
    return "#" not in text and text == text.strip() and len(text.splitlines()) <= 1


@st.composite
def run_configs(draw):
    """Any RunConfig the validators accept, with values as config text can carry them."""
    unit = st.floats(0.0, 1.0)
    nonneg = st.floats(min_value=0.0, **FINITE)
    positive = st.floats(min_value=0.0, exclude_min=True, **FINITE)
    n_steps = draw(st.integers(1, 10**6))
    ppo = PpoConfig(
        learning_rate=draw(positive),
        clip_epsilon=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        epochs=draw(st.integers(0, 100)),
        minibatch_size=draw(st.integers(1, n_steps)),
        gamma=draw(unit),
        lam=draw(unit),
        alpha_vf=draw(nonneg),
        alpha_ent=draw(nonneg),
        max_grad_norm=draw(st.none() | positive),
    )
    sigma_min, sigma_max = sorted(draw(st.lists(nonneg, min_size=2, max_size=2)))
    poem = PoemConfig(
        beta=draw(unit),
        delta=draw(st.floats(**FINITE)),
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        lambda_div=draw(nonneg),
        n_candidates=draw(st.integers(1, 1000)),
        mutate_scope=draw(st.sampled_from(MUTATE_SCOPES)),
    )
    return RunConfig(
        env_id=draw(st.sampled_from(sorted(ENV_REGISTRY))),
        algo=draw(st.sampled_from(ALGOS)),
        seed=draw(st.integers(0, 2**64)),
        total_timesteps=draw(st.integers(n_steps, 10**12)),
        n_steps=n_steps,
        hidden_sizes=tuple(draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=5))),
        log_std_init=draw(st.floats(**FINITE)),
        checkpoint_every=draw(st.integers(0, 10**6)),
        out_dir=draw(st.text().filter(config_ini_can_hold)),
        ppo=ppo,
        poem=poem,
    )


class TestSnapshotProperties:
    @settings(deadline=None)
    @given(cfg=run_configs())
    def test_snapshot_reads_back_as_the_same_config(self, tmp_path_factory, cfg):
        text = config_to_text(cfg)
        assert set(parse_config_text(text)) == ALL_KEYS  # a repeated key would raise
        path = tmp_path_factory.getbasetemp() / "snapshot.ini"
        path.write_text(text, encoding="utf-8")
        assert load_run_config(str(path), environ={}) == cfg
