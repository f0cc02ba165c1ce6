"""Pipelines end to end at toy scale: train, checkpoints, evaluate, compare,
tune, and the CLI wiring."""

import csv
import json
import struct

import numpy as np
import pytest

from poemrl import cli, harness
from poemrl.config import load_run_config
from poemrl.envs import make_env
from poemrl.harness import compare, derive_streams, evaluate, load_checkpoint, save_checkpoint, train


def tiny_config(tmp_path, algo="poem", seed=1, env="mountain_car_continuous", extra=None):
    flags = {
        ("run", "env"): env,
        ("run", "algo"): algo,
        ("run", "seed"): str(seed),
        ("run", "total_timesteps"): "256",
        ("run", "n_steps"): "128",
        ("run", "hidden_sizes"): "8",
        ("run", "checkpoint_every"): "0",
        ("run", "out_dir"): str(tmp_path / f"{algo}_s{seed}"),
        ("ppo", "epochs"): "2",
        ("ppo", "minibatch_size"): "32",
    }
    flags.update(extra or {})
    return load_run_config(flag_overrides=flags, environ={})


class TestStreams:
    def test_deterministic_and_decoupled(self):
        s1, s2 = derive_streams(5), derive_streams(5)
        assert s1.param_seed == s2.param_seed
        assert s1.env_seed == s2.env_seed
        assert s1.action_rng.random() == s2.action_rng.random()
        assert derive_streams(6).param_seed != s1.param_seed


class TestCheckpoints:
    def test_roundtrip(self, tmp_path, rng):
        env = make_env("sparse_lander")
        ac = harness.build_actor_critic(env, (8, 4), param_seed=3)
        ac.params.data[:] = rng.normal(size=len(ac.params))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, ac, "sparse_lander", "poem")
        loaded, header = load_checkpoint(path)
        assert np.array_equal(loaded.params.data, ac.params.data)
        assert np.array_equal(loaded.obs_scale, ac.obs_scale)
        assert header["env_id"] == "sparse_lander"
        assert header["algo"] == "poem"
        assert loaded.head == ac.head

    def test_corrupt_file_rejected_and_no_partial_csv(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint at all")
        out = tmp_path / "eval_out"
        with pytest.raises(ValueError):
            evaluate(bad, n_episodes=2, out_dir=out)
        assert not (out / "episodes.csv").exists()

    def test_truncated_params_rejected(self, tmp_path):
        env = make_env("mountain_car_continuous")
        ac = harness.build_actor_critic(env, (4,), param_seed=0)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, ac, "mountain_car_continuous", "ppo")
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)


def rewrite_header(path, edit):
    """Re-write a checkpoint with `edit(header)` applied to its JSON header."""
    raw = path.read_bytes()
    off = len(harness.CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, off)
    header = json.loads(raw[off + 4 : off + 4 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(harness.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + raw[off + 4 + hlen :])


class TestCheckpointHeader:
    def _checkpoint(self, tmp_path):
        ac = harness.build_actor_critic(make_env("mountain_car_continuous"), (4,), param_seed=0)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, ac, "mountain_car_continuous", "ppo")
        return path

    def _evaluate_error(self, path, capsys) -> str:
        rc = cli.main(["evaluate", str(path), "--episodes", "1", "--out", str(path.parent / "eval")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("key", ["env_id", "algo", "obs_dim", "hidden_sizes", "head_kind", "head_dim"])
    def test_missing_key_is_a_one_line_error(self, tmp_path, capsys, key):
        path = self._checkpoint(tmp_path)
        rewrite_header(path, lambda h: h.pop(key))
        err = self._evaluate_error(path, capsys)
        assert str(path) in err and key in err

    def test_unknown_head_kind_is_a_one_line_error(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path)
        rewrite_header(path, lambda h: h.update(head_kind="beta"))
        with pytest.raises(ValueError, match="unknown head_kind 'beta'"):
            load_checkpoint(path)
        err = self._evaluate_error(path, capsys)
        assert str(path) in err and "head_kind" in err

    @pytest.mark.parametrize("key,value", [("head_dim", None), ("obs_dim", "two"), ("hidden_sizes", 4)])
    def test_mistyped_value_is_a_one_line_error(self, tmp_path, capsys, key, value):
        path = self._checkpoint(tmp_path)
        rewrite_header(path, lambda h: h.update({key: value}))
        err = self._evaluate_error(path, capsys)
        assert str(path) in err

    def test_header_that_is_not_an_object_is_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        blob = b"[1, 2]"
        path.write_bytes(harness.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(ValueError, match="lacks env_id"):
            load_checkpoint(path)


class TestTrain:
    def test_budget_of_one_rollout_is_one_update(self, tmp_path):
        cfg = tiny_config(tmp_path, extra={("run", "total_timesteps"): "128"})
        result = train(cfg)
        assert result.n_updates == 1

    def test_bit_identical_checkpoints_for_same_seed(self, tmp_path):
        c1 = tiny_config(tmp_path / "a", algo="poem", seed=3)
        c2 = tiny_config(tmp_path / "b", algo="poem", seed=3)
        r1, r2 = train(c1), train(c2)
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()

    def test_different_seed_changes_checkpoint(self, tmp_path):
        r1 = train(tiny_config(tmp_path / "a", seed=3))
        r2 = train(tiny_config(tmp_path / "b", seed=4))
        assert r1.checkpoint_path.read_bytes() != r2.checkpoint_path.read_bytes()

    def test_ppo_metrics_have_no_mutation_rows(self, tmp_path):
        result = train(tiny_config(tmp_path, algo="ppo"))
        with open(result.metrics_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(row["triggered"] == "" for row in rows)
        assert all(row["d_post"] == "" for row in rows)

    def test_poem_metrics_carry_divergence_columns(self, tmp_path):
        result = train(tiny_config(tmp_path, algo="poem"))
        with open(result.metrics_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(row["d_post"] != "" for row in rows)
        assert set(rows[0].keys()) == set(harness.METRICS_COLUMNS)

    def test_config_snapshot_reproduces_run(self, tmp_path):
        cfg = tiny_config(tmp_path, algo="poem", seed=9)
        result = train(cfg)
        reloaded = load_run_config(str(result.config_path), environ={})
        assert reloaded == cfg

    def test_periodic_checkpoints(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            extra={("run", "total_timesteps"): "512", ("run", "checkpoint_every"): "2"},
        )
        result = train(cfg)
        assert (result.out_dir / "checkpoint_00002.bin").exists()
        assert (result.out_dir / "checkpoint_00004.bin").exists()

    def test_run_many_matches_sequential(self, tmp_path):
        cfgs = [tiny_config(tmp_path / "p", seed=s) for s in (1, 2)]
        seq = [train(tiny_config(tmp_path / "s", seed=s)) for s in (1, 2)]
        par = harness.run_many(cfgs, jobs=2)
        for a, b in zip(seq, par):
            assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()


class TestEvaluate:
    def test_writes_episode_and_step_csvs(self, tmp_path):
        result = train(tiny_config(tmp_path, algo="ppo", seed=2))
        report = evaluate(result.checkpoint_path, n_episodes=3, seed_base=77)
        assert len(report.per_episode_rewards) == 3
        with open(result.out_dir / "episodes.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[0]["algo"] == "ppo"
        assert rows[0]["env"] == "mountain_car_continuous"
        assert [int(r["seed"]) for r in rows] == [77, 78, 79]
        with open(result.out_dir / "steps.csv") as fh:
            step_rows = list(csv.DictReader(fh))
        assert len(step_rows) == int(np.sum(report.per_episode_steps))

    def test_env_mismatch_rejected(self, tmp_path):
        result = train(tiny_config(tmp_path, algo="ppo", seed=2))
        with pytest.raises(ValueError):
            evaluate(result.checkpoint_path, env_id="sparse_lander")


def synthetic_run_set(root, algo, env, run_means, episodes=4):
    """Fabricate evaluated run dirs with known per-episode rewards."""
    for i, mean in enumerate(run_means):
        run_dir = root / f"seed_{i}"
        run_dir.mkdir(parents=True)
        with open(run_dir / "episodes.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(harness.EPISODES_COLUMNS)
            for ep in range(episodes):
                writer.writerow([algo, env, run_dir.name, ep, 100 + ep, repr(mean + 0.1 * ep), 10])


class TestCompare:
    def test_self_comparison_is_null(self, tmp_path):
        root = tmp_path / "set"
        synthetic_run_set(root, "ppo", "mountain_car_continuous", [1.0, 2.0, 3.0])
        rows = compare(root, root, alpha=0.05)
        assert len(rows) == 1
        assert rows[0]["t"] == 0.0
        assert rows[0]["p"] == 1.0
        assert not rows[0]["significant"]

    def test_matches_direct_welch_on_known_numbers(self, tmp_path):
        from poemrl.stats import welch_t_test

        a_means, b_means = [1.0, 2.0, 3.0], [5.0, 6.0, 9.0]
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "sparse_lander", a_means)
        synthetic_run_set(set_b, "poem", "sparse_lander", b_means)
        rows = compare(set_a, set_b, alpha=0.05)
        # per-run means include the deterministic +0.1*ep offsets
        offset = 0.1 * np.arange(4).mean()
        direct = welch_t_test([m + offset for m in a_means], [m + offset for m in b_means])
        assert rows[0]["t"] == pytest.approx(direct.t_statistic, abs=1e-12)
        assert rows[0]["p"] == pytest.approx(direct.p_value, abs=1e-12)

    def test_disjoint_envs_rejected(self, tmp_path):
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "mountain_car_continuous", [1.0, 2.0])
        synthetic_run_set(set_b, "poem", "sparse_lander", [1.0, 2.0])
        with pytest.raises(ValueError, match="only one"):
            compare(set_a, set_b)

    def test_single_run_rejected(self, tmp_path):
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "sparse_lander", [1.0])
        synthetic_run_set(set_b, "poem", "sparse_lander", [1.0, 2.0])
        with pytest.raises(ValueError, match="at least 2"):
            compare(set_a, set_b)

    def test_missing_csvs_rejected_with_path(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError, match="empty"):
            compare(empty, empty)

    def test_writes_table_csv(self, tmp_path):
        root = tmp_path / "set"
        synthetic_run_set(root, "ppo", "mountain_car_continuous", [1.0, 2.0, 3.0])
        out = tmp_path / "table.csv"
        compare(root, root, alpha=0.05, out_path=out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["env"] == "mountain_car_continuous"
        assert {"t", "p", "significant", "mean_poem", "mean_ppo"} <= set(rows[0].keys())


class TestTune:
    def test_single_trial_returns_that_trial(self, tmp_path):
        base = tiny_config(tmp_path, algo="ppo", seed=5)
        from poemrl.config import TuneSpec

        spec = TuneSpec(n_trials=1, trial_timesteps=128, eval_episodes=1, seed=3)
        result = harness.tune(spec, base, tmp_path / "tune")
        assert result.best_trial == 0
        assert np.isfinite(result.best_score)
        assert result.trials_path.exists()

    def test_zero_bound_reproduces_center(self, tmp_path):
        base = tiny_config(tmp_path, algo="poem", seed=6)
        from poemrl.config import TuneSpec

        spec = TuneSpec(n_trials=2, bound=0.0, trial_timesteps=128, eval_episodes=1, seed=3)
        result = harness.tune(spec, base, tmp_path / "tune")
        assert result.best_config.ppo == base.ppo
        assert result.best_config.poem == base.poem

    def test_fixed_master_seed_identical_trials(self, tmp_path):
        base = tiny_config(tmp_path, algo="poem", seed=7)
        from poemrl.config import TuneSpec

        spec = TuneSpec(n_trials=3, trial_timesteps=128, eval_episodes=1, seed=11)
        r1 = harness.tune(spec, base, tmp_path / "t1")
        r2 = harness.tune(spec, base, tmp_path / "t2")
        assert r1.trials_path.read_text() == r2.trials_path.read_text()


class TestCli:
    def test_train_evaluate_compare_roundtrip(self, tmp_path, capsys):
        base = tmp_path / "base.ini"
        base.write_text("[run]\nn_steps = 128\nhidden_sizes = 8\n[ppo]\nepochs = 2\nminibatch_size = 32\n")
        for algo, seed in (("ppo", 1), ("ppo", 2), ("poem", 1), ("poem", 2)):
            rc = cli.main([
                "train",
                "--config", str(base),
                "--env", "mountain_car_continuous",
                "--algo", algo,
                "--seed", str(seed),
                "--timesteps", "128",
                "--out", str(tmp_path / algo / f"seed_{seed}"),
            ])
            assert rc == 0
            rc = cli.main([
                "evaluate",
                str(tmp_path / algo / f"seed_{seed}" / "checkpoint_final.bin"),
                "--episodes", "2",
                "--seed", "500",
            ])
            assert rc == 0
        rc = cli.main([
            "compare", str(tmp_path / "ppo"), str(tmp_path / "poem"),
            "--alpha", "0.05", "--out", str(tmp_path / "table.csv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mountain_car_continuous" in out
        assert (tmp_path / "table.csv").exists()

    def test_cli_needs_n_steps_smaller_than_budget(self, tmp_path, capsys):
        rc = cli.main([
            "train", "--timesteps", "10", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_cli_tune_smoke(self, tmp_path):
        rc = cli.main([
            "tune",
            "--env", "mountain_car_continuous",
            "--algo", "ppo",
            "--trials", "1",
            "--trial-timesteps", "128",
            "--episodes", "1",
            "--out", str(tmp_path / "tune"),
        ])
        assert rc == 0
        assert (tmp_path / "tune" / "best_config.ini").exists()
