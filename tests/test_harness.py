"""Pipelines end to end at toy scale: train, checkpoints, evaluate, compare,
tune, and the CLI wiring."""

import csv
import ctypes
import io
import json
import math
import re
import struct
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poemrl import cli, harness, stats
from poemrl.config import ALGOS, TUNE_TRIAL_TIMESTEPS, TuneSpec, load_run_config
from poemrl.envs import ENV_REGISTRY, make_env
from poemrl.harness import compare, derive_streams, evaluate, load_checkpoint, save_checkpoint, train
from poemrl.policy import ActorCritic, CategoricalHead, DiagGaussianHead


def blas_threads(_config=None) -> int | None:
    """This process's OpenBLAS thread count; None without numpy's bundled
    OpenBLAS or its thread-count getter and setter."""
    try:
        lib = ctypes.CDLL(str(next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))))
        lib.scipy_openblas_set_num_threads64_  # the setter run_many's workers call
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


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

    @pytest.mark.parametrize("env_id", ["mountain_car_continuous", "sparse_lander"])
    def test_loading_builds_one_network_from_the_file(self, tmp_path, rng, monkeypatch, env_id):
        ac = harness.build_actor_critic(make_env(env_id), (8, 4), param_seed=3)
        ac.params.data[:] = rng.normal(size=len(ac.params))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, ac, env_id, "ppo")

        def unreachable(*args, **kwargs):
            raise AssertionError("a random network was built")

        monkeypatch.setattr(harness.nn, "init_params", unreachable)
        monkeypatch.setattr(harness.ActorCritic, "create", unreachable)
        loaded, _ = load_checkpoint(path)
        assert loaded.params.data.tobytes() == ac.params.data.tobytes()
        assert loaded.params.layout == ac.params.layout
        assert (loaded.actor_spec, loaded.critic_spec, loaded.head) == (ac.actor_spec, ac.critic_spec, ac.head)
        assert np.array_equal(loaded.log_std, ac.log_std) and loaded.n_policy == ac.n_policy

    def test_corrupt_file_rejected_and_no_partial_csv(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint at all")
        out = tmp_path / "eval_out"
        with pytest.raises(ValueError):
            evaluate(bad, n_episodes=2, out_dir=out)
        assert not (out / "episodes.csv").exists()

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        env = make_env("mountain_car_continuous")
        ac = harness.build_actor_critic(env, (4,), param_seed=0)
        old, new = tmp_path / "old.bin", tmp_path / "new.bin"
        save_checkpoint(old, ac, "mountain_car_continuous", "ppo")
        old_bytes = old.read_bytes()

        def fail(params):  # the header is written by now; the parameters never are
            raise OSError("disk full")

        monkeypatch.setattr(harness.nn, "params_to_bytes", fail)
        for path in (old, new):
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(path, ac, "mountain_car_continuous", "ppo")
        assert old.read_bytes() == old_bytes
        assert [p.name for p in tmp_path.iterdir()] == ["old.bin"]

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

    @pytest.mark.parametrize("key,value", [
        ("head_dim", None), ("obs_dim", "two"), ("hidden_sizes", 4),
        ("head_dim", True), ("obs_dim", 2.0), ("hidden_sizes", [4.0]), ("hidden_sizes", [False]),
        ("env_id", ["x"]), ("env_id", 3), ("algo", [1]), ("algo", "sac"),
        ("head_kind", ["categorical"]), ("head_kind", {}),
    ])
    def test_mistyped_value_is_a_one_line_error(self, tmp_path, capsys, key, value):
        path = self._checkpoint(tmp_path)
        rewrite_header(path, lambda h: h.update({key: value}))
        err = self._evaluate_error(path, capsys)
        assert str(path) in err

    @pytest.mark.parametrize("scale", [[2.0], [1.0, 2.0, 3.0], [1.0, float("nan")]])
    def test_obs_scale_that_does_not_fit_is_a_one_line_error(self, tmp_path, capsys, scale):
        path = self._checkpoint(tmp_path)
        rewrite_header(path, lambda h: h.update(obs_scale=scale))
        err = self._evaluate_error(path, capsys)
        assert str(path) in err and "obs_scale" in err

    @pytest.mark.parametrize("key,value", [
        ("hidden_sizes", [10**8, 10**8]), ("obs_dim", 10**12), ("head_dim", 2**62), ("hidden_sizes", [5]),
        ("obs_dim", 0), ("hidden_sizes", [4, -1]),
    ])
    def test_sizes_that_do_not_fit_fail_before_any_allocation(self, tmp_path, capsys, monkeypatch, key, value):
        # the first three sizes are ones no allocator can satisfy
        path = self._checkpoint(tmp_path)
        rewrite_header(path, lambda h: h.update({key: value}))

        def unreachable(*args, **kwargs):
            raise AssertionError("init_params reached")

        monkeypatch.setattr(harness.nn, "init_params", unreachable)
        err = self._evaluate_error(path, capsys)
        assert str(path) in err and "bad checkpoint" in err

    @pytest.mark.parametrize("index", [0, -1], ids=["actor", "critic"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_a_one_line_error(self, tmp_path, capsys, value, index):
        # the critic's last bias is never read by evaluation, and is refused all the same
        path = self._checkpoint(tmp_path)
        ac, _ = load_checkpoint(path)
        ac.params.data[index] = value
        save_checkpoint(path, ac, "mountain_car_continuous", "ppo")
        err = self._evaluate_error(path, capsys)
        assert err == f"error: {path}: bad checkpoint: its parameters hold NaN or infinite values\n"
        assert not (tmp_path / "eval").exists()

    def test_large_finite_parameters_evaluate(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path)
        ac, _ = load_checkpoint(path)
        ac.params.data[:] = 1e300
        save_checkpoint(path, ac, "mountain_car_continuous", "ppo")
        assert cli.main(["evaluate", str(path), "--episodes", "1", "--out", str(tmp_path / "eval")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "eval" / "episodes.csv").exists()

    def test_header_that_is_not_an_object_is_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        blob = b"[1, 2]"
        path.write_bytes(harness.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(ValueError, match="lacks env_id"):
            load_checkpoint(path)


@lru_cache(maxsize=None)
def saved_checkpoint(env_id: str) -> bytes:
    """The bytes of an untrained checkpoint with hidden sizes (4,)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.bin"
        save_checkpoint(path, harness.build_actor_critic(make_env(env_id), (4,), param_seed=0), env_id, "ppo")
        return path.read_bytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=16),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
CHECKPOINT_EDITS = st.one_of(
    st.tuples(st.just("header"), st.sampled_from((*harness.CHECKPOINT_KEYS, "obs_scale")), JSON_VALUES),
    st.tuples(st.just("parameter"), st.integers(0, 10**4),
              st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])),
    st.tuples(st.just("flip"), st.integers(0, 10**4), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


def edited_checkpoint(raw: bytes, edits) -> bytes:
    """Apply each edit in turn: set a header value (while the header still
    parses), write one float64 over a parameter, xor one byte with a mask,
    cut the file short, or append bytes."""
    raw = bytearray(raw)
    off = len(harness.CHECKPOINT_MAGIC)  # then the header length, the header, the count, the values
    n_params = (len(raw) - off - 4 - struct.unpack_from("<I", raw, off)[0] - 4) // 8
    for kind, *args in edits:
        if kind == "header":
            try:
                (hlen,) = struct.unpack_from("<I", raw, off)
                header = json.loads(raw[off + 4 : off + 4 + hlen])
                header[args[0]] = args[1]
            except (struct.error, ValueError, TypeError, IndexError):
                continue
            blob = json.dumps(header).encode("utf-8")
            raw[off:off + 4 + hlen] = struct.pack("<I", len(blob)) + blob
        elif kind == "parameter" and len(raw) >= 8 * n_params:
            at = len(raw) - 8 * (1 + args[0] % n_params)
            raw[at:at + 8] = struct.pack("<d", args[1])
        elif kind == "flip" and raw:
            raw[args[0] % len(raw)] ^= args[1]
        elif kind == "truncate":
            del raw[args[0] % (len(raw) + 1):]
        elif kind == "extend":
            raw += args[0]
    return bytes(raw)


class TestCheckpointFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True)  # the same 100 files on every run
    @given(env_id=st.sampled_from(sorted(ENV_REGISTRY)), edits=st.lists(CHECKPOINT_EDITS, min_size=1, max_size=3))
    def test_edited_checkpoint_evaluates_or_is_one_error_line(self, env_id, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ck.bin"
            path.write_bytes(edited_checkpoint(saved_checkpoint(env_id), edits))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning would be a second line
                rc = cli.main(["evaluate", str(path), "--episodes", "1", "--out", str(Path(tmp) / "eval")])
        if rc == 0:
            assert err.getvalue() == "" and out.getvalue().startswith("episodes: 1 ")
        else:
            assert rc == 2
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


EPISODES_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**4), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("cut_row"), st.integers(0, 10), st.integers(0, 6)),
    st.tuples(st.just("field"), st.integers(0, 10), st.integers(0, 6),
              st.sampled_from(["<oversized>", "\0", "1\0", ""]) | st.text(max_size=8)),
    st.tuples(st.just("reward"), st.integers(0, 10), st.floats()),
)


def edited_episodes(raw: bytes, edits) -> bytes:
    """Apply each edit in turn: xor one byte with a mask, cut the file short,
    cut a row (the header is row 0) after some fields, set one field (to
    131,073 characters for "<oversized>"), or set a row's total_reward to a
    float's repr."""
    raw = bytearray(raw)
    for kind, *args in edits:
        if kind == "flip" and raw:
            raw[args[0] % len(raw)] ^= args[1]
        elif kind == "truncate":
            del raw[args[0] % (len(raw) + 1):]
        elif kind in ("cut_row", "field", "reward"):
            lines = bytes(raw).split(b"\r\n")
            row = lines[args[0] % len(lines)].split(b",")
            if kind == "cut_row":
                del row[args[1]:]
            elif kind == "field":
                row[args[1] % len(row)] = ("1" * 131_073 if args[2] == "<oversized>" else args[2]).encode("utf-8")
            elif len(row) > 5:
                row[5] = repr(args[1]).encode("ascii")
            lines[args[0] % len(lines)] = b",".join(row)
            raw = bytearray(b"\r\n".join(lines))
    return bytes(raw)


class TestCompareFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True)  # the same 100 run sets on every run
    @given(edits=st.lists(st.tuples(st.integers(0, 3), EPISODES_EDITS), min_size=1, max_size=3))
    def test_edited_episodes_compare_or_are_one_error_line(self, edits):
        with tempfile.TemporaryDirectory() as tmp:
            sets = (Path(tmp) / "ppo", Path(tmp) / "poem")
            synthetic_run_set(sets[0], "ppo", "sparse_lander", [1.0, 2.0])
            synthetic_run_set(sets[1], "poem", "sparse_lander", [1.5, 2.5])
            paths = [run_set / f"seed_{i}" / "episodes.csv" for run_set in sets for i in range(2)]
            for index, edit in edits:
                paths[index].write_bytes(edited_episodes(paths[index].read_bytes(), [edit]))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning would be a second line
                rc = cli.main(["compare", str(sets[0]), str(sets[1])])
        if rc == 0:
            assert err.getvalue() == "" and out.getvalue().startswith("env ")
        else:
            assert rc == 2
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


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

    def test_non_empty_out_dir_is_refused(self, tmp_path):
        cfg = tiny_config(tmp_path)
        stale = tmp_path / "poem_s1" / "checkpoint_00010.bin"
        stale.parent.mkdir()
        stale.write_bytes(b"an earlier run")
        with pytest.raises(ValueError, match="poem_s1"):
            train(cfg)
        assert [p.name for p in stale.parent.iterdir()] == [stale.name]

    def test_metrics_rows_are_flushed_as_each_update_ends(self, tmp_path, monkeypatch):
        full = train(tiny_config(tmp_path / "full", extra={("run", "total_timesteps"): "512"}))
        cfg = tiny_config(tmp_path / "cut", extra={("run", "total_timesteps"): "512"})
        path, real, seen = Path(cfg.out_dir) / "metrics.csv", harness.poem.poem_update, []

        def fails_on_update_3(*args):
            if len(seen) == 2:
                seen.append(path.read_bytes())  # what a reader sees while the run is still going
                raise RuntimeError("killed")
            seen.append(None)
            return real(*args)

        monkeypatch.setattr(harness.poem, "poem_update", fails_on_update_3)
        with pytest.raises(RuntimeError, match="killed"):
            train(cfg)
        cut = path.read_bytes()
        assert seen[2] == cut
        rows = list(csv.reader(io.StringIO(cut.decode())))
        per_update = cfg.ppo.epochs * (cfg.n_steps // cfg.ppo.minibatch_size)
        assert rows[0] == harness.METRICS_COLUMNS and len(rows) == 1 + 2 * per_update
        assert [row[0] for row in rows[1:]] == ["1"] * per_update + ["2"] * per_update
        assert full.metrics_path.read_bytes().startswith(cut)

    def test_run_many_matches_sequential(self, tmp_path):
        cfgs = [tiny_config(tmp_path / "p", seed=s) for s in (1, 2)]
        seq = [train(tiny_config(tmp_path / "s", seed=s)) for s in (1, 2)]
        par = harness.run_many(cfgs, jobs=2)
        for a, b in zip(seq, par):
            assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()

    def test_run_many_workers_use_one_blas_thread(self, monkeypatch):
        threads = blas_threads()
        if threads is None:
            pytest.skip("numpy has no bundled OpenBLAS with a thread-count setter")
        monkeypatch.setattr(harness, "_train_worker", blas_threads)  # each worker reports its count
        assert harness.run_many([None, None], jobs=2) == [1, 1]
        assert blas_threads() == threads  # the calling process keeps its own


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

    def test_failed_csv_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        result = train(tiny_config(tmp_path, algo="ppo", seed=2))
        evaluate(result.checkpoint_path, n_episodes=2, seed_base=5)
        before = {p.name: p.read_bytes() for p in result.out_dir.iterdir()}
        good = stats.evaluate_policy("mountain_car_continuous", result.final_ac, 2, seed_base=6)
        # the second episode's reward cannot be written, so episodes.csv fails partway
        bad = replace(good, per_episode_rewards=np.array([1.0, object()], dtype=object))
        monkeypatch.setattr(harness.stats, "evaluate_policy", lambda *args: bad)
        with pytest.raises(TypeError):
            evaluate(result.checkpoint_path, n_episodes=2, seed_base=6)
        with pytest.raises(TypeError):
            evaluate(result.checkpoint_path, n_episodes=2, seed_base=6, out_dir=tmp_path / "fresh")
        assert {p.name: p.read_bytes() for p in result.out_dir.iterdir()} == before
        assert list((tmp_path / "fresh").iterdir()) == []

    @pytest.mark.parametrize("env_id", sorted(ENV_REGISTRY))
    @pytest.mark.parametrize("algo", ALGOS)
    def test_steps_csv_bytes_match_csv_writer(self, tmp_path, algo, env_id):
        # every algo and env id a checkpoint can name, and each cumulative
        # reward's repr, give the bytes csv.writer gives
        ac = harness.build_actor_critic(make_env(env_id), (4,), 0)
        real = stats.evaluate_policy(env_id, ac, 2, seed_base=3)
        series = [np.array([math.nan, math.inf, -math.inf, -0.0, 1e-05, 0.1 + 0.2]), real.step_series[1]]
        harness._write_steps_csv(tmp_path / "steps.csv", algo, env_id, series)

        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(harness.STEPS_COLUMNS)
        for i, cumulative in enumerate(series):
            for step, cum in enumerate(cumulative):
                writer.writerow([algo, env_id, i, step, repr(float(cum))])
        assert (tmp_path / "steps.csv").read_bytes() == want.getvalue().encode("utf-8")

    def test_env_mismatch_rejected(self, tmp_path, capsys):
        result = train(tiny_config(tmp_path, algo="ppo", seed=2))
        with pytest.raises(ValueError):
            evaluate(result.checkpoint_path, env_id="sparse_lander")

        mcc, lander = "mountain_car_continuous", tmp_path / "lander.bin"
        save_checkpoint(lander, harness.build_actor_critic(make_env("sparse_lander"), (4,), 0), "sparse_lander", "ppo")
        wide, discrete = tmp_path / "wide.bin", tmp_path / "discrete.bin"  # both with mountain car's observations
        save_checkpoint(wide, ActorCritic.create(2, DiagGaussianHead(2), (4,)), mcc, "ppo")
        save_checkpoint(discrete, ActorCritic.create(2, CategoricalHead(1), (4,)), mcc, "ppo")
        cases = [  # checkpoint, --env, what the error line names
            (lander, mcc, ["5-dim observations", "has 2"]),
            (result.checkpoint_path, "sparse_lander", ["2-dim observations", "has 5"]),
            (wide, mcc, ["DiagGaussianHead(action_dim=2)", "ContinuousSpace(dim=1,"]),
            (discrete, mcc, ["CategoricalHead(n_actions=1)", "ContinuousSpace(dim=1,"]),
        ]
        for path, env_id, names in cases:
            rc = cli.main(["evaluate", str(path), "--env", env_id, "--episodes", "1", "--out", str(tmp_path / "e")])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert all(name in err for name in names), err
        assert not (tmp_path / "e").exists()


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

    def test_overflowing_mean_reward_names_its_file(self, tmp_path):
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "sparse_lander", [1.0, 2.0])
        synthetic_run_set(set_b, "poem", "sparse_lander", [1.7e308, 1.0])  # finite rewards, an inf sum
        path = set_b / "seed_0" / "episodes.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the mean total_reward of env "
                                             "'sparse_lander' overflows to inf$"):
            compare(set_a, set_b)

    def test_overflowing_welch_statistic_names_its_env(self, tmp_path):
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "sparse_lander", [1.0, 2.0])
        synthetic_run_set(set_b, "poem", "sparse_lander", [1.5e308, -1.5e308], episodes=1)  # finite means
        with pytest.raises(ValueError, match="^env 'sparse_lander': the Welch statistic is not finite$"):
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
        table = compare(root, root, alpha=0.05, out_path=out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["env"] == "mountain_car_continuous"
        columns = ["env", "t", "p", "significant", "mean_poem", "mean_ppo", "dof", "n_poem", "n_ppo", "alpha"]
        assert [list(row) for row in table] == [columns]
        assert out.read_bytes().startswith(",".join(columns).encode() + b"\r\n")


class TestTune:
    def test_single_trial_returns_that_trial(self, tmp_path):
        base = tiny_config(tmp_path, algo="ppo", seed=5)
        spec = TuneSpec(n_trials=1, trial_timesteps=128, eval_episodes=1, seed=3)
        result = harness.tune(spec, base, tmp_path / "tune")
        assert result.best_trial == 0
        assert np.isfinite(result.best_score)
        assert result.trials_path.exists()

    def test_zero_bound_reproduces_center(self, tmp_path):
        base = tiny_config(tmp_path, algo="poem", seed=6)
        spec = TuneSpec(n_trials=2, bound=0.0, trial_timesteps=128, eval_episodes=1, seed=3)
        result = harness.tune(spec, base, tmp_path / "tune")
        assert result.best_config.ppo == base.ppo
        assert result.best_config.poem == base.poem

    def test_fixed_master_seed_identical_trials(self, tmp_path):
        base = tiny_config(tmp_path, algo="poem", seed=7)
        spec = TuneSpec(n_trials=3, trial_timesteps=128, eval_episodes=1, seed=11)
        r1 = harness.tune(spec, base, tmp_path / "t1")
        r2 = harness.tune(spec, base, tmp_path / "t2")
        assert r1.trials_path.read_text() == r2.trials_path.read_text()


class FailingDictWriter(csv.DictWriter):
    """Writes the header and the first row, then fails as a full disk would."""

    def writerows(self, rows):
        self.writerow(rows[0])
        raise OSError("disk full")


class TestAtomicOutputs:
    def test_failed_compare_table_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        root = tmp_path / "set"
        synthetic_run_set(root, "ppo", "mountain_car_continuous", [1.0, 2.0, 3.0])
        old, fresh = tmp_path / "out" / "old.csv", tmp_path / "out" / "fresh.csv"
        old.parent.mkdir()
        old.write_bytes(b"an earlier table")
        monkeypatch.setattr(harness.csv, "DictWriter", FailingDictWriter)
        for path in (old, fresh):
            with pytest.raises(OSError, match="disk full"):
                compare(root, root, out_path=path)
        assert [p.name for p in old.parent.iterdir()] == ["old.csv"]
        assert old.read_bytes() == b"an earlier table"

    def test_failed_trials_csv_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness.csv, "DictWriter", FailingDictWriter)
        spec = TuneSpec(n_trials=2, trial_timesteps=128, eval_episodes=1, seed=3)
        with pytest.raises(OSError, match="disk full"):
            harness.tune(spec, tiny_config(tmp_path, algo="ppo", seed=5), tmp_path / "tune")
        assert sorted(p.name for p in (tmp_path / "tune").iterdir()) == ["trial_000", "trial_001"]

    def test_failed_best_config_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        real, calls = harness.config_to_text, []

        def config_text(config):  # the trial's config.ini, then best_config.ini, which cannot be encoded
            calls.append(config)
            return real(config) + ("\ud800" if len(calls) > 1 else "")

        monkeypatch.setattr(harness, "config_to_text", config_text)
        spec = TuneSpec(n_trials=1, trial_timesteps=128, eval_episodes=1, seed=3)
        with pytest.raises(UnicodeEncodeError):
            harness.tune(spec, tiny_config(tmp_path, algo="ppo", seed=5), tmp_path / "tune")
        assert sorted(p.name for p in (tmp_path / "tune").iterdir()) == ["trial_000", "trials.csv"]


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

    def test_unset_flags_take_the_library_defaults(self, monkeypatch, capsys):
        seen = {}

        def fake_evaluate(checkpoint_path, env_id=None, n_episodes=7, seed_base=123, deterministic=True,
                          out_dir=None):
            seen.update(n_episodes=n_episodes, seed_base=seed_base)
            return stats.EvalReport(np.zeros(1), np.ones(1, dtype=np.int64), 0.0, 0.0, [seed_base])

        def fake_compare(baseline_dir, variant_dir, alpha=0.2, out_path=None):
            seen.update(alpha=alpha)
            return []

        monkeypatch.setattr(harness, "evaluate", fake_evaluate)
        monkeypatch.setattr(harness, "compare", fake_compare)
        assert cli.main(["evaluate", "x.bin"]) == 0
        assert cli.main(["compare", "a", "b"]) == 0
        assert seen == {"n_episodes": 7, "seed_base": 123, "alpha": 0.2}

    def test_cli_needs_n_steps_smaller_than_budget(self, tmp_path, capsys):
        rc = cli.main([
            "train", "--timesteps", "10", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_network_too_large_to_allocate_is_a_one_line_error_and_a_rerun_starts(self, tmp_path, capsys,
                                                                                 monkeypatch):
        init_params = harness.nn.init_params

        def allocate(spec, *args, **kwargs):  # nothing large is allocated: the sizes are refused first
            if spec.n_params > 10**9:
                raise MemoryError(f"Unable to allocate {spec.n_params * 8 / 2**30:.1f} GiB for an array")
            return init_params(spec, *args, **kwargs)

        monkeypatch.setattr(harness.nn, "init_params", allocate)
        monkeypatch.setenv("POEMRL_RUN_HIDDEN_SIZES", "100000,100000")
        monkeypatch.setenv("POEMRL_RUN_N_STEPS", "128")
        out = tmp_path / "run"
        argv = ["train", "--timesteps", "128", "--out", str(out)]
        err = self._one_line_error(argv, capsys)
        assert err == "error: Unable to allocate 74.5 GiB for an array\n"
        assert list(out.iterdir()) == []  # no config.ini, so the same out dir is not refused
        monkeypatch.setenv("POEMRL_RUN_HIDDEN_SIZES", "8")
        assert cli.main(argv) == 0
        assert (out / "config.ini").exists() and (out / "checkpoint_final.bin").exists()

    def test_memory_error_without_a_message_names_its_type(self, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_run_config", out_of_memory)
        assert self._one_line_error(["train"], capsys) == "error: MemoryError\n"

    def test_cli_config_that_is_a_directory_is_a_one_line_error(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err

    def test_cli_checkpoint_that_is_a_directory_is_a_one_line_error(self, tmp_path, capsys):
        rc = cli.main(["evaluate", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err

    @staticmethod
    def _one_line_error(argv, capsys) -> str:
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("flag, value, named", [
        ("--seed", "abc", "run.seed: expected integer, got 'abc'"),
        ("--timesteps", "1e5", "run.total_timesteps: expected integer, got '1e5'"),
        ("--algo", "sac", "unknown algo 'sac'"),
        ("--env", "car_racing", "unknown env 'car_racing'"),
    ])
    def test_cli_bad_config_flag_is_a_one_line_error(self, tmp_path, capsys, flag, value, named):
        err = self._one_line_error(["train", flag, value, "--out", str(tmp_path / "x")], capsys)
        assert named in err

    def test_cli_non_finite_env_var_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POEMRL_PPO_LEARNING_RATE", "nan")
        err = self._one_line_error(["train", "--out", str(tmp_path / "x")], capsys)
        assert "ppo.learning_rate: expected a finite number, got 'nan'" in err

    def test_cli_numerical_failure_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POEMRL_PPO_LEARNING_RATE", "1e300")
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings would be more lines
            err = self._one_line_error(
                ["train", "--env", "mountain_car_continuous", "--timesteps", "2048", "--out", str(out)], capsys)
        assert "error: training stopped after update 0: update aborted at minibatch 0: " in err
        assert (out / "failure.txt").read_text() == err.removeprefix("error: ")
        assert (out / "metrics.csv").exists() and (out / "checkpoint_final.bin").exists()

    def test_cli_non_finite_config_value_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[poem]\ndelta = inf\n")
        err = self._one_line_error(["train", "--config", str(path), "--out", str(tmp_path / "x")],
                                   capsys)
        assert "poem.delta: expected a finite number, got 'inf'" in err

    @pytest.mark.parametrize("alpha, named", [
        pytest.param("2.0", "alpha must be in [0, 1], got 2.0", id="2.0"),
        pytest.param("-0.1", "alpha must be in [0, 1], got -0.1", id="-0.1"),
        pytest.param("nan", "--alpha: expected a finite number, got 'nan'", id="nan"),
    ])
    def test_cli_compare_alpha_outside_unit_interval_is_a_one_line_error(self, tmp_path, capsys,
                                                                        alpha, named):
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "sparse_lander", [1.0, 2.0, 3.0])
        synthetic_run_set(set_b, "poem", "sparse_lander", [1.5, 2.5, 3.0])
        err = self._one_line_error(["compare", str(set_a), str(set_b), "--alpha", alpha], capsys)
        assert named in err

    BAD_FLAG_VALUES = [
        (["evaluate", "x.bin"], "--episodes", "abc", "expected integer"),
        (["evaluate", "x.bin"], "--seed", "1.5", "expected integer"),
        (["compare", "a", "b"], "--alpha", "abc", "expected a finite number"),
        (["tune"], "--trials", "x", "expected integer"),
        (["tune"], "--bound", "inf", "expected a finite number"),
        (["tune"], "--trial-timesteps", "5e4", "expected integer"),
        (["tune"], "--episodes", "two", "expected integer"),
        (["tune"], "--tune-seed", "abc", "expected integer"),
        (["evaluate", "x.bin"], "--seed", "-5", "expected a non-negative integer"),
        (["tune"], "--tune-seed", "-1", "expected a non-negative integer"),
    ]

    @pytest.mark.parametrize("argv, flag, value, named", BAD_FLAG_VALUES, ids=[
        f"{argv[0]}{flag}" + ("-negative" if value.startswith("-") else "")
        for argv, flag, value, _ in BAD_FLAG_VALUES
    ])
    def test_cli_bad_flag_value_is_a_one_line_error(self, tmp_path, capsys, argv, flag, value, named):
        err = self._one_line_error([*argv, flag, value, "--out", str(tmp_path / "x")], capsys)
        assert f"{flag}: {named}, got {value!r}" in err
        assert not (tmp_path / "x").exists()

    def test_cli_minibatch_larger_than_rollout_fails_before_writing(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nn_steps = 32\n[ppo]\nminibatch_size = 64\n")
        out = tmp_path / "run"
        out.mkdir()
        err = self._one_line_error(["train", "--config", str(path), "--out", str(out)], capsys)
        assert "ppo.minibatch_size (64) exceeds run.n_steps (32)" in err
        assert list(out.iterdir()) == []

    def test_cli_tune_bound_of_one_or_more_is_a_one_line_error(self, tmp_path, capsys):
        err = self._one_line_error(["tune", "--bound", "1.5", "--out", str(tmp_path / "x")], capsys)
        assert "bound must be a finite nonnegative number below 1, got 1.5" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("reward", ["nan", "inf", "-inf"])
    def test_cli_compare_non_finite_reward_is_a_one_line_error(self, tmp_path, capsys, reward):
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "sparse_lander", [1.0, 2.0, 3.0])
        synthetic_run_set(set_b, "poem", "sparse_lander", [1.5, float(reward), 3.0])
        err = self._one_line_error(["compare", str(set_a), str(set_b)], capsys)
        assert f"{set_b / 'seed_1' / 'episodes.csv'}: total_reward must be finite, got {reward!r}" in err

    def test_cli_compare_oversized_field_is_a_one_line_error(self, tmp_path, capsys):
        # csv refuses a field longer than its 131,072-character limit
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "sparse_lander", [1.0, 2.0, 3.0])
        synthetic_run_set(set_b, "poem", "sparse_lander", [1.5, 2.5, 3.0])
        path = set_b / "seed_1" / "episodes.csv"
        with open(path, "a", newline="") as fh:
            fh.write("poem,sparse_lander,seed_1,4,104," + "1" * 131_073 + ",10\r\n")
        err = self._one_line_error(["compare", str(set_a), str(set_b)], capsys)
        assert err.startswith(f"error: {path}: field larger than field limit")

    def test_cli_compare_env_name_with_a_newline_is_a_one_line_error(self, tmp_path, capsys):
        # a quoted csv field may hold a newline; the error quotes the name
        set_a, set_b = tmp_path / "a", tmp_path / "b"
        synthetic_run_set(set_a, "ppo", "mars\nlander", [1.0])
        synthetic_run_set(set_b, "poem", "mars\nlander", [1.5])
        err = self._one_line_error(["compare", str(set_a), str(set_b)], capsys)
        assert err == "error: need at least 2 runs per side for env 'mars\\nlander'\n"

    @pytest.mark.parametrize("env", sorted(TUNE_TRIAL_TIMESTEPS))
    def test_tune_budget_is_the_same_from_python_and_the_cli(self, tmp_path, monkeypatch, env):
        budgets = []

        def fake_train(cfg):  # records the trial's budget, then fails the trial
            budgets.append(cfg.total_timesteps)
            Path(cfg.out_dir).mkdir(parents=True)
            raise RuntimeError("not trained")

        monkeypatch.setattr(harness, "train", fake_train)
        base = load_run_config(flag_overrides={("run", "env"): env}, environ={})
        harness.tune(TuneSpec(n_trials=1), base, tmp_path / "library")
        assert cli.main(["tune", "--env", env, "--trials", "1", "--out", str(tmp_path / "cli")]) == 0
        assert budgets == [TUNE_TRIAL_TIMESTEPS[env]] * 2

    @pytest.mark.parametrize("argv", [["train"], ["tune", "--trials", "1", "--trial-timesteps", "512"]],
                             ids=["train", "tune"])
    def test_cli_non_empty_out_dir_is_a_one_line_error(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        out.mkdir()
        (out / "checkpoint_00010.bin").write_bytes(b"an earlier run")
        err = self._one_line_error([*argv, "--timesteps", "512", "--out", str(out)], capsys)
        assert f"out dir {out} is not empty" in err
        assert [p.name for p in out.iterdir()] == ["checkpoint_00010.bin"]

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
