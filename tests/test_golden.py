"""Golden bytes: a fixed-seed POEM run and its evaluation give the same
files across refactors.

A short run on each env covers both action heads and the mutation path.
The variant cases cover scoring paths that no default run takes: four
candidates per trigger, mutating the critic too, a counted entropy term
on both heads, and a value term weighted zero, whose loss is still
reported. The sampled cases evaluate the same checkpoints with the
stochastic policy, one RNG per episode. A change that alters trajectories
on purpose updates these digests and says so in CHANGES.md.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from poemrl import harness
from poemrl.config import load_run_config

GOLDEN_FILES = ("checkpoint_final.bin", "metrics.csv", "episodes.csv", "steps.csv")
GOLDEN_SHA256 = {
    "mountain_car_continuous": (
        "3ad752c840df8ad18c8aef1a0a214f3ff30c6a3fcd909a8db12baae140d4c154",
        "46849c43e72bf446931a4c61c68392c6929d0c62aeade39ab1ffd906874a63db",
        "a5f52930ece634a6779f3ddb2f8cd0988d93611890dd24c71f046c261c2d43da",
        "83e4ab70cb612fb42845e462368d223381bacac0ec2b67d33c8b699d1ebfc749",
    ),
    "sparse_lander": (
        "7f493e84a3ebf2d7e5b22415ff7c31ade8b409901ed67adbe4c2984127dde9c6",
        "770023d4aaee3cc6372095c1e4052d4ed3c0c945e2dd07f57dc453e5e1718122",
        "891ec363bfedfa533f14fe8219e68aefbeb6a12d202e0e990977523d7226fcc8",
        "a6963addf8664b8b6c1509e21753620899f60fb545daef62165f6a772475dd57",
    ),
}


# (env, one config override) -> the digests of that variant's run
VARIANT_SHA256 = {
    ("mountain_car_continuous", ("poem", "n_candidates"), "4"): (
        "4662abbb31c1b2f5f77fbadf46ef5cb42dfbd23b1ba8344c4cc80f946ac98b04",
        "6f9b78f97b9712ff1950336ff8a31851dee43fa6eed013260f1b3b77759e821e",
        "3c4b71eadb4c2278767acdc264716e52cb4f41af24a59a0611b6bb42ac48c60d",
        "d4060ec5a89449e139c8c90249b29cf30f961894c12b68fbae15643124944018",
    ),
    ("sparse_lander", ("poem", "n_candidates"), "4"): (
        "bb923882ddb4caa522559713d7508971b001db31eb53a18e178b2b79993587f7",
        "4e7b3805d7499862aa0e417900125821dab5dbb8985dfa7239b67a66b71d06b8",
        "891ec363bfedfa533f14fe8219e68aefbeb6a12d202e0e990977523d7226fcc8",
        "a6963addf8664b8b6c1509e21753620899f60fb545daef62165f6a772475dd57",
    ),
    ("mountain_car_continuous", ("poem", "mutate_scope"), "actor_and_critic"): (
        "0c47487968d8dec2751d73f3c76d996201b31f7d6f9c7474bade5d5747bb2e22",
        "127c29bb2dff5555dd776ff0e085598571dc3ce2ab21ee95dffc0e2d2ffbb0d3",
        "e48ce4b3084d63a4d6a3692a61e35f921a4391179f60a2fc33cb81e53f59a38a",
        "9d54be3df1755acf08fa2f9d5fb8055964978b9ffe6b4899f8858393c6c57ae4",
    ),
    ("sparse_lander", ("poem", "mutate_scope"), "actor_and_critic"): (
        "0e54266ae9a90726cecdc7aae3786a8d1857373288215d1bbc7e19c2161f1498",
        "f5c5745ff7bba0cab3bc969a7d098c8109fe38ff93a099e40e3e17e6eb6cb5c3",
        "9a7345456f58c735bf7d5d04e09b99c9766506ecb5450cddeb28da23ba3164cc",
        "4b6ddfca8c6676c498183c97d4f068495985a69c3383820088b85ec3d66c6c85",
    ),
    ("mountain_car_continuous", ("ppo", "alpha_ent"), "0.01"): (
        "9f5ef8130a32e166df04cb8c1af2b10d15c019b60125a05f279d4224139c1a39",
        "a58e2e11b6d8f092f249a37f9f5f779871f9b542bb1a4911b9d2e880d9ac565d",
        "0cee619114a24781c9ed7cec9678fc701648e4edd5078493393a13554f3f7190",
        "7dd0bc236b179a376d3b8672744167e32620348f424df69f37156a8af27d1d7f",
    ),
    ("mountain_car_continuous", ("ppo", "alpha_vf"), "0.0"): (
        "72b120ca3756280e0a66c190aa510ea7c98f5f38f9a6d0316a3609103a9a8762",
        "acd9161004c7206fd6f25a67966161e9d593787cab6feedd30bce24bfdddda10",
        "d92a2f1457e2aa89b8ba911fc31ce469fa405db9686acf2a2a9893d0746dd4ab",
        "9a2bc9d7343e424cc1d9cf6a66cb80a58e05e695c60a87aeba7e0e6112c715f4",
    ),
    ("sparse_lander", ("ppo", "alpha_vf"), "0.0"): (
        "ed05a78f9b11c8ba758751a56891373418455943594cdfe531980426dfad0f02",
        "251826bedb0defd16951be114ded598d81274f3b5109aae7933644f9c74dc217",
        "891ec363bfedfa533f14fe8219e68aefbeb6a12d202e0e990977523d7226fcc8",
        "a6963addf8664b8b6c1509e21753620899f60fb545daef62165f6a772475dd57",
    ),
    ("sparse_lander", ("ppo", "alpha_ent"), "0.01"): (
        "a3d563659b9e65ce14df203696b20987fb1ec96258d7d496281509b5f42d1364",
        "d51b0a46771c05a6b60ac6694dd4c50492dec83ad672d4449914c9d9f03b19f2",
        "891ec363bfedfa533f14fe8219e68aefbeb6a12d202e0e990977523d7226fcc8",
        "a6963addf8664b8b6c1509e21753620899f60fb545daef62165f6a772475dd57",
    ),
}


# env -> the digests of episodes.csv and steps.csv from a sampled evaluation
SAMPLED_EVAL_SHA256 = {
    "mountain_car_continuous": (
        "c1de0a7021ede2fb26f74d63cd7fdcb8e300c19ae1f34082ceaeba75efac331c",
        "8e908ff373be352ee1e0b07490f86255a8dcb9c20207f64cfe0ced705686dfc4",
    ),
    "sparse_lander": (
        "c96cac8efa07ffea064d365968db03d8b3fa0685973f92fd994fa88f7fa28c89",
        "4fd3b73365fca6b5e940f3462c0f79c8d9930f53427b80015a2d2dc5218c3693",
    ),
}


def openblas_build() -> str:
    """The bundled OpenBLAS's build string, which names the kernel core it
    picked at run time ("unknown" without that library or symbol). Another
    core may round a matmul differently, and so change every digest."""
    try:
        lib = ctypes.CDLL(str(next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))))
        get_config = lib.scipy_openblas_get_config64_
    except (StopIteration, OSError, AttributeError):
        return "unknown"
    get_config.restype = ctypes.c_char_p
    return get_config().decode("ascii", "replace")


def mismatch(what) -> str:
    return f"{what}: digests pinned on OpenBLAS's SkylakeX core; this OpenBLAS: {openblas_build()}"


def digests(out, names) -> tuple:
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names)


def train_run(tmp_path, env, overrides=None) -> harness.TrainResult:
    """A seed-0, 1,024-step POEM run on `env`."""
    # episodes.csv records the out dir's name as run_id, so the name is fixed
    out = tmp_path / env / "run"
    config = load_run_config(flag_overrides={
        ("run", "env"): env,
        ("run", "algo"): "poem",
        ("run", "seed"): "0",
        ("run", "total_timesteps"): "1024",
        ("run", "checkpoint_every"): "0",
        ("run", "out_dir"): str(out),
        **(overrides or {}),
    }, environ={})
    return harness.train(config)


def run_digests(tmp_path, env, overrides=None) -> dict:
    """Digests of a seed-0, 1,024-step POEM run on `env` and its evaluation."""
    result = train_run(tmp_path, env, overrides)
    harness.evaluate(result.checkpoint_path, n_episodes=2, seed_base=10_000)
    return dict(zip(GOLDEN_FILES, digests(result.out_dir, GOLDEN_FILES)))


@pytest.mark.parametrize("env", sorted(GOLDEN_SHA256))
def test_seed_0_poem_run_and_evaluation_keep_their_bytes(tmp_path, env):
    assert run_digests(tmp_path, env) == dict(zip(GOLDEN_FILES, GOLDEN_SHA256[env])), mismatch(env)


@pytest.mark.parametrize("case", sorted(VARIANT_SHA256), ids=lambda c: f"{c[0]}-{c[1][1]}={c[2]}")
def test_variant_scoring_paths_keep_their_bytes(tmp_path, case):
    env, key, value = case
    assert run_digests(tmp_path, env, {key: value}) == dict(zip(GOLDEN_FILES, VARIANT_SHA256[case])), mismatch(case)


@pytest.mark.parametrize("env", sorted(SAMPLED_EVAL_SHA256))
def test_sampled_evaluation_keeps_its_bytes(tmp_path, env):
    result = train_run(tmp_path, env)
    out = tmp_path / env / "sampled"
    harness.evaluate(result.checkpoint_path, n_episodes=3, seed_base=10_000, deterministic=False, out_dir=out)
    assert digests(out, ("episodes.csv", "steps.csv")) == SAMPLED_EVAL_SHA256[env], mismatch(env)


def test_failure_message_names_the_openblas_core(monkeypatch):
    assert openblas_build().startswith("OpenBLAS ") or openblas_build() == "unknown"

    def missing(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", missing)
    assert mismatch("sparse_lander").endswith("; this OpenBLAS: unknown")
