"""Golden bytes: a fixed-seed POEM run and its evaluation give the same
files across refactors.

A short run on each env covers both action heads and the mutation path.
A change that alters trajectories on purpose updates these digests and
says so in CHANGES.md.
"""

import hashlib

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
        "7ad0d0876298fb568737603f28557ae6099f51427e40e148e680bf2c5b76f5f0",
        "138f0548ee2ff91d609841976f4cae2c5b4a0b51fad8f2063a68b9b4ea296765",
        "891ec363bfedfa533f14fe8219e68aefbeb6a12d202e0e990977523d7226fcc8",
        "a6963addf8664b8b6c1509e21753620899f60fb545daef62165f6a772475dd57",
    ),
}


@pytest.mark.parametrize("env", sorted(GOLDEN_SHA256))
def test_seed_0_poem_run_and_evaluation_keep_their_bytes(tmp_path, env):
    # episodes.csv records the out dir's name as run_id, so the name is fixed
    out = tmp_path / env / "run"
    config = load_run_config(flag_overrides={
        ("run", "env"): env,
        ("run", "algo"): "poem",
        ("run", "seed"): "0",
        ("run", "total_timesteps"): "1024",
        ("run", "checkpoint_every"): "0",
        ("run", "out_dir"): str(out),
    }, environ={})
    result = harness.train(config)
    harness.evaluate(result.checkpoint_path, n_episodes=2, seed_base=10_000)
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_FILES)
    assert dict(zip(GOLDEN_FILES, digests)) == dict(zip(GOLDEN_FILES, GOLDEN_SHA256[env]))
