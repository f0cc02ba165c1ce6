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
        "70dfff9bb32f7de2b369dd8d5bea2a4cd4945ced9b04da9d9fcde70ba416234e",
        "2cd25a2aec20a5d3bfb5a5244224365f2d4addc30e67842f40f08f336d94fd61",
        "ff1a35b81ff96d177d62ec5a0a7d9abc9003c9b19e8d72ed77756adcd63981be",
        "67081665f07a23c654cefc1e73c5454863f1ad2211de3ed16db386e684e6c1f8",
    ),
    "sparse_lander": (
        "6762c8a750824a97d3fcfd82593b5816935c8db394db006dc0bda03f51ae450c",
        "d159855cf2562c577b72178c555d2b65b2079b03ad7413ec318b6d89da2e1785",
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
