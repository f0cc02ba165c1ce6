"""Shared test helpers: finite-difference oracles and small policy builders."""

import numpy as np
import pytest

from poemrl.policy import ActorCritic, CategoricalHead, DiagGaussianHead


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Independent gradient oracle: central finite differences per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (f(hi) - f(lo)) / (2.0 * h)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """Elementwise relative error with a floor so near-zero entries compare
    at (tight) absolute precision instead of blowing up."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def make_gaussian_ac(obs_dim=2, action_dim=1, hidden=(4,), seed=0) -> ActorCritic:
    return ActorCritic.create(obs_dim, DiagGaussianHead(action_dim), hidden, seed=seed)


def make_categorical_ac(obs_dim=2, n_actions=3, hidden=(4,), seed=0) -> ActorCritic:
    return ActorCritic.create(obs_dim, CategoricalHead(n_actions), hidden, seed=seed)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
