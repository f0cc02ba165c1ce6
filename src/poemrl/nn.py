"""Dense feed-forward networks over flat parameter vectors, plus Adam.

Parameters for a whole network live in one ordered float64 vector with an
explicit layout, so they can be tracked, averaged, perturbed, and
serialized as plain arrays. Gradients come from the tape in `autodiff`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import NumericalError, Tensor

HIDDEN_ACTIVATIONS = ("tanh",)
OUTPUT_ACTIVATIONS = ("linear",)


@dataclass(frozen=True)
class MlpSpec:
    """Shape of a fully-connected net: input, hidden..., output widths."""

    layer_sizes: tuple[int, ...]
    hidden_activation: str = "tanh"
    output_activation: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {self.layer_sizes}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unsupported hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unsupported output activation {self.output_activation!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(self.n_layers))


class LayoutEntry(NamedTuple):
    name: str
    shape: tuple[int, ...]
    offset: int
    size: int


@lru_cache(maxsize=None)
def mlp_layout(spec: MlpSpec, prefix: str = "", offset: int = 0) -> tuple[LayoutEntry, ...]:
    """Contiguous (weight, bias) ranges per layer; weights stored (fan_in, fan_out)."""
    entries = []
    for i in range(spec.n_layers):
        n_in, n_out = spec.layer_sizes[i], spec.layer_sizes[i + 1]
        entries.append(LayoutEntry(f"{prefix}w{i}", (n_in, n_out), offset, n_in * n_out))
        offset += n_in * n_out
        entries.append(LayoutEntry(f"{prefix}b{i}", (n_out,), offset, n_out))
        offset += n_out
    return tuple(entries)


@dataclass
class ParamVector:
    """Flat, ordered view of network parameters with a named layout."""

    data: np.ndarray
    layout: tuple[LayoutEntry, ...]

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 1:
            raise ValueError("parameter data must be one-dimensional")
        expected = sum(e.size for e in self.layout)
        if len(self.data) != expected:
            raise ValueError(f"layout covers {expected} values, data has {len(self.data)}")
        pos = 0
        for e in self.layout:
            if e.offset != pos:
                raise ValueError(f"layout entry {e.name} not contiguous at {pos}")
            pos += e.size

    def __len__(self) -> int:
        return len(self.data)

    def view(self, name: str) -> np.ndarray:
        for e in self.layout:
            if e.name == name:
                return self.data[e.offset : e.offset + e.size].reshape(e.shape)
        raise KeyError(name)

    def views(self) -> dict[str, np.ndarray]:
        return {
            e.name: self.data[e.offset : e.offset + e.size].reshape(e.shape)
            for e in self.layout
        }

    def copy(self) -> "ParamVector":
        return ParamVector(self.data.copy(), self.layout)

    def with_data(self, data: np.ndarray) -> "ParamVector":
        return ParamVector(data, self.layout)


def flatten_views(views: dict[str, np.ndarray], layout: tuple[LayoutEntry, ...]) -> ParamVector:
    """Inverse of ParamVector.views(); round-trips bit-exactly."""
    data = np.empty(sum(e.size for e in layout), dtype=np.float64)
    for e in layout:
        data[e.offset : e.offset + e.size] = np.asarray(views[e.name], dtype=np.float64).ravel()
    return ParamVector(data, layout)


# ---- serialization: <u32 length><little-endian float64 values> ----------


def params_to_bytes(params: ParamVector) -> bytes:
    return struct.pack("<I", len(params.data)) + params.data.astype("<f8").tobytes()


def params_from_bytes(buf: bytes, layout: tuple[LayoutEntry, ...]) -> ParamVector:
    if len(buf) < 4:
        raise ValueError("truncated parameter blob")
    (n,) = struct.unpack_from("<I", buf, 0)
    if len(buf) != 4 + 8 * n:
        raise ValueError(f"parameter blob length mismatch: header says {n} values")
    data = np.frombuffer(buf, dtype="<f8", count=n, offset=4).astype(np.float64)
    return ParamVector(data, layout)


# ---- initialization and forward pass -------------------------------------


def init_params(spec: MlpSpec, seed: int, final_layer_scale: float = 1.0) -> ParamVector:
    """Fan-in scaled uniform weights (limit 1/sqrt(fan_in)), zero biases.

    `final_layer_scale` shrinks the last layer's weights; policy heads use
    0.01 so fresh policies start near-uniform.
    """
    rng = np.random.default_rng(seed)
    layout = mlp_layout(spec)
    data = np.zeros(spec.n_params, dtype=np.float64)
    pv = ParamVector(data, layout)
    for i in range(spec.n_layers):
        n_in, n_out = spec.layer_sizes[i], spec.layer_sizes[i + 1]
        limit = 1.0 / np.sqrt(n_in)
        w = rng.uniform(-limit, limit, size=(n_in, n_out))
        if i == spec.n_layers - 1:
            w *= final_layer_scale
        pv.view(f"w{i}")[:] = w
    return pv


def forward_batch(spec: MlpSpec, views: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Plain-numpy forward for a (batch, n_in) input."""
    h = np.asarray(x, dtype=np.float64)
    last = spec.n_layers - 1
    for i in range(spec.n_layers):
        h = h @ views[f"w{i}"] + views[f"b{i}"]
        if i != last:
            h = np.tanh(h)
    return h


def forward(spec: MlpSpec, params: ParamVector, x) -> np.ndarray:
    """Single-vector forward pass; pure function of (params, x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.layer_sizes[0],):
        raise ValueError(f"input shape {x.shape} does not match input size {spec.layer_sizes[0]}")
    return forward_batch(spec, params.views(), x[None, :])[0]


def make_leaves(params: ParamVector) -> dict[str, Tensor]:
    """One gradient-tracked leaf tensor per layout entry."""
    return {name: Tensor(arr) for name, arr in params.views().items()}


def forward_batch_t(spec: MlpSpec, leaves: dict[str, Tensor], x: np.ndarray, prefix: str = "") -> Tensor:
    """Tape version of forward_batch, differentiable in the leaves (not in x)."""
    h = np.asarray(x, dtype=np.float64)
    last = spec.n_layers - 1
    for i in range(spec.n_layers):
        h = ad.linear(h, leaves[f"{prefix}w{i}"], leaves[f"{prefix}b{i}"])
        if i != last:
            h = ad.tanh(h)
    return h


def collect_leaf_grads(leaves: dict[str, Tensor], layout: tuple[LayoutEntry, ...]) -> np.ndarray:
    """Flatten leaf gradients into layout order; untouched leaves give zeros."""
    out = np.zeros(sum(e.size for e in layout), dtype=np.float64)
    for e in layout:
        g = leaves[e.name].grad
        if g is not None:
            out[e.offset : e.offset + e.size] = g.ravel()
    return out


def gradient(
    spec: MlpSpec,
    params: ParamVector,
    inputs: np.ndarray,
    loss_fn: Callable[[Tensor], Tensor],
) -> ParamVector:
    """d(loss)/d(params) by reverse accumulation.

    `loss_fn` maps the network outputs for `inputs` (a tape tensor of shape
    (batch, n_out)) to a scalar tape tensor, using `autodiff` ops.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    leaves = make_leaves(params)
    out = forward_batch_t(spec, leaves, x)
    loss = loss_fn(out)
    if loss.data.size != 1:
        raise ValueError("loss_fn must return a scalar")
    if not np.isfinite(loss.data):
        raise NumericalError("loss is not finite")
    loss.backward()
    grad = collect_leaf_grads(leaves, params.layout)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient has non-finite entries")
    return ParamVector(grad, params.layout)


# ---- Adam -----------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(n_params: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> AdamState:
    return AdamState(
        first_moment=np.zeros(n_params, dtype=np.float64),
        second_moment=np.zeros(n_params, dtype=np.float64),
        lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon,
    )


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns (new state, new params)."""
    if params.shape != grad.shape or params.shape != state.first_moment.shape:
        raise ValueError("parameter, gradient, and moment shapes must match")
    t = state.step_count + 1
    m = state.beta1 * state.first_moment + (1.0 - state.beta1) * grad
    v = state.beta2 * state.second_moment + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    new_state = AdamState(m, v, t, state.lr, state.beta1, state.beta2, state.epsilon)
    return new_state, new_params
