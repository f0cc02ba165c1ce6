"""Dense feed-forward networks over flat parameter vectors, plus Adam.

Parameters for a whole network live in one ordered float64 vector with an
explicit layout, so they can be tracked, averaged, perturbed, and
serialized as plain arrays. `mlp_vjp` writes a forward pass's VJP straight
into a flat gradient; the tape in `autodiff` sees the vector as one leaf.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor


@dataclass(frozen=True)
class MlpSpec:
    """Shape of a fully-connected net: input, hidden..., output widths.
    Hidden layers are tanh, the output layer is linear."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {self.layer_sizes}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @cached_property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(self.n_layers))

    @cached_property
    def view_plan(self) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
        """Per layer, the W slice, W shape and b slice of `mlp_layout(self)`,
        worked out once, for `layer_views`."""
        entries = mlp_layout(self)
        return tuple((slice(w.offset, w.offset + w.size), w.shape, slice(b.offset, b.offset + b.size))
                     for w, b in zip(entries[::2], entries[1::2]))


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


def _flat_data(data, n: int) -> np.ndarray:
    """`data` as a contiguous float64 vector of `n` values, or a ValueError."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1:  # checked before ascontiguousarray, which makes 0-d data 1-d
        raise ValueError("parameter data must be one-dimensional")
    if len(data) != n:
        raise ValueError(f"layout covers {n} values, data has {len(data)}")
    return np.ascontiguousarray(data)


@dataclass
class ParamVector:
    """Flat, ordered view of network parameters with a named layout."""

    data: np.ndarray
    layout: tuple[LayoutEntry, ...]

    def __post_init__(self):
        self.data = _flat_data(self.data, sum(e.size for e in self.layout))
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

    def with_data(self, data: np.ndarray) -> "ParamVector":
        """This layout over new data; the layout was checked when this vector
        was made, so only the data's rank and length are."""
        new = object.__new__(ParamVector)
        new.data, new.layout = _flat_data(data, len(self.data)), self.layout
        return new


def layer_views(spec: MlpSpec, flat: np.ndarray, offset: int = 0) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-layer (W, b) views into `flat`, for a net whose block starts at
    `offset`; in-place writes to `flat` show through them."""
    if offset:
        flat = flat[offset:]
    return tuple((flat[w].reshape(shape), flat[b]) for w, shape, b in spec.view_plan)


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


# ---- initialization, the forward pass and its VJP -------------------------


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


def forward_activations(layers: tuple[tuple[np.ndarray, np.ndarray], ...], x: np.ndarray) -> list[np.ndarray]:
    """Plain-numpy forward of (W, b) layers, tanh between them, for a
    (batch, n_in) input: each layer's input, then the output."""
    hs = [np.asarray(x, dtype=np.float64)]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = hs[-1] @ w + b
        hs.append(h if i == last else np.tanh(h))
    return hs


def forward_batch(layers: tuple[tuple[np.ndarray, np.ndarray], ...], x: np.ndarray) -> np.ndarray:
    """The output of `forward_activations`."""
    return forward_activations(layers, x)[-1]


def mlp_vjp(layers, activations: list[np.ndarray], g: np.ndarray, grad_layers) -> None:
    """Write the VJP of a `forward_activations` pass, for the output's
    upstream `g`, into `grad_layers`, a flat gradient's (W, b) views (see
    `layer_views`). The input gets none."""
    for i in range(len(layers) - 1, -1, -1):
        g_w, g_b = grad_layers[i]
        g.sum(axis=0, out=g_b)
        np.matmul(activations[i].T, g, out=g_w)
        if i:
            y = activations[i]
            g = (g @ layers[i][0].T) * (1.0 - y * y)


# ---- the tape's parameter leaf ----------------------------------------------


def make_leaves(params: ParamVector) -> Tensor:
    """The one gradient-tracked leaf of a parameter vector, over `params.data` itself."""
    return Tensor(params.data)


def leaf_node(leaves: Tensor, data: np.ndarray, value, fill) -> Tensor:
    """One tape node over the leaf of parameter vector `data`, whose backward
    runs `fill(g, grad)` on a zeroed flat gradient and adds that to the leaf."""
    if leaves.data is not data:
        raise ValueError("the leaf does not hold this parameter vector")

    def backward(g):
        grad = np.zeros(data.size)
        fill(g, grad)
        leaves._accum(grad)

    return Tensor(value, (leaves,), backward)


def collect_leaf_grads(leaves: Tensor, layout: tuple[LayoutEntry, ...]) -> np.ndarray:
    """The leaf's gradient, in layout order; zeros if backward never reached it."""
    if leaves.grad is None:
        return np.zeros(sum(e.size for e in layout), dtype=np.float64)
    return leaves.grad


# ---- Adam -----------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3


def init_adam(n_params: int, lr: float = 1e-3) -> AdamState:
    return AdamState(
        first_moment=np.zeros(n_params, dtype=np.float64),
        second_moment=np.zeros(n_params, dtype=np.float64),
        lr=lr,
    )


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns (new state, new params)."""
    if params.shape != grad.shape or params.shape != state.first_moment.shape:
        raise ValueError("parameter, gradient, and moment shapes must match")
    t = state.step_count + 1
    # the textbook expression's ufuncs in its order, into four arrays
    tmp = np.multiply(grad, 1.0 - ADAM_BETA1)
    m = np.multiply(state.first_moment, ADAM_BETA1)
    np.add(m, tmp, out=m)
    np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
    np.multiply(tmp, grad, out=tmp)
    v = np.multiply(state.second_moment, ADAM_BETA2)
    np.add(v, tmp, out=v)
    new_params = np.divide(v, 1.0 - ADAM_BETA2**t)
    np.sqrt(new_params, out=new_params)
    np.add(new_params, ADAM_EPSILON, out=new_params)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=tmp)
    np.multiply(tmp, state.lr, out=tmp)
    np.divide(tmp, new_params, out=tmp)
    np.subtract(params, tmp, out=new_params)
    return AdamState(m, v, t, state.lr), new_params
