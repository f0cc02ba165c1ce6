"""Reverse-mode automatic differentiation over numpy float64 arrays.

A small tape: every op returns a `Tensor` holding its value and a closure
that routes the output gradient to its parents. `Tensor.backward()` walks
the graph once in reverse creation order, which is a reverse topological
order. Only the ops needed by the policy-gradient losses are implemented;
everything is double precision.

Fused ops cover the hot path of a minibatch with one node each: `mlp` (a
whole network), `diag_gaussian_logp`, `log_softmax_rows` and
`mean_entropy`. The backward of `mlp` and `diag_gaussian_logp` repeats the
floating-point operations of the composition it replaces, so fused and
unfused graphs give bit-identical values and gradients. The log-prob and
entropy nodes run plain-numpy functions that `policy.logp_batch` calls
too: `gaussian_logp`, and the categorical `log_softmax` and
`categorical_entropy`. The composite loss is one node too, built by
`ppo.loss_graph` over a plain-numpy function and its VJP.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


class NumericalError(RuntimeError):
    """A computation produced non-finite values."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # sum over leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were size 1 before broadcasting
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_creation = itertools.count()


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "_parents", "_backward", "_order")

    def __init__(self, data, parents: tuple = (), backward=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward
        self._order = next(_creation)  # a node is always created after its parents

    def _accum(self, g: np.ndarray) -> None:
        # never mutate grads in place: vjp outputs may alias each other
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) node into the graph leaves.

        Nodes run in reverse creation order, so each runs after all of its
        consumers, and a node's consumers add into its gradient latest
        first."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        nodes = {id(self): self}
        stack = [self]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in nodes:
                    nodes[id(p)] = p
                    stack.append(p)
        self.grad = np.ones_like(self.data)
        for node in sorted(nodes.values(), key=lambda n: n._order, reverse=True):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A leaf with no gradient tracking (inputs, targets, old log-probs)."""
    return Tensor(x)


# ---- arithmetic --------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)

    def backward(g):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)

    def backward(g):
        a._accum(_unbroadcast(g * b.data, a.data.shape))
        b._accum(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, (a, b), backward)


# ---- elementwise functions ---------------------------------------------


def square(a) -> Tensor:
    a = _ensure(a)

    def backward(g):
        a._accum(g * 2.0 * a.data)

    return Tensor(a.data * a.data, (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through only inside the interval."""
    a = _ensure(a)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        a._accum(g * inside)

    return Tensor(np.clip(a.data, lo, hi), (a,), backward)


# ---- reductions and indexing -------------------------------------------


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis: int | None = None) -> Tensor:
    a = _ensure(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def gather_rows(a, index: np.ndarray) -> Tensor:
    """Pick one column per row: out[i] = a[i, index[i]]."""
    a = _ensure(a)
    rows = np.arange(a.data.shape[0])

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, index), g)
        a._accum(full)

    return Tensor(a.data[rows, index], (a,), backward)


# ---- fused ops ------------------------------------------------------------


def mlp(x: np.ndarray, layers: list[tuple[Tensor, Tensor]]) -> Tensor:
    """A network of (W, b) layers, tanh between them, as one node: per layer
    `x @ W + b`, then tanh except after the last. The input `x` gets no
    gradient; the VJP repeats those of the per-layer `linear` and `tanh`."""
    hs = [np.asarray(x, dtype=np.float64)]  # each layer's input, then the output
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = hs[-1] @ w.data + b.data
        hs.append(h if i == last else np.tanh(h))

    def backward(g):
        for i in range(last, -1, -1):
            w, b = layers[i]
            b._accum(_unbroadcast(g, b.data.shape))
            w._accum(hs[i].T @ g)
            if i:
                y = hs[i]
                g = (g @ w.data.T) * (1.0 - y * y)

    return Tensor(hs[-1], tuple(t for layer in layers for t in layer), backward)


def gaussian_logp(mean: np.ndarray, log_std: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-row log N(actions | mean, diag(exp(log_std))^2), shape (n,), with
    the `std`, `diff` and `z` that `diag_gaussian_logp`'s VJP reuses.

    `mean` is (n, d) and `log_std` is (d,), already clipped if it should be.
    """
    std = np.exp(log_std)
    diff = actions - mean
    z = diff / std
    return (z * z).sum(axis=1) * -0.5 + (log_std.sum() * -1.0 + (-0.5 * LOG_2PI * log_std.size)), std, diff, z


def diag_gaussian_logp(mean: Tensor, log_std: Tensor, actions: np.ndarray) -> Tensor:
    """`gaussian_logp` as one node."""
    logp, std, diff, z = gaussian_logp(mean.data, log_std.data, actions)

    def backward(g):
        g_z = (g * -0.5)[:, None] * 2.0 * z
        g_std = (-g_z * diff / (std * std)).sum(axis=0)
        log_std._accum(g_std * std + g.sum() * -1.0)
        mean._accum(g_z / std * -1.0)

    return Tensor(logp, (mean, log_std), backward)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of (n, k) logits: z - log(sum(exp(z))), with z
    the logits less their row's max, so no exp overflows."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def log_softmax_rows(logits: Tensor) -> Tensor:
    """`log_softmax` as one node."""
    y = log_softmax(logits.data)

    def backward(g):
        logits._accum(g - np.exp(y) * g.sum(axis=1, keepdims=True))

    return Tensor(y, (logits,), backward)


def categorical_entropy(log_p: np.ndarray) -> float:
    """-mean_i sum_j p_ij log p_ij for (n, k) log-probs, with p = exp(log_p)."""
    return float(-(np.exp(log_p) * log_p).sum(axis=1).mean())


def mean_entropy(log_p: Tensor) -> Tensor:
    """`categorical_entropy` as one node."""
    scale = -1.0 / log_p.data.shape[0]

    def backward(g):
        log_p._accum((g * scale) * np.exp(log_p.data) * (log_p.data + 1.0))

    return Tensor(categorical_entropy(log_p.data), (log_p,), backward)
