"""Reverse-mode automatic differentiation over numpy float64 arrays.

A small tape: every op returns a `Tensor` holding its value and a closure
that routes the output gradient to its parents. `Tensor.backward()` walks
the graph once in reverse topological order. Only the ops needed by the
policy-gradient losses are implemented; everything is double precision.

Three fused ops cover the hot path of a minibatch with one node each:
`linear` (matmul plus bias), `diag_gaussian_logp` and `clipped_surrogate`.
Each hand-written backward repeats the floating-point operations of the
elementwise composition it replaces, in the same order, so fused and
unfused graphs give bit-identical values and gradients.
"""

from __future__ import annotations

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


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    def _accum(self, g: np.ndarray) -> None:
        # never mutate grads in place: vjp outputs may alias each other
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) node into the graph leaves."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
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
    out = Tensor(a.data + b.data, (a, b))

    def backward(g):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = Tensor(a.data * b.data, (a, b))

    def backward(g):
        a._accum(_unbroadcast(g * b.data, a.data.shape))
        b._accum(_unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


# ---- elementwise functions ---------------------------------------------


def tanh(a) -> Tensor:
    a = _ensure(a)
    y = np.tanh(a.data)
    out = Tensor(y, (a,))

    def backward(g):
        a._accum(g * (1.0 - y * y))

    out._backward = backward
    return out


def exp(a) -> Tensor:
    a = _ensure(a)
    y = np.exp(a.data)
    out = Tensor(y, (a,))

    def backward(g):
        a._accum(g * y)

    out._backward = backward
    return out


def log(a) -> Tensor:
    a = _ensure(a)
    out = Tensor(np.log(a.data), (a,))

    def backward(g):
        a._accum(g / a.data)

    out._backward = backward
    return out


def square(a) -> Tensor:
    a = _ensure(a)
    out = Tensor(a.data * a.data, (a,))

    def backward(g):
        a._accum(g * 2.0 * a.data)

    out._backward = backward
    return out


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through only inside the interval."""
    a = _ensure(a)
    inside = (a.data >= lo) & (a.data <= hi)
    out = Tensor(np.clip(a.data, lo, hi), (a,))

    def backward(g):
        a._accum(g * inside)

    out._backward = backward
    return out


# ---- reductions and indexing -------------------------------------------


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    out._backward = backward
    return out


def tmean(a, axis: int | None = None) -> Tensor:
    a = _ensure(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def gather_rows(a, index: np.ndarray) -> Tensor:
    """Pick one column per row: out[i] = a[i, index[i]]."""
    a = _ensure(a)
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, index], (a,))

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, index), g)
        a._accum(full)

    out._backward = backward
    return out


def logsumexp_rows(a) -> Tensor:
    """Row-wise log-sum-exp, shape (n, k) -> (n, 1); max-shifted for stability."""
    a = _ensure(a)
    m = a.data.max(axis=1, keepdims=True)  # constant shift, exact gradient anyway
    shifted = add(a, constant(-m))
    return add(log(tsum(exp(shifted), axis=1, keepdims=True)), constant(m))


# ---- fused ops ------------------------------------------------------------


def linear(x, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b. A plain-array `x` is an input and gets no gradient."""
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    parents = (x, w, b) if isinstance(x, Tensor) else (w, b)
    out = Tensor(xd @ w.data + b.data, parents)

    def backward(g):
        b._accum(_unbroadcast(g, b.data.shape))
        if isinstance(x, Tensor):
            x._accum(g @ w.data.T)
        w._accum(xd.T @ g)

    out._backward = backward
    return out


def diag_gaussian_logp(mean: Tensor, log_std: Tensor, actions: np.ndarray) -> Tensor:
    """Per-row log N(actions | mean, diag(exp(log_std))^2), shape (n,).

    `mean` is (n, d) and `log_std` is (d,), already clipped if it should be.
    """
    std = np.exp(log_std.data)
    diff = actions - mean.data
    z = diff / std
    d = log_std.data.size
    out = Tensor(
        (z * z).sum(axis=1) * -0.5 + (log_std.data.sum() * -1.0 + (-0.5 * LOG_2PI * d)),
        (mean, log_std),
    )

    def backward(g):
        g_z = (g * -0.5)[:, None] * 2.0 * z
        g_std = (-g_z * diff / (std * std)).sum(axis=0)
        log_std._accum(g_std * std + g.sum() * -1.0)
        mean._accum(g_z / std * -1.0)

    out._backward = backward
    return out


def clipped_surrogate(logp: Tensor, logp_old: np.ndarray, adv: np.ndarray, clip_epsilon: float) -> Tensor:
    """PPO's -mean(min(r * adv, clip(r, 1 - eps, 1 + eps) * adv)), where
    r = exp(logp - logp_old). On ties the gradient goes to the unclipped
    branch, as in `minimum`; outside the clip interval the clipped branch
    passes none."""
    lo, hi = 1.0 - clip_epsilon, 1.0 + clip_epsilon
    ratio = np.exp(logp.data - logp_old)
    inside = (ratio >= lo) & (ratio <= hi)
    unclipped = ratio * adv
    clipped = np.clip(ratio, lo, hi) * adv
    take_unclipped = unclipped <= clipped
    scale = 1.0 / ratio.size
    out = Tensor(np.where(take_unclipped, unclipped, clipped).sum() * scale * -1.0, (logp,))

    def backward(g):
        g_min = g * -1.0 * scale
        g_ratio = g_min * take_unclipped * adv + g_min * ~take_unclipped * adv * inside
        logp._accum(g_ratio * ratio)

    out._backward = backward
    return out
