"""Reverse-mode automatic differentiation over numpy float64 arrays.

A small tape: every op returns a `Tensor` holding its value and a closure
that routes the output gradient to its parents. `Tensor.backward()` walks
the graph once in reverse creation order, which is a reverse topological
order. Only the ops that the gradient checks compose are implemented;
everything is double precision.

A gradient step's tape is one leaf over the flat parameter vector and one
loss node (`nn.make_leaves`, `ppo.loss_graph`), whose backward runs the
plain-numpy VJPs of the composite loss, the policy head and both networks.
The arithmetic ops here are the ones criterion 1's gradient checks compose.
"""

from __future__ import annotations

import itertools

import numpy as np


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


# ---- elementwise functions and reductions ------------------------------


def square(a) -> Tensor:
    a = _ensure(a)

    def backward(g):
        a._accum(g * 2.0 * a.data)

    return Tensor(a.data * a.data, (a,), backward)


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
