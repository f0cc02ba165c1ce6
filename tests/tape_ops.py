"""Tape ops that only the tests use.

The fused `linear`, `diag_gaussian_logp` and `clipped_surrogate` ops are
checked bit for bit against the elementwise compositions they replaced;
these are the ops of those compositions that the library itself no longer
needs. Each keeps its own finite-difference check in test_autodiff.py.
"""

import numpy as np

from poemrl.autodiff import Tensor, _ensure, _unbroadcast


def div(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = Tensor(a.data / b.data, (a, b))

    def backward(g):
        a._accum(_unbroadcast(g / b.data, a.data.shape))
        b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        a._accum(g @ b.data.T)
        b._accum(a.data.T @ g)

    out._backward = backward
    return out


def minimum(a, b) -> Tensor:
    """Elementwise min; on ties the gradient goes to the first argument."""
    a, b = _ensure(a), _ensure(b)
    take_a = a.data <= b.data
    out = Tensor(np.where(take_a, a.data, b.data), (a, b))

    def backward(g):
        a._accum(_unbroadcast(g * take_a, a.data.shape))
        b._accum(_unbroadcast(g * ~take_a, b.data.shape))

    out._backward = backward
    return out
