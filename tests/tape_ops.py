"""Tape ops and the tape walk that only the tests use.

The fused `mlp` and `diag_gaussian_logp` ops are checked bit for bit
against the compositions they replaced, and the `log_softmax_rows` and
`mean_entropy` nodes against their elementwise compositions to within
rounding; these are the ops of those compositions that the library itself
no longer needs. Each keeps its own finite-difference check in
test_autodiff.py. The loss ops `clipped_surrogate`, `mean_squared_error`
and `mean_difference`, with `autodiff.add` and `mul`, compose the reference
graph that `ppo.loss_graph`'s one composite-loss node is checked against,
bit for bit, in test_ppo.py. `dfs_backward` is the depth-first walk that
`Tensor.backward` replaced, kept as its reference.
"""

import numpy as np

from poemrl.autodiff import Tensor, _ensure, _unbroadcast, add, constant, tsum


def dfs_backward(root: Tensor) -> None:
    """`root.backward()` as a depth-first topological sort: the reference
    order of every node's gradient accumulation."""
    if root.data.size != 1:
        raise ValueError("backward() requires a scalar output")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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


def tanh(a) -> Tensor:
    a = _ensure(a)
    y = np.tanh(a.data)
    out = Tensor(y, (a,))

    def backward(g):
        a._accum(g * (1.0 - y * y))

    out._backward = backward
    return out


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


def exp(a) -> Tensor:
    a = _ensure(a)
    y = np.exp(a.data)

    def backward(g):
        a._accum(g * y)

    return Tensor(y, (a,), backward)


def log(a) -> Tensor:
    a = _ensure(a)

    def backward(g):
        a._accum(g / a.data)

    return Tensor(np.log(a.data), (a,), backward)


def logsumexp_rows(a) -> Tensor:
    """Row-wise log-sum-exp, shape (n, k) -> (n, 1); max-shifted for stability."""
    a = _ensure(a)
    m = a.data.max(axis=1, keepdims=True)  # constant shift, exact gradient anyway
    shifted = add(a, constant(-m))
    return add(log(tsum(exp(shifted), axis=1, keepdims=True)), constant(m))


def clipped_surrogate(logp, logp_old: np.ndarray, adv: np.ndarray, clip_epsilon: float) -> Tensor:
    """PPO's -mean(min(r * adv, clip(r, 1 - eps, 1 + eps) * adv)), where
    r = exp(logp - logp_old). On ties the gradient goes to the unclipped
    branch, as in `minimum`; outside the clip interval the clipped branch
    passes none."""
    logp = _ensure(logp)
    lo, hi = 1.0 - clip_epsilon, 1.0 + clip_epsilon
    ratio = np.exp(logp.data - logp_old)
    inside = (ratio >= lo) & (ratio <= hi)
    unclipped = ratio * adv
    clipped = np.clip(ratio, lo, hi) * adv
    take_unclipped = unclipped <= clipped
    scale = 1.0 / ratio.size

    def backward(g):
        g_min = g * -1.0 * scale
        g_ratio = g_min * take_unclipped * adv + g_min * ~take_unclipped * adv * inside
        logp._accum(g_ratio * ratio)

    return Tensor(np.where(take_unclipped, unclipped, clipped).sum() * scale * -1.0, (logp,), backward)


def mean_squared_error(v, target: np.ndarray) -> Tensor:
    """mean((v - target)^2) for (n,) `v`, as `tmean(square(add(v, -target)))`."""
    v = _ensure(v)
    d = v.data + -target
    scale = 1.0 / d.size

    def backward(g):
        v._accum(g * scale * 2.0 * d)

    return Tensor((d * d).sum() * scale, (v,), backward)


def mean_difference(a, b: np.ndarray) -> Tensor:
    """mean(a - b) for (n,) `a`, as `tmean(add(a, -b))`."""
    a = _ensure(a)
    scale = 1.0 / a.data.size

    def backward(g):
        a._accum(np.broadcast_to(g * scale, a.data.shape).copy())

    return Tensor((a.data + -b).sum() * scale, (a,), backward)
