"""Tape ops and the tape walk that only the tests use.

A gradient step's tape is one leaf over the flat parameter vector and one
loss node, whose backward runs plain-numpy VJPs (`nn.mlp_vjp` and the
policy head's, in `DiagGaussianHead.logp` and `CategoricalHead.logp`).
The reference composition it is checked against, bit for bit, lives here:
one leaf per layout entry (`entry_leaves`, `collect_entry_grads`), one
`mlp` node per network (`forward_batch_t`), the head's `clip`,
`diag_gaussian_logp`, `log_softmax_rows`, `gather_rows` and `mean_entropy`
nodes (`policy_graph`, `values_graph`), and the loss ops
`clipped_surrogate`, `mean_squared_error` and `mean_difference`, which with
`autodiff.add` and `mul` compose the loss. The fused `mlp` and
`diag_gaussian_logp` are in turn checked bit for bit against the per-op
compositions they replaced, and `log_softmax_rows` and `mean_entropy`
against their elementwise compositions to within rounding, in
test_autodiff.py, with finite-difference checks. `dfs_backward` is the
depth-first walk that `Tensor.backward` replaced, kept as its reference.
"""

import numpy as np

from poemrl import nn
from poemrl import policy as pol
from poemrl.autodiff import Tensor, _ensure, _unbroadcast, add, constant, tsum
from poemrl.policy import categorical_entropy, gaussian_logp, log_softmax


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


# ---- the one-node ops the parameter leaf's loss node replaced ---------------


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through only inside the interval."""
    a = _ensure(a)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        a._accum(g * inside)

    return Tensor(np.clip(a.data, lo, hi), (a,), backward)


def gather_rows(a, index: np.ndarray) -> Tensor:
    """Pick one column per row: out[i] = a[i, index[i]]."""
    a = _ensure(a)
    rows = np.arange(a.data.shape[0])

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, index), g)
        a._accum(full)

    return Tensor(a.data[rows, index], (a,), backward)


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


def diag_gaussian_logp(mean: Tensor, log_std: Tensor, actions: np.ndarray) -> Tensor:
    """`gaussian_logp` as one node."""
    logp, std, diff, z = gaussian_logp(mean.data, log_std.data, actions)

    def backward(g):
        g_z = (g * -0.5)[:, None] * 2.0 * z
        g_std = (-g_z * diff / (std * std)).sum(axis=0)
        log_std._accum(g_std * std + g.sum() * -1.0)
        mean._accum(g_z / std * -1.0)

    return Tensor(logp, (mean, log_std), backward)


def log_softmax_rows(logits: Tensor) -> Tensor:
    """`log_softmax` as one node."""
    y = log_softmax(logits.data)

    def backward(g):
        logits._accum(g - np.exp(y) * g.sum(axis=1, keepdims=True))

    return Tensor(y, (logits,), backward)


def mean_entropy(log_p: Tensor) -> Tensor:
    """`categorical_entropy` as one node."""
    scale = -1.0 / log_p.data.shape[0]

    def backward(g):
        log_p._accum((g * scale) * np.exp(log_p.data) * (log_p.data + 1.0))

    return Tensor(categorical_entropy(log_p.data), (log_p,), backward)


# ---- the reference graph: one leaf per layout entry ---------------------------


def entry_leaves(params: nn.ParamVector) -> dict[str, Tensor]:
    """One gradient-tracked leaf tensor per layout entry."""
    return {e.name: Tensor(params.data[e.offset : e.offset + e.size].reshape(e.shape)) for e in params.layout}


def collect_entry_grads(leaves: dict[str, Tensor], layout: tuple[nn.LayoutEntry, ...]) -> np.ndarray:
    """Flatten leaf gradients into layout order; untouched leaves give zeros."""
    out = np.zeros(sum(e.size for e in layout), dtype=np.float64)
    for e in layout:
        g = leaves[e.name].grad
        if g is not None:
            out[e.offset : e.offset + e.size] = g.ravel()
    return out


def forward_batch_t(spec: nn.MlpSpec, leaves: dict[str, Tensor], x: np.ndarray, prefix: str = "") -> Tensor:
    """Tape version of forward_batch, differentiable in the leaves (not in x)."""
    return mlp(x, [(leaves[f"{prefix}w{i}"], leaves[f"{prefix}b{i}"]) for i in range(spec.n_layers)])


def policy_graph(ac: pol.ActorCritic, leaves: dict[str, Tensor], obs: np.ndarray,
                 actions: np.ndarray) -> tuple[Tensor, Tensor]:
    """Build (per-sample log-prob (n,), mean entropy scalar) on the tape."""
    out = forward_batch_t(ac.actor_spec, leaves, pol._features(ac, obs), prefix="actor.")
    if isinstance(ac.head, pol.DiagGaussianHead):
        log_std = clip(leaves["log_std"], pol.LOG_STD_MIN, pol.LOG_STD_MAX)
        logp = diag_gaussian_logp(out, log_std, actions)
        ent = add(tsum(log_std), constant(pol.GAUSSIAN_ENTROPY_CONST * ac.head.action_dim))
        return logp, ent
    log_all = log_softmax_rows(out)
    return gather_rows(log_all, actions), mean_entropy(log_all)


def values_graph(ac: pol.ActorCritic, leaves: dict[str, Tensor], obs: np.ndarray) -> Tensor:
    out = forward_batch_t(ac.critic_spec, leaves, pol._features(ac, obs), prefix="critic.")
    return tsum(out, axis=1)  # (n, 1) -> (n,)
