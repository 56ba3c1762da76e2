"""Dense float64 tensors with a define-by-run reverse-mode autodiff tape.

Ops record onto the calling thread's tape only inside a `with recording():`
block in that thread; outside one they just compute. Each thread has its own
tape and its own on/off flag, so threads can record and run backward at the
same time. The tape is in execution order, which is already a topological
order. backward() pops it in reverse, accumulating gradients into each
node's inputs and then dropping the node's closure, so a node's activations
and gradient are freed as soon as its inputs hold their gradients. Leaving
the block drops whatever is still taped, also when the block raised, so no
forward pass can leave nodes behind.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor", "recording", "backward",
    "add", "scale", "matmul", "transpose", "reshape", "concat",
    "index", "softmax", "layer_norm", "attention", "gelu", "cross_entropy", "AdamW",
]


class _ThreadState(threading.local):
    """One thread's tape, and whether that thread is inside recording()."""

    def __init__(self):
        self.tape: list[Tensor] = []
        self.grad_enabled = False


_STATE = _ThreadState()


def __getattr__(name: str):
    # the calling thread's tape and flag, read by name by perfbench's stage runner and tracer
    if name == "_TAPE":
        return _STATE.tape
    if name == "_GRAD_ENABLED":
        return _STATE.grad_enabled
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Tensor:
    """A dense float64 array, optionally tracked for gradients."""

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate(self, g: np.ndarray) -> None:
        # the first gradient is copied: g may be a view of, or the same array
        # as, a gradient handed to another input of the same op
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


@contextlib.contextmanager
def recording():
    """Tape the ops this thread runs in the block; on exit, also on error, drop
    what is left on this thread's tape."""
    if _STATE.grad_enabled:
        raise RuntimeError("recording() blocks do not nest")
    _STATE.grad_enabled = True
    try:
        yield
    finally:
        _STATE.grad_enabled = False
        for node in _STATE.tape:
            node._backward = None
        _STATE.tape.clear()


def _record(out: Tensor, inputs: Iterable[Tensor], backward_fn) -> Tensor:
    if _STATE.grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._backward = backward_fn
        _STATE.tape.append(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients of a scalar loss recorded in this thread's
    current recording() block.

    Each node leaves the tape when its closure has run, so intermediate
    activations and gradients are freed during the walk. Gradients stay on
    the tensors the caller still holds.
    """
    if not (_STATE.grad_enabled and loss.requires_grad):
        raise ValueError("backward needs a loss built inside the current "
                         "`with recording():` block")
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not np.all(np.isfinite(loss.data)):
        raise FloatingPointError("loss is not finite")
    loss.accumulate(np.ones_like(loss.data))
    tape = _STATE.tape
    while tape:
        node = tape.pop()
        if node.grad is not None:
            node._backward(node.grad)
        node._backward = None


# ---------------------------------------------------------------------------
# primitive ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * c)

    return _record(out, (a,), bwd)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """[..., K] @ [K, N] (+ bias) as one [M, K] @ [K, N] GEMM over the flattened rows."""
    if b.data.ndim != 2 or a.data.ndim < 1 or a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}, not [..., K] @ [K, N]")
    k, n = b.shape
    a2 = a.data.reshape(-1, k)
    y = (a2 @ b.data).reshape(a.shape[:-1] + (n,))
    if bias is not None:
        y += bias.data
    out = Tensor(y)

    def bwd(g):
        g2 = g.reshape(-1, n)
        if a.requires_grad:
            a.accumulate((g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            b.accumulate(a2.T @ g2)
        if bias is not None and bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.shape))

    return _record(out, (a, b) if bias is None else (a, b, bias), bwd)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(np.transpose(g, inv))

    return _record(out, (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.shape))

    return _record(out, (a,), bwd)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.accumulate(g[tuple(sl)])

    return _record(out, tensors, bwd)


def index(a: Tensor, key) -> Tensor:
    """Basic slicing/indexing; backward scatter-adds into the source shape."""
    out = Tensor(a.data[key])

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[key] += g
            a.accumulate(full)

    return _record(out, (a,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        if a.requires_grad:
            gy = g * y
            dot = gy.sum(axis=axis, keepdims=True)
            np.subtract(g, dot, out=gy)
            gy *= y
            a.accumulate(gy)

    return _record(out, (a,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6,
               residual: Tensor | None = None, residual_scale: float = 1.0) -> Tensor:
    """Standardize over the last axis, then affine transform. With a residual,
    normalize x + residual_scale * residual in the same node (a post-norm block)."""
    d = x.shape[-1]
    if d < 2:
        raise ValueError("layer_norm needs a last axis of size >= 2")
    xs = x.data
    if residual is not None:
        xs = xs + (residual.data * residual_scale if residual_scale != 1.0 else residual.data)
    xhat = xs - xs.mean(axis=-1, keepdims=True)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = gamma.data * xhat
    y += beta.data
    out = Tensor(y)

    def bwd(g):
        if beta.requires_grad:
            beta.accumulate(_unbroadcast(g, beta.shape))
        if gamma.requires_grad:
            gamma.accumulate(_unbroadcast(g * xhat, gamma.shape))
        if x.requires_grad or (residual is not None and residual.requires_grad):
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dxhat -= m1
            dxhat -= xhat * m2
            dxhat *= inv
            if x.requires_grad:
                x.accumulate(dxhat)
            if residual is not None and residual.requires_grad:
                residual.accumulate(dxhat * residual_scale if residual_scale != 1.0 else dxhat)

    inputs = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)
    return _record(out, inputs, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention as one node.

    q is the [B, Tq, H*dh] projection of the rows that attend, k and v the
    [B, T, H*dh] projections of the rows attended to. Splits the heads,
    computes P = softmax(q k^T / sqrt(dh)) and P v, and merges the heads back
    to [B, Tq, H*dh]. Returns that output and P [B, H, Tq, T]. The backward is
    dV = P^T dO, dS = P * (dP - rowsum(dP * P)) / sqrt(dh) with dP = dO V^T,
    dQ = dS K and dK = dS^T Q; only P and the projections are kept for it.
    """
    if (q.data.ndim != 3 or k.data.ndim != 3 or k.shape != v.shape
            or (q.shape[0], q.shape[2]) != (k.shape[0], k.shape[2]) or q.shape[2] % n_heads):
        raise ValueError(f"attention needs q [B, Tq, H*dh] and k, v [B, T, H*dh] with "
                         f"H={n_heads} dividing H*dh, got q {q.shape}, k {k.shape}, "
                         f"v {v.shape}")
    (b, _, hdh), t = q.shape, k.shape[1]
    dh = hdh // n_heads

    def heads(a: np.ndarray) -> np.ndarray:          # [B, T, H*dh] -> [B, H, T, dh]
        return np.transpose(a.reshape(b, a.shape[1], n_heads, dh), (0, 2, 1, 3))

    def merge(a: np.ndarray) -> np.ndarray:          # [B, H, T, dh] -> [B, T, H*dh]
        return np.transpose(a, (0, 2, 1, 3)).reshape(b, a.shape[2], hdh)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    c = 1.0 / np.sqrt(dh)
    p = qh @ np.swapaxes(kh, -1, -2)
    p *= c
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = Tensor(merge(p @ vh))

    def bwd(g):
        do = heads(g)
        if v.requires_grad:
            v.accumulate(merge(np.swapaxes(p, -1, -2) @ do))
        if q.requires_grad or k.requires_grad:
            dp = do @ np.swapaxes(vh, -1, -2)
            ds = dp * p
            dot = ds.sum(axis=-1, keepdims=True)
            np.subtract(dp, dot, out=ds)
            del dp
            ds *= p
            ds *= c
            if q.requires_grad:
                q.accumulate(merge(ds @ kh))
            if k.requires_grad:
                k.accumulate(np.transpose(np.swapaxes(qh, -1, -2) @ ds, (0, 3, 1, 2))
                             .reshape(b, t, hdh))

    return _record(out, (q, k, v), bwd), p


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    phi = 0.5 * (1.0 + erf(x.data / np.sqrt(2.0)))
    out = Tensor(x.data * phi)

    def bwd(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data ** 2) / np.sqrt(2.0 * np.pi)
            x.accumulate(g * (phi + x.data * pdf))

    return _record(out, (x,), bwd)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of logits [B, K] against class labels, as one node:
    mean(lse(l) - l[y]) over logits shifted by their row max, so no probability is
    formed or floored. The backward is g (softmax(l) - onehot) / B, from the shifted
    logits and lse alone."""
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    rows = np.arange(b)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor((lse[:, 0] - shifted[rows, labels]).mean())

    def bwd(g):
        if logits.requires_grad:
            d = np.exp(shifted - lse)
            d[rows, labels] -= 1.0
            d *= g / b
            logits.accumulate(d)

    return _record(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Adam with decoupled weight decay (decay applied directly to weights)."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in self.params.items():
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
