"""Dense float64 tensors with a define-by-run reverse-mode autodiff tape.

Ops record onto a global tape only inside a `with recording():` block;
outside one they just compute. The tape is in execution order, which is
already a topological order. backward() pops it in reverse, accumulating
gradients into each node's inputs and then dropping the node's closure, so
a node's activations and gradient are freed as soon as its inputs hold
their gradients. Leaving the block drops whatever is still taped, also
when the block raised, so no forward pass can leave nodes behind.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor", "recording", "backward",
    "add", "scale", "matmul", "transpose", "reshape", "concat",
    "index", "softmax", "layer_norm", "attention", "gelu", "cross_entropy", "AdamW",
]

_TAPE: list["Tensor"] = []
_GRAD_ENABLED = False  # True inside recording()


class Tensor:
    """A dense float64 array, optionally tracked for gradients."""

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def accumulate(self, g: np.ndarray) -> None:
        # the first gradient is copied: g may be a view of, or the same array
        # as, a gradient handed to another input of the same op
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __getitem__(self, key):
        return index(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


@contextlib.contextmanager
def recording():
    """Tape the ops run in the block; on exit, also on error, drop what is left."""
    global _GRAD_ENABLED
    if _GRAD_ENABLED:
        raise RuntimeError("recording() blocks do not nest")
    _GRAD_ENABLED = True
    try:
        yield
    finally:
        _GRAD_ENABLED = False
        for node in _TAPE:
            node._backward = None
        _TAPE.clear()


def _record(out: Tensor, inputs: Iterable[Tensor], backward_fn) -> Tensor:
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._backward = backward_fn
        _TAPE.append(out)
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
    """Reverse-accumulate gradients of a scalar loss recorded in the current
    recording() block.

    Each node leaves the tape when its closure has run, so intermediate
    activations and gradients are freed during the walk. Gradients stay on
    the tensors the caller still holds.
    """
    if not (_GRAD_ENABLED and loss.requires_grad):
        raise ValueError("backward needs a loss built inside the current "
                         "`with recording():` block")
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not np.all(np.isfinite(loss.data)):
        raise FloatingPointError("loss is not finite")
    loss.accumulate(np.ones_like(loss.data))
    while _TAPE:
        node = _TAPE.pop()
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
    """a @ b, plus bias broadcast over the rows when given (b must then be 2D)."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if b.data.ndim == 2:
        return _matmul_rows(a, b, bias)
    if bias is not None:
        raise ValueError("matmul takes a bias only with a 2D right operand")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _record(out, (a, b), bwd)


def _matmul_rows(a: Tensor, b: Tensor, bias: Tensor | None) -> Tensor:
    """[..., K] @ [K, N] (+ bias) as one [M, K] @ [K, N] GEMM over the flattened rows."""
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


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(range(a.data.ndim - 2)) + (a.data.ndim - 1, a.data.ndim - 2)
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

    q, k, v are [B, T, H*dh] projections. Splits the heads, computes
    P = softmax(q k^T / sqrt(dh)) and P v, and merges the heads back to
    [B, T, H*dh]. Returns that output and P [B, H, T, T]. The backward is
    dV = P^T dO, dS = P * (dP - rowsum(dP * P)) / sqrt(dh) with dP = dO V^T,
    dQ = dS K and dK = dS^T Q; only P and the projections are kept for it.
    """
    b, t, hdh = q.shape
    if k.shape != q.shape or v.shape != q.shape or hdh % n_heads:
        raise ValueError(f"attention needs equal [B, T, H*dh] inputs with H={n_heads} "
                         f"dividing the last axis, got {q.shape}, {k.shape}, {v.shape}")
    dh = hdh // n_heads

    def heads(a: np.ndarray) -> np.ndarray:          # [B, T, H*dh] -> [B, H, T, dh]
        return np.transpose(a.reshape(b, t, n_heads, dh), (0, 2, 1, 3))

    def merge(a: np.ndarray) -> np.ndarray:          # [B, H, T, dh] -> [B, T, H*dh]
        return np.transpose(a, (0, 2, 1, 3)).reshape(b, t, hdh)

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

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 1e-4):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
