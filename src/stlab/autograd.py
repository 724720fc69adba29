"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every op builds a fresh node with a backward closure. A
backward pass releases each node once its closure has run (its gradient,
closure and parent links), so the graph's interior memory is freed as the
pass goes and a second pass over a released node raises. No broadcasting
beyond what the model layers actually use. A value read off the graph, such
as the attention weights, is a plain ndarray, not a constant Tensor.

A closure computes a gradient only for the inputs that require one. Kernels
may sum in another order than numpy's reductions: short last-axis and column
sums are matrix-vector products with a ones vector, and a shared weight's
gradient is one GEMM over the flattened rows. The tests bound each kernel
against its unfused primitive chain (rtol 1e-12) and pin each in-place
rewrite to its out-of-place form bit for bit. Each kernel has one arithmetic
path, so a run stays bitwise reproducible from one run to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

class ShapeError(ValueError):
    """Raised when a primitive receives incompatible shapes."""

    def __init__(self, op, *shapes):
        super().__init__(f"{op}: incompatible shapes {shapes}")
        self.op = op
        self.shapes = shapes


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_released")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._released = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def detach(self):
        return Tensor(self.data.copy())

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's grad. Each node is
        released once its closure has run: its grad, closure and parents
        go, and a later backward that reaches it raises RuntimeError."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._released:
            raise RuntimeError("second backward on the same graph; re-run the forward pass")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._released:
                    raise RuntimeError("backward reached a node an earlier backward "
                                       "released; re-run the forward pass")
                if p._backward is not None and id(p) not in seen:  # leaves have none
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf loss keeps its gradient
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None
            node._parents = ()
            node._released = True

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul_scalar(_wrap(other), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other), mul_scalar(self, -1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return mul_scalar(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul_scalar(self, 1.0 / float(other))
        return mul(self, pow_scalar(other, -1.0))

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_scalar(self, float(p))

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data, parents, backward):
    rg = any(p.requires_grad for p in parents)
    if not rg:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)


def _acc(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        # no backward writes into a gradient, so it is stored uncopied unless
        # its layout is not C order, in which later sums would round otherwise
        t.grad = np.asarray(g, dtype=np.float64, order="C")
    else:
        t.grad = t.grad + g


def _rowsum(x):
    """x.sum(axis=-1, keepdims=True) as a product with a ones vector: BLAS
    sums a short last axis several times faster than numpy's reduction."""
    return np.matmul(x, np.ones(x.shape[-1]))[..., None]


def _colsum(x):
    """x.reshape(-1, d).sum(axis=0) for d = x.shape[-1], as a product with a
    ones vector."""
    d = x.shape[-1]
    return np.ones(x.size // d) @ x.reshape(-1, d)


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ---------------------------------------------------------


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape)

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), bwd)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape)

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bwd)


def mul_scalar(a, s: float):
    out = a.data * s

    def bwd(g):
        _acc(a, g * s)

    return _make(out, (a,), bwd)


def pow_scalar(a, p: float):
    out = a.data ** p

    def bwd(g):
        _acc(a, g * p * a.data ** (p - 1.0))

    return _make(out, (a,), bwd)


def relu(a):
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        _acc(a, g * (a.data > 0.0))

    return _make(out, (a,), bwd)


# -- reductions / shape ---------------------------------------------------


def sum_(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _acc(a, np.broadcast_to(g, a.data.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _acc(a, np.broadcast_to(gg, a.data.shape))

    return _make(out, (a,), bwd)


def mean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul_scalar(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape):
    out = a.data.reshape(shape)

    def bwd(g):
        _acc(a, g.reshape(a.data.shape))

    return _make(out, (a,), bwd)


def transpose(a, axes):
    axes = tuple(axes)
    out = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _acc(a, g.transpose(inv))

    return _make(out, (a,), bwd)


def concat(tensors):
    """Concatenation along the first axis."""
    datas = [t.data for t in tensors]
    out = np.concatenate(datas)
    offsets = np.cumsum([0] + [d.shape[0] for d in datas])

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _acc(t, g[lo:hi])

    return _make(out, tuple(tensors), bwd)


def _scatter_add(g, key, shape):
    """np.add.at(np.zeros(shape), key, g) as one bincount over the flat
    positions that `key` reads. bincount adds its weights in input order,
    the order np.add.at uses, so the two agree bit for bit."""
    size = int(np.prod(shape))
    pos = np.ravel(np.arange(size).reshape(shape)[key])
    return np.bincount(pos, weights=np.ravel(g), minlength=size).reshape(shape)


def take(a, key):
    """General indexing (slices, ints, int arrays and tuples of them). The
    backward scatter-adds g into the positions read, summing repeated
    positions in read order."""
    out = a.data[key]

    def bwd(g):
        if a.requires_grad:
            _acc(a, _scatter_add(g, key, a.data.shape))

    return _make(out, (a,), bwd)


# -- linear algebra --------------------------------------------------------


def matmul(a, b):
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            bt = np.ascontiguousarray(np.swapaxes(b.data, -1, -2))
            _acc(a, _unbroadcast(np.matmul(g, bt), a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _make(out, (a, b), bwd)


def linear(x, w, b):
    """x @ w + b as one node; x: [..., d_in] (2-D or 3-D), w: [d_in, d_out],
    b: [d_out]. Per-example parameters w: [B, d_in, d_out], b: [B, 1, d_out]
    with x: [B, L, d_in] get per-example gradients: item i's w and b grads
    are those of item i's slice alone. A shared w's gradient is one GEMM
    over the flattened rows; the input gradient multiplies by a C-ordered
    copy of w^T, except per example, where copying w costs more than it
    saves."""
    *lead, d_in, d_out = w.data.shape
    b_shape = (*lead, 1, d_out) if lead else (d_out,)
    if (x.data.ndim not in (2, 3) or x.data.shape[-1] != d_in or b.data.shape != b_shape
            or (lead and x.data.shape[:-2] != tuple(lead))):
        raise ShapeError("linear", x.shape, w.shape, b.shape)
    out = np.matmul(x.data, w.data)
    out += b.data

    def bwd(g):
        if x.requires_grad:
            wt = np.swapaxes(w.data, -1, -2)
            _acc(x, np.matmul(g, wt if lead else np.ascontiguousarray(wt)))
        if w.requires_grad:
            _acc(w, np.matmul(np.swapaxes(x.data, -1, -2), g) if lead
                 else x.data.reshape(-1, d_in).T @ g.reshape(-1, d_out))
        if b.requires_grad:
            _acc(b, g.sum(axis=1, keepdims=True) if lead else _colsum(g))

    return _make(out, (x, w, b), bwd)


def embedding(table, ids):
    """Row lookup into a [V, d] table with an integer id array: `take`, once
    every id is known to name a row."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError("embedding", table.shape, ("id range", int(ids.min()), int(ids.max())))
    return take(table, ids)


# -- normalization / softmax ------------------------------------------------


def softmax(a):
    """Softmax over the last axis."""
    x = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(x)
    out = e / _rowsum(e)

    def bwd(g):
        _acc(a, out * (g - _rowsum(g * out)))

    return _make(out, (a,), bwd)


def log_softmax(a):
    """Log-softmax over the last axis."""
    x = a.data - a.data.max(axis=-1, keepdims=True)
    out = x - np.log(_rowsum(np.exp(x)))

    def bwd(g):
        _acc(a, g - np.exp(out) * _rowsum(g))

    return _make(out, (a,), bwd)


def logsumexp(a):
    """log(sum(exp(a))) over the last axis, which is dropped."""
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out = np.squeeze(np.log(s) + m, axis=-1)

    def bwd(g):
        _acc(a, g[..., None] * (e / s))

    return _make(out, (a,), bwd)


LAYERNORM_EPS = 1e-5


def _normalize(x):
    """Last-axis zero mean / unit variance, and the inverse deviation.

    A zero-variance row maps to zeros: LAYERNORM_EPS sits inside the square
    root.
    """
    d = x.shape[-1]
    xc = x - _rowsum(x) / d
    var = _rowsum(xc * xc) / d
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xc *= inv
    return xc, inv


def _normalize_grad(g, out, inv):
    d = g.shape[-1]
    gm = _rowsum(g) / d
    t = g * out
    gym = _rowsum(t) / d
    r = g - gm
    r -= np.multiply(out, gym, out=t)
    r *= inv
    return r


def layer_norm(a):
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    out, inv = _normalize(a.data)

    def bwd(g):
        _acc(a, _normalize_grad(g, out, inv))

    return _make(out, (a,), bwd)


def affine_norm(x, gain, bias):
    """layer_norm(x) * gain + bias as one node; gain, bias: [d]."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError("affine_norm", x.shape, gain.shape, bias.shape)
    xhat, inv = _normalize(x.data)
    out = xhat * gain.data
    out += bias.data

    def bwd(g):
        if gain.requires_grad:
            _acc(gain, _colsum(g * xhat))
        if bias.requires_grad:
            _acc(bias, _colsum(g))
        if x.requires_grad:
            _acc(x, _normalize_grad(g * gain.data, xhat, inv))

    return _make(out, (x, gain, bias), bwd)


# -- convolution -------------------------------------------------------------


def depthwise_conv1d(x, kernel):
    """Per-channel 1-D convolution with same-length output.

    x: [B, L, C], kernel: [K, C]. Even kernels pad left-heavy
    (ceil((K-1)/2) on the left) so output length equals input length.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 2 or x.data.shape[2] != kernel.data.shape[1]:
        raise ShapeError("depthwise_conv1d", x.shape, kernel.shape)
    B, L, C = x.data.shape
    K = kernel.data.shape[0]
    left = (K - 1 + 1) // 2  # ceil((K-1)/2)
    right = K - 1 - left
    xp = np.pad(x.data, ((0, 0), (left, right), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, K, axis=1)  # [B, L, C, K]
    out = np.einsum("blck,kc->blc", win, kernel.data)

    def bwd(g):
        if kernel.requires_grad:
            _acc(kernel, np.einsum("blck,blc->kc", win, g))
        if x.requires_grad:
            gp = np.zeros_like(xp)
            for k in range(K):
                gp[:, k:k + L, :] += g * kernel.data[k][None, None, :]
            _acc(x, gp[:, left:left + L, :])

    return _make(out, (x, kernel), bwd)


# -- attention ---------------------------------------------------------------

MASK_BIAS = -1e30


def multi_head_attention(q, k, v, n_heads, bias=None):
    """Scaled dot-product attention of projected inputs, as one node.

    q: [B, Lq, d]; k, v: [B, Lk, d]; bias: ndarray broadcastable to
    [B, H, Lq, Lk] (use MASK_BIAS at forbidden keys). Splits d into n_heads
    heads, scales the scores by 1/sqrt(d/H), adds the bias, takes the
    softmax over keys, applies it to v and merges the heads. Returns
    (output [B, Lq, d], weights [B, H, Lq, Lk]); the weights are an ndarray,
    outside the graph.
    """
    B, Lq, d = q.data.shape
    Lk = k.data.shape[1]
    if k.data.shape != (B, Lk, d) or v.data.shape != k.data.shape or d % n_heads:
        raise ShapeError("multi_head_attention", q.shape, k.shape, v.shape)
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def split(x):
        return x.reshape(B, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(B, -1, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    w = np.matmul(qh, kh.swapaxes(-1, -2))  # scores, then their softmax, in place
    w *= scale
    if bias is not None:
        w += bias
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= _rowsum(w)
    out = merge(np.matmul(w, vh))

    def bwd(g):
        gh = split(g)
        if v.requires_grad:
            _acc(v, merge(np.matmul(w.swapaxes(-1, -2), gh)))
        gs = np.matmul(gh, vh.swapaxes(-1, -2))  # w * (gw - sum(gw * w)) * scale
        gs -= _rowsum(gs * w)
        gs *= w
        gs *= scale
        if q.requires_grad:
            _acc(q, merge(np.matmul(gs, kh)))
        if k.requires_grad:
            _acc(k, merge(np.matmul(gs.swapaxes(-1, -2), qh)))

    return _make(out, (q, k, v), bwd), w


# -- parameter bookkeeping ----------------------------------------------------

PARTITIONS = ("A-Enc", "T-Enc", "Decoder")
KINDS = ("ATTEN", "FFN", "OTHER")


@dataclass(frozen=True)
class GroupKey:
    partition: str
    layer: int
    kind: str

    def __post_init__(self):
        if self.partition not in PARTITIONS:
            raise ValueError(f"unknown partition {self.partition!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")

    def __str__(self):
        return f"{self.partition}/{self.layer}/{self.kind}"


@dataclass
class ParamGroup:
    key: GroupKey
    tensors: list = field(default_factory=list)

    def flat_grad(self) -> np.ndarray:
        """Concatenate member grads in construction order."""
        for t in self.tensors:
            if t.grad is None:
                raise RuntimeError(f"missing grad in group {self.key}; run backward first")
        return np.concatenate([t.grad.ravel() for t in self.tensors])

    def has_grads(self) -> bool:
        return all(t.grad is not None for t in self.tensors)
