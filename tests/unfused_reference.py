"""Reference forms that faster code in stlab replaced, for the tests to
compare against: the primitive chains that `stlab.autograd.linear`,
`affine_norm` and `multi_head_attention` fused, in the model and in the
look-back fusion; and the plain forms of code rewritten to be bitwise
equal (the take scatter-add, the linear, affine_norm and attention
arithmetic, and the per-tensor Adam step). The plain forms sum in the
kernels' order: last-axis and column sums through `ag._rowsum` and
`ag._colsum`, a shared weight's gradient as one GEMM over the rows."""

import numpy as np

from stlab import autograd as ag
from stlab.autograd import Tensor
from stlab.optim import lr_at


def linear(x, w, b):
    return ag.matmul(x, w) + b


def affine_norm(x, gain, bias):
    return ag.mul(ag.layer_norm(x), gain) + bias


def scaled_dot_attention(q, k, v, bias=None):
    """q,k,v: [..., L, dh]; bias: ndarray broadcastable to the score shape
    (use MASK_BIAS at forbidden keys). Returns (output, weights)."""
    dh = q.data.shape[-1]
    scores = ag.matmul(q, ag.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)))
    scores = ag.mul_scalar(scores, 1.0 / np.sqrt(dh))
    if bias is not None:
        scores = ag.add(scores, Tensor(bias))
    w = ag.softmax(scores, axis=-1)
    return ag.matmul(w, v), w


def multi_head_attention(q, k, v, n_heads, bias=None):
    """Split the heads of projected [B, L, d] inputs, attend, merge."""
    d_head = q.shape[-1] // n_heads

    def _split(x):
        B, L, _ = x.shape
        return ag.transpose(ag.reshape(x, (B, L, n_heads, d_head)), (0, 2, 1, 3))

    B, Lq, _ = q.shape
    ctx, w = scaled_dot_attention(_split(q), _split(k), _split(v), bias=bias)
    return ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)), (B, Lq, n_heads * d_head)), w


# -- the plain forms that faster, bitwise-equal code replaced -----------------


def scatter_add(g, key, shape):
    """The take / embedding backward before it became one bincount."""
    buf = np.zeros(shape)
    np.add.at(buf, key, g)
    return buf


def linear_param_grads(x, w, b, g):
    """The weight and bias gradients of linear(x, w, b) under upstream g:
    per example, the batched product and the _unbroadcast form; for a
    shared weight, one GEMM and one column sum over the flattened rows."""
    if w.ndim == 3:
        return np.matmul(np.swapaxes(x, -1, -2), g), ag._unbroadcast(g, b.shape)
    x2, g2 = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
    return np.matmul(x2.T, g2), ag._colsum(g2)


def affine_norm_forward_backward(x, gain, bias, g, eps=ag.LAYERNORM_EPS):
    """affine_norm's output and its x, gain and bias gradients under
    upstream g, in out-of-place form."""
    d = x.shape[-1]
    xc = x - ag._rowsum(x) / d
    var = ag._rowsum(xc * xc) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gg = g * gain
    gm = ag._rowsum(gg) / d
    gym = ag._rowsum(gg * xhat) / d
    gx = inv * (gg - gm - xhat * gym)
    return xhat * gain + bias, gx, ag._colsum(g * xhat), ag._colsum(g)


def attention_forward_backward(q, k, v, n_heads, bias, g):
    """multi_head_attention's output, weights and q, k, v gradients under
    upstream g, in out-of-place form."""
    B, _, d = q.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    split = lambda x: x.reshape(B, -1, n_heads, dh).transpose(0, 2, 1, 3)
    merge = lambda x: x.transpose(0, 2, 1, 3).reshape(B, -1, d)
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * scale + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / ag._rowsum(e)
    gw = np.matmul(gh, vh.swapaxes(-1, -2))
    gs = w * (gw - ag._rowsum(gw * w)) * scale
    return (merge(np.matmul(w, vh)), w, merge(np.matmul(gs, kh)),
            merge(np.matmul(gs.swapaxes(-1, -2), qh)), merge(np.matmul(w.swapaxes(-1, -2), gh)))


class PerTensorAdam:
    """Adam as a loop over parameters with one m and v array each, the form
    stlab.optim.Adam replaced with its flat update."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.98, eps=1e-9,
                 warmup_steps=1):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.warmup_steps = warmup_steps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        lr = lr_at(self.t, self.lr, self.warmup_steps)
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad * p.grad
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
