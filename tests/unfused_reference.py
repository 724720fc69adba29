"""Reference forms that faster code in stlab replaced, for the tests to
compare against: the primitive chains that `stlab.autograd.linear`,
`affine_norm` and `multi_head_attention` fused, in the model and in the
look-back fusion; and the plain forms of code rewritten to be bitwise
equal (the take scatter-add, the linear, affine_norm and attention
arithmetic, and the per-tensor Adam step)."""

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
    """The weight and bias gradients of linear(x, w, b) under upstream g, in
    the _unbroadcast form the node used before."""
    gw = ag._unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), w.shape)
    return gw, ag._unbroadcast(g, b.shape)


def affine_norm_forward_backward(x, gain, bias, g, eps=ag.LAYERNORM_EPS):
    """affine_norm's output and its x, gain and bias gradients under
    upstream g, in the out-of-place form the node used before."""
    d = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gg = g * gain
    gm = gg.sum(axis=-1, keepdims=True) / d
    gym = (gg * xhat).sum(axis=-1, keepdims=True) / d
    gx = inv * (gg - gm - xhat * gym)
    return (xhat * gain + bias, gx, ag._unbroadcast(g * xhat, gain.shape),
            ag._unbroadcast(g, bias.shape))


def attention_forward_backward(q, k, v, n_heads, bias, g):
    """multi_head_attention's output, weights and q, k, v gradients under
    upstream g, in the out-of-place form the node used before."""
    B, _, d = q.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    split = lambda x: x.reshape(B, -1, n_heads, dh).transpose(0, 2, 1, 3)
    merge = lambda x: x.transpose(0, 2, 1, 3).reshape(B, -1, d)
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * scale + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    gw = np.matmul(gh, vh.swapaxes(-1, -2))
    gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * scale
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
