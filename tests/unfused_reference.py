"""Unfused reference compositions: the primitive chains that
`stlab.autograd.linear`, `affine_norm` and `multi_head_attention` replaced
in the model and in the look-back fusion. The tests compare the fused
nodes with them."""

import numpy as np

from stlab import autograd as ag
from stlab.autograd import Tensor


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
