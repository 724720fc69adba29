"""Finite-difference and behavioral checks for the autodiff engine."""

import numpy as np
import pytest

from stlab import autograd as ag
from stlab.autograd import GroupKey, ParamGroup, ShapeError, Tensor
from stlab.gradcheck import check_gradients


def rand_tensor(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def fd_check(build, params, rng=None, rel_tol=1e-6):
    """build() -> scalar Tensor; verifies every param entry."""
    return check_gradients(build, params, rel_tol=rel_tol, abs_tol=1e-9,
                           step=1e-6, rng=rng)


@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: a * b,
    lambda a, b: a - b,
    lambda a, b: ag.matmul(a, ag.transpose(b, (1, 0))),
])
def test_binary_ops_fd(op):
    rng = np.random.default_rng(0)
    a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 3, 4)
    fd_check(lambda: op(a, b).sum(), [a, b])


@pytest.mark.parametrize("op", [
    ag.exp, ag.tanh, ag.relu,
    lambda a: ag.pow_scalar(a, 3.0),
    lambda a: ag.mul_scalar(a, -2.5),
    lambda a: ag.softmax(a, axis=-1),
    lambda a: ag.log_softmax(a, axis=-1),
    lambda a: ag.logsumexp(a, axis=-1),
    ag.layer_norm,
    lambda a: a.mean(axis=1),
    lambda a: a.sum(axis=0),
    lambda a: ag.reshape(a, (4, 3)),
    lambda a: ag.transpose(a, (1, 0)),
])
def test_unary_ops_fd(op):
    rng = np.random.default_rng(1)
    a = rand_tensor(rng, 3, 4)
    # keep relu away from the kink
    a.data[np.abs(a.data) < 1e-3] += 0.01
    fd_check(lambda: op(a).sum(), [a])


def test_log_fd():
    rng = np.random.default_rng(2)
    a = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    fd_check(lambda: ag.log(a).sum(), [a])


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_concat_stack_take_fd():
    rng = np.random.default_rng(3)
    a, b = rand_tensor(rng, 2, 3), rand_tensor(rng, 4, 3)

    def f():
        c = ag.concat([a, b], axis=0)
        picked = c[(np.array([0, 0, 5]),)]  # repeated index -> scatter-add
        return picked.sum() + ag.stack([a, a], axis=0).sum()

    fd_check(f, [a, b])


def test_embedding_scatter_adds_repeated_ids():
    table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    out = ag.embedding(table, np.array([1, 1, 3]))
    out.sum().backward()
    np.testing.assert_array_equal(table.grad[1], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(table.grad[0], [0.0, 0.0, 0.0])


def test_embedding_rejects_out_of_range():
    table = Tensor(np.zeros((4, 3)), requires_grad=True)
    with pytest.raises(ShapeError):
        ag.embedding(table, np.array([4]))


def test_matmul_batched_fd():
    rng = np.random.default_rng(4)
    a = rand_tensor(rng, 2, 3, 4)
    b = rand_tensor(rng, 2, 4, 5)
    fd_check(lambda: ag.matmul(a, b).sum(), [a, b])


def test_matmul_broadcast_fd():
    rng = np.random.default_rng(5)
    a = rand_tensor(rng, 2, 3, 4)
    b = rand_tensor(rng, 4, 5)  # broadcast over the batch axis
    fd_check(lambda: ag.matmul(a, b).sum(), [a, b])


def test_matmul_shape_error():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        ag.matmul(a, b)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    out = ag.softmax(Tensor(rng.normal(size=(5, 7)) * 30))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm_zero_variance_row_is_zero():
    out = ag.layer_norm(Tensor(np.full((2, 4), 3.0)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


def test_layer_norm_matches_manual():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    out = ag.layer_norm(Tensor(x))
    mu = x.mean(-1, keepdims=True)
    expect = (x - mu) / np.sqrt(((x - mu) ** 2).mean(-1, keepdims=True) + 1e-5)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_depthwise_conv_fd(K):
    rng = np.random.default_rng(8 + K)
    x = rand_tensor(rng, 2, 6, 3)
    k = rand_tensor(rng, K, 3)
    fd_check(lambda: ag.depthwise_conv1d(x, k).sum(), [x, k])


def test_depthwise_conv_identity_kernel():
    """K=3 with weight only on the center tap reproduces the input."""
    rng = np.random.default_rng(20)
    x = rng.normal(size=(1, 5, 2))
    k = np.zeros((3, 2))
    k[1] = 1.0  # left pad is ceil(2/2)=1, so tap index 1 is the current frame
    out = ag.depthwise_conv1d(Tensor(x), Tensor(k))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_depthwise_conv_even_kernel_pads_left_heavy():
    """K=2: output[t] = k0*x[t-1] + k1*x[t] (the extra pad frame on the left)."""
    x = np.arange(4, dtype=float).reshape(1, 4, 1)
    k = np.array([[1.0], [0.0]])
    out = ag.depthwise_conv1d(Tensor(x), Tensor(k))
    np.testing.assert_allclose(out.data[0, :, 0], [0.0, 0.0, 1.0, 2.0])


def test_scaled_dot_attention_masking_and_fd():
    rng = np.random.default_rng(9)
    q, k, v = (rand_tensor(rng, 1, 4, 6) for _ in range(3))
    bias = np.zeros((1, 4, 4))
    bias[:, :, 2:] = ag.MASK_BIAS
    out, w = ag.scaled_dot_attention(q, k, v, bias=bias)
    assert np.all(w.data[:, :, 2:] < 1e-12)
    fd_check(lambda: ag.scaled_dot_attention(q, k, v, bias=bias)[0].sum(), [q, k, v])


def test_dropout_scaling_and_determinism():
    x = Tensor(np.ones((100, 100)), requires_grad=True)
    out1 = ag.dropout(x, 0.5, np.random.default_rng(5))
    out2 = ag.dropout(x, 0.5, np.random.default_rng(5))
    np.testing.assert_array_equal(out1.data, out2.data)
    kept = out1.data[out1.data > 0]
    assert np.allclose(kept, 2.0)  # inverted scaling keeps the expectation
    assert abs(out1.data.mean() - 1.0) < 0.05


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_second_backward_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_constant_subtree_gets_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones(3))  # constant
    out = (x * c).sum()
    assert out.requires_grad
    out.backward()
    assert c.grad is None
    assert x.grad is not None


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    (x * x + x).sum().backward()  # d/dx (x^2 + x) = 2x + 1 = 5
    np.testing.assert_allclose(x.grad, [5.0])


def test_diamond_graph_grad():
    x = Tensor(np.array([3.0]), requires_grad=True)
    a = x * 2.0
    b = x * 5.0
    (a * b).sum().backward()  # d/dx 10 x^2 = 20x = 60
    np.testing.assert_allclose(x.grad, [60.0])


def test_group_key_validation():
    with pytest.raises(ValueError):
        GroupKey("Nope", 0, "ATTEN")
    with pytest.raises(ValueError):
        GroupKey("A-Enc", 0, "nope")
    assert str(GroupKey("A-Enc", 1, "FFN")) == "A-Enc/1/FFN"


def test_param_group_flat_grad_order_and_missing():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    g = ParamGroup(GroupKey("T-Enc", 0, "FFN"), [a, b])
    with pytest.raises(RuntimeError):
        g.flat_grad()
    a.grad = np.arange(4.0).reshape(2, 2)
    b.grad = np.arange(3.0)
    np.testing.assert_array_equal(g.flat_grad(), [0, 1, 2, 3, 0, 1, 2])
    assert sum(t.data.size for t in g.tensors) == 7
