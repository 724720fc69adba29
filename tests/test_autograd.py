"""Finite-difference and behavioral checks for the autodiff engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stlab.train as train_mod
import unfused_reference as unfused
from stlab import autograd as ag
from stlab.autograd import GroupKey, ParamGroup, ShapeError, Tensor
from stlab.config import RunConfig, SchedulerConfig, Toggles, TrainingConfig
from stlab.data import CorpusConfig
from stlab.gradcheck import check_gradients
from stlab.model import ModelConfig, _causal_bias, _key_bias


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


# a packing mask [B, L] with an empty item and 5 rows: pad takes [5, ...]
PACK_MASK = np.array([[True, False, True, True], [False] * 4, [True, True, False, False]])


@pytest.mark.parametrize("op", [
    ag.relu,
    lambda a: ag.pow_scalar(a, 3.0),
    lambda a: ag.mul_scalar(a, -2.5),
    lambda a: ag.softmax(a),
    lambda a: ag.log_softmax(a),
    lambda a: ag.logsumexp(a),
    ag.layer_norm,
    lambda a: a.mean(axis=1),
    lambda a: a.sum(axis=0),
    lambda a: ag.reshape(a, (4, 3)),
    lambda a: ag.transpose(a, (1, 0)),
    lambda a: ag.unpad(a, PACK_MASK),
    lambda a: ag.pad(a, PACK_MASK[:, :2]),
])
def test_unary_ops_fd(op):
    rng = np.random.default_rng(1)
    a = rand_tensor(rng, 3, 4)
    # keep relu away from the kink
    a.data[np.abs(a.data) < 1e-3] += 0.01
    fd_check(lambda: op(a).sum(), [a])


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_pad_unpad_take_fd():
    rng = np.random.default_rng(3)
    rows, x = rand_tensor(rng, 5, 3), rand_tensor(rng, 3, 4, 3)

    def f():
        c = ag.unpad(ag.pad(rows, PACK_MASK) * x, PACK_MASK)
        picked = c[(np.array([0, 0, 4]),)]  # repeated index -> scatter-add
        return (picked * picked).sum()

    fd_check(f, [rows, x])


def test_unpad_of_pad_is_the_identity_bit_for_bit():
    rows = np.random.default_rng(4).normal(size=(5, 3))
    padded = ag.pad(Tensor(rows), PACK_MASK)
    assert padded.shape == (3, 4, 3)
    np.testing.assert_array_equal(padded.data[~PACK_MASK], 0.0)
    np.testing.assert_array_equal(ag.unpad(padded, PACK_MASK).data, rows)
    np.testing.assert_array_equal(padded.data[PACK_MASK], rows)  # row-major order


def test_pad_and_unpad_backwards_are_each_others_forward():
    rng = np.random.default_rng(5)
    rows, x = rand_tensor(rng, 5, 3), rand_tensor(rng, 3, 4, 3)
    g_padded, g_rows = rng.normal(size=(3, 4, 3)), rng.normal(size=(5, 3))
    ag.mul(ag.pad(rows, PACK_MASK), Tensor(g_padded)).sum().backward()
    np.testing.assert_array_equal(rows.grad, ag.unpad(Tensor(g_padded), PACK_MASK).data)
    ag.mul(ag.unpad(x, PACK_MASK), Tensor(g_rows)).sum().backward()
    np.testing.assert_array_equal(x.grad, ag.pad(Tensor(g_rows), PACK_MASK).data)


def test_pad_and_unpad_shape_errors():
    with pytest.raises(ShapeError):
        ag.pad(Tensor(np.zeros((4, 3))), PACK_MASK)  # 5 rows under the mask
    with pytest.raises(ShapeError):
        ag.unpad(Tensor(np.zeros((3, 5, 3))), PACK_MASK)


def test_ones_is_a_read_only_slice_of_one_buffer():
    """The sum kernels' ones vector: a longer request replaces the buffer,
    and every shorter one is a slice of the current one."""
    big = ag._ones(ag._ones_buffer.size + 1)
    small = ag._ones(3)
    np.testing.assert_array_equal(big, 1.0)
    assert small.shape == (3,) and small.base is big.base
    assert not big.flags.writeable and not small.flags.writeable


def test_embedding_scatter_adds_repeated_ids():
    table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    out = ag.embedding(table, np.array([1, 1, 3]))
    out.sum().backward()
    np.testing.assert_array_equal(table.grad[1], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(table.grad[0], [0.0, 0.0, 0.0])


def _scatter_key(data, shape):
    """A take key over `shape`: a 1-tuple of repeated row ids, an int, a
    slice, one index array per axis, or an index array, a slice and another
    index array (the advanced axes move to the front of the result)."""
    ids = lambda n: st.lists(st.integers(0, n - 1), min_size=1, max_size=12).map(np.array)
    kinds = ["rows", "int", "slice", "arrays"] + (["split"] if len(shape) == 3 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "rows":
        return (data.draw(ids(shape[0])),)
    if kind == "int":
        return data.draw(st.integers(0, shape[0] - 1))
    if kind == "slice":
        lo = data.draw(st.integers(0, shape[0] - 1))
        return slice(lo, data.draw(st.integers(lo + 1, shape[0])))
    n = data.draw(st.integers(1, 12))
    pick = lambda d: data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    if kind == "arrays":
        return tuple(np.array(pick(d)) for d in shape)
    return (np.array(pick(shape[0])), slice(None), np.array(pick(shape[2])))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_take_scatter_add_is_add_at_bit_for_bit(data):
    """The bincount scatter-add sums repeated positions in np.add.at's order:
    equal bits for every key form take accepts, with terms of mixed scale so
    that a different order would round differently."""
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    key = _scatter_key(data, shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    out = ag.take(a, key)
    g = rng.normal(size=out.shape) * 10.0 ** rng.integers(-8, 9, size=out.shape)
    ag.mul(out, Tensor(g)).sum().backward()
    np.testing.assert_array_equal(a.grad, unfused.scatter_add(g, key, shape))


def test_embedding_grad_is_add_at_bit_for_bit():
    rng = np.random.default_rng(12)
    table = rand_tensor(rng, 5, 3)
    ids = rng.integers(0, 5, size=(4, 7))
    g = rng.normal(size=(4, 7, 3)) * 10.0 ** rng.integers(-8, 9, size=(4, 7, 3))
    ag.mul(ag.embedding(table, ids), Tensor(g)).sum().backward()
    np.testing.assert_array_equal(table.grad, unfused.scatter_add(g, ids, table.shape))


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


@pytest.mark.parametrize("op", [ag.softmax, ag.log_softmax])
def test_softmax_takes_the_last_axis_only(op):
    """A 3-D input is normalized along its last axis."""
    out = op(Tensor(np.random.default_rng(8).normal(size=(2, 3, 4)))).data
    probs = np.exp(out) if op is ag.log_softmax else out
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


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
    out, w = ag.multi_head_attention(q, k, v, 1, bias=bias)
    assert np.all(w[..., 2:] < 1e-12)
    fd_check(lambda: ag.multi_head_attention(q, k, v, 1, bias=bias)[0].sum(), [q, k, v])


# -- fused nodes against the unfused compositions they replaced ------------------


def forward_backward(op, inputs, upstream):
    """op(*inputs) -> Tensor; backprop sum(out * upstream). Returns the output
    data and every input's grad (None where it gets none)."""
    for t in inputs:
        t.grad = None
    out = op(*inputs)
    ag.mul(out, Tensor(upstream)).sum().backward()
    return out.data, [t.grad for t in inputs]


def assert_fused_matches(fused, reference, inputs, rng):
    out_shape = reference(*inputs).shape
    upstream = rng.normal(size=out_shape)
    out_f, grads_f = forward_backward(fused, inputs, upstream)
    out_r, grads_r = forward_backward(reference, inputs, upstream)
    np.testing.assert_allclose(out_f, out_r, rtol=1e-12, atol=1e-12)
    for i, (gf, gr) in enumerate(zip(grads_f, grads_r)):
        if gr is None:
            assert gf is None, i
        else:
            np.testing.assert_allclose(gf, gr, rtol=1e-12, atol=1e-12, err_msg=str(i))


def linear_inputs(rng, x_shape, d_out, x_grad=True):
    x = Tensor(rng.normal(size=x_shape), requires_grad=x_grad)
    return [x, rand_tensor(rng, x_shape[-1], d_out), rand_tensor(rng, d_out)]


@pytest.mark.parametrize("x_shape, x_grad", [
    ((3, 5, 4), True),
    ((1, 5, 4), True),      # B = 1, as the impact probes run it
    ((7, 4), True),         # 2-D, as lbm_fuse runs it
    ((2, 6, 4), False),     # raw speech into in_proj
])
def test_linear_matches_matmul_add(x_shape, x_grad):
    rng = np.random.default_rng(30)
    inputs = linear_inputs(rng, x_shape, 3, x_grad)
    assert_fused_matches(ag.linear, unfused.linear, inputs, rng)


def test_linear_fd():
    rng = np.random.default_rng(31)
    x, w, b = linear_inputs(rng, (2, 3, 4), 3)
    up = rng.normal(size=(2, 3, 3))
    fd_check(lambda: (ag.linear(x, w, b) * Tensor(up)).sum(), [x, w, b])


def per_example_linear_inputs(rng, B=3, L=5, d_in=4, d_out=3):
    return [rand_tensor(rng, B, L, d_in), rand_tensor(rng, B, d_in, d_out),
            rand_tensor(rng, B, 1, d_out)]


def test_linear_per_example_matches_separate_calls():
    """w: [B, d_in, d_out], b: [B, 1, d_out]: item i's output and input
    gradient, and row i of the w and b gradients, are those of a 2-D-weight
    linear on item i alone."""
    rng = np.random.default_rng(32)
    x, w, b = per_example_linear_inputs(rng)
    upstream = rng.normal(size=(3, 5, 3))
    out, (gx, gw, gb) = forward_backward(ag.linear, [x, w, b], upstream)
    for i in range(3):
        item = [Tensor(x.data[i:i + 1], requires_grad=True),
                Tensor(w.data[i], requires_grad=True), Tensor(b.data[i, 0], requires_grad=True)]
        out_i, (gx_i, gw_i, gb_i) = forward_backward(ag.linear, item, upstream[i:i + 1])
        for got, want in ((out[i:i + 1], out_i), (gx[i:i + 1], gx_i), (gw[i], gw_i),
                          (gb[i, 0], gb_i)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_linear_per_example_fd():
    rng = np.random.default_rng(33)
    x, w, b = per_example_linear_inputs(rng, B=2, L=3)
    up = rng.normal(size=(2, 3, 3))
    fd_check(lambda: (ag.linear(x, w, b) * Tensor(up)).sum(), [x, w, b])


@pytest.mark.parametrize("x_shape, w_shape, b_shape", [
    ((7, 4), (4, 3), (3,)),               # 2-D, as lbm_fuse runs it
    ((3, 5, 4), (4, 3), (3,)),            # 3-D
    ((3, 5, 4), (3, 4, 3), (3, 1, 3)),    # per-example parameters
])
def test_linear_param_grads_are_the_unbroadcast_form_bit_for_bit(x_shape, w_shape, b_shape):
    rng = np.random.default_rng(34)
    x, w, b = (rand_tensor(rng, *s) for s in (x_shape, w_shape, b_shape))
    upstream = rng.normal(size=x_shape[:-1] + w_shape[-1:])
    out, (_, gw, gb) = forward_backward(ag.linear, [x, w, b], upstream)
    np.testing.assert_array_equal(out, np.matmul(x.data, w.data) + b.data)
    for got, want in zip((gw, gb), unfused.linear_param_grads(x.data, w.data, b.data,
                                                             upstream)):
        np.testing.assert_array_equal(got, want)


def test_linear_skips_a_constant_bias():
    rng = np.random.default_rng(35)
    x, w = rand_tensor(rng, 2, 3, 4), rand_tensor(rng, 4, 3)
    b = Tensor(rng.normal(size=3))
    ag.linear(x, w, b).sum().backward()
    assert b.grad is None and w.grad is not None


def test_linear_shape_error():
    with pytest.raises(ShapeError):  # x is 2-D or 3-D
        ag.linear(Tensor(np.zeros((2, 2, 3, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        ag.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        ag.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))
    # per-example parameters: the bias must be [B, 1, d_out], x must be [B, L, d_in]
    w = Tensor(np.zeros((2, 4, 5)))
    with pytest.raises(ShapeError):
        ag.linear(Tensor(np.zeros((2, 3, 4))), w, Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        ag.linear(Tensor(np.zeros((3, 3, 4))), w, Tensor(np.zeros((2, 1, 5))))


def norm_inputs(rng, x_shape, x_grad=True):
    x = Tensor(rng.normal(size=x_shape), requires_grad=x_grad)
    d = x_shape[-1]
    return [x, Tensor(1.0 + 0.3 * rng.normal(size=d), requires_grad=True), rand_tensor(rng, d)]


@pytest.mark.parametrize("x_shape, x_grad", [
    ((3, 5, 6), True), ((1, 4, 6), True), ((7, 6), True), ((2, 3, 6), False)])
def test_affine_norm_matches_layer_norm_mul_add(x_shape, x_grad):
    rng = np.random.default_rng(32)
    inputs = norm_inputs(rng, x_shape, x_grad)
    inputs[0].data[..., 0, :] = 2.5  # a zero-variance row maps to the bias
    assert_fused_matches(ag.affine_norm, unfused.affine_norm, inputs, rng)
    zero_row = ag.affine_norm(*inputs).data[..., 0, :]
    np.testing.assert_allclose(zero_row - inputs[2].data, 0.0, atol=1e-9)


@pytest.mark.parametrize("x_shape", [(7, 6), (3, 5, 6)])
def test_affine_norm_is_the_out_of_place_form_bit_for_bit(x_shape):
    rng = np.random.default_rng(36)
    x, gain, bias = norm_inputs(rng, x_shape)
    x.data[..., 0, :] = 2.5  # a zero-variance row
    upstream = rng.normal(size=x_shape)
    out, grads = forward_backward(ag.affine_norm, [x, gain, bias], upstream)
    want = unfused.affine_norm_forward_backward(x.data, gain.data, bias.data, upstream)
    for got, ref in zip([out] + grads, want):
        np.testing.assert_array_equal(got, ref)


def test_affine_norm_shape_error():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):  # gain and bias are [d]
        ag.affine_norm(x, Tensor(np.ones((1, 4))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        ag.affine_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(3)))


def test_affine_norm_fd():
    rng = np.random.default_rng(33)
    x, gain, bias = norm_inputs(rng, (2, 3, 5))
    up = rng.normal(size=(2, 3, 5))
    fd_check(lambda: (ag.affine_norm(x, gain, bias) * Tensor(up)).sum(), [x, gain, bias])


def attention_case(name, rng):
    """(q, k, v, bias) for d = 6 over two heads."""
    B, Lq, Lk = {"self": (2, 5, 5), "b1": (1, 4, 4), "cross": (2, 4, 7),
                 "causal": (3, 5, 5)}[name]
    q = rand_tensor(rng, B, Lq, 6)
    k, v = rand_tensor(rng, B, Lk, 6), rand_tensor(rng, B, Lk, 6)
    lens = np.maximum(Lk - np.arange(B) * 2, 1)
    key_bias = _key_bias(np.arange(Lk)[None, :] < lens[:, None])
    if name == "causal":  # the decoder's self-attention bias
        return q, k, v, _causal_bias(Lq) + key_bias
    return q, k, v, key_bias


@pytest.mark.parametrize("name", ["self", "b1", "cross", "causal"])
def test_multi_head_attention_matches_split_attend_merge(name):
    rng = np.random.default_rng(34)
    q, k, v, bias = attention_case(name, rng)

    def fused(q, k, v):
        return ag.multi_head_attention(q, k, v, 2, bias)[0]

    def reference(q, k, v):
        return unfused.multi_head_attention(q, k, v, 2, bias)[0]

    assert_fused_matches(fused, reference, [q, k, v], rng)
    w = ag.multi_head_attention(q, k, v, 2, bias)[1]
    np.testing.assert_allclose(w, unfused.multi_head_attention(q, k, v, 2, bias)[1].data,
                               rtol=1e-12, atol=1e-12)
    assert type(w) is np.ndarray  # outside the graph
    assert np.all(w[np.broadcast_to(bias, w.shape) < 0] == 0.0)


@pytest.mark.parametrize("name", ["self", "b1", "cross", "causal"])
def test_multi_head_attention_is_the_out_of_place_form_bit_for_bit(name):
    rng = np.random.default_rng(37)
    q, k, v, bias = attention_case(name, rng)
    upstream = rng.normal(size=q.shape)
    out, w = ag.multi_head_attention(q, k, v, 2, bias=bias)
    ag.mul(out, Tensor(upstream)).sum().backward()
    want = unfused.attention_forward_backward(q.data, k.data, v.data, 2, bias, upstream)
    for got, ref in zip((out.data, w, q.grad, k.grad, v.grad), want):
        np.testing.assert_array_equal(got, ref)


def test_sum_helpers_match_numpy_sums():
    """The kernels' ones-vector sums agree with numpy's reductions to 1e-14
    relative to the sum of magnitudes, the scale on which reordering a sum
    rounds, on the default model's shapes (d = 32, FFN 64, two heads, batch
    32, speech and text lengths), with a zero-variance norm row and an
    attention row whose keys are all masked but two."""
    rng = np.random.default_rng(38)

    def check(x):
        scale = np.abs(x).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(ag._rowsum(x) - x.sum(axis=-1, keepdims=True)) <= 1e-14 * scale)
        rows = x.reshape(-1, x.shape[-1])
        assert np.all(np.abs(ag._colsum(x) - rows.sum(axis=0))
                      <= 1e-14 * np.abs(rows).sum(axis=0))

    for L in (36, 9):
        x = rng.normal(size=(32, L, 32)) * 3.0 + 0.7
        x[0, 0] = 0.1  # a zero-variance row
        xhat, inv = ag._normalize(x)
        assert np.all(np.abs(xhat[0, 0]) < 1e-9)
        g = rng.normal(size=x.shape)
        xc = x - ag._rowsum(x) / 32
        for arr in (x, xc * xc, g, g * xhat, rng.normal(size=(32, L, 64))):
            check(arr)
        scores = rng.normal(size=(32, 2, L, L)) * 4.0
        scores[0, :, :, 2:] += ag.MASK_BIAS  # item 0 has two keys
        w = np.exp(scores - scores.max(axis=-1, keepdims=True))
        check(w)
        check(w * rng.normal(size=w.shape))
        w /= ag._rowsum(w)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-14)
        assert np.all(w[0, :, :, 2:] == 0.0)


def test_multi_head_attention_fd():
    rng = np.random.default_rng(35)
    q, k, v, bias = attention_case("cross", rng)
    up = rng.normal(size=q.shape)
    fd_check(lambda: (ag.multi_head_attention(q, k, v, 2, bias)[0] * Tensor(up)).sum(),
             [q, k, v])


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


def test_backward_through_a_released_node_raises():
    """Two losses that share a forward: the first backward releases the
    shared nodes, and the second raises instead of skipping them."""
    x = Tensor(np.arange(3.0), requires_grad=True)
    h = ag.relu(x * 2.0)
    first, second = h.sum(), (h * h).sum()
    first.backward()
    assert (h.grad, h._backward, h._parents) == (None, None, ())
    with pytest.raises(RuntimeError, match="released"):
        second.backward()


def unfreed_backward(loss):
    """The backward pass without releasing: every node's closure runs once,
    in the same reverse topological order, and the graph stays intact."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p._backward is not None and id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node.grad is not None:
            node._backward(node.grad)


def test_freeing_backward_leaf_grads_match_an_unfreed_graph():
    """The training objective's leaf gradients are bitwise those of a pass
    that frees nothing."""
    cfg = RunConfig(corpus=CorpusConfig(vocab_size=5, max_src_len=3, seed=6),
                    model=ModelConfig(d_model=16, n_heads=2, ffn_dim=24, seed=6),
                    scheduler=SchedulerConfig(), training=TrainingConfig(batch_size=3, seed=6),
                    toggles=Toggles())
    model = train_mod.build_model(cfg)
    batch = train_mod.batch_for_step(cfg, 1, 3)
    grads = []
    for backward in (Tensor.backward, unfreed_backward):
        model.zero_grad()
        bundle, _ = train_mod.compute_losses(model, batch, cfg,
                                             train_mod.make_task_weights(cfg), 1, True)
        backward(bundle.total)
        grads.append([p.grad for p in model.parameters()])
    assert all(g is not None for g in grads[0])
    for freed, kept in zip(*grads):
        np.testing.assert_array_equal(freed, kept)


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
