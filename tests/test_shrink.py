"""Length compression: greedy path, run merging, look-back attention, fusion."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_item_reference as reference
from per_item_reference import lbm_lookback, merge_repeats
from stlab import autograd as ag
from stlab.autograd import Tensor
from stlab.gradcheck import check_gradients
from stlab.model import LbmParams
from stlab.shrink import CtcPath, ctc_greedy_path, lbm_fuse, shrink_batch, shrink_sequence


def make_lbm(d=4, f=8, seed=0):
    return LbmParams(np.random.default_rng(seed), d, f)


def path(tokens, confidences):
    return CtcPath(np.asarray(tokens), np.asarray(confidences, dtype=float))


def test_ctc_path_length_mismatch():
    with pytest.raises(ValueError):
        CtcPath(np.array([1, 2]), np.array([0.5]))


def test_greedy_path_argmax_and_tie():
    lp = np.log(np.array([[0.5, 0.3, 0.2],
                          [0.4, 0.4, 0.2]]))  # tie -> lower id wins
    p = ctc_greedy_path(lp)
    np.testing.assert_array_equal(p.tokens, [0, 0])
    np.testing.assert_allclose(p.confidences, [0.5, 0.4])


def test_merge_repeats_keeps_blanks_and_picks_confident_frame():
    p = path([1, 1, 1, 0, 2, 2], [0.2, 0.9, 0.4, 0.8, 0.6, 0.6])
    s = merge_repeats(p)
    np.testing.assert_array_equal(s.unique_tokens, [1, 0, 2])
    np.testing.assert_array_equal(s.origin_index, [1, 3, 4])  # tie in run 2 -> leftmost
    np.testing.assert_array_equal(s.seg_start, [0, 3, 4])
    np.testing.assert_array_equal(s.seg_end, [2, 3, 5])
    # boundary = max distance from representative to either run edge
    np.testing.assert_array_equal(s.boundary, [1, 0, 1])
    assert s.m == 3


def test_merge_repeats_single_run():
    s = merge_repeats(path([5, 5, 5, 5], [0.1, 0.1, 0.9, 0.1]))
    assert s.m == 1
    assert s.origin_index[0] == 2
    assert s.boundary[0] == 2  # max(2-0, 3-2)


def test_merge_rejects_empty():
    with pytest.raises(ValueError):
        merge_repeats(path([], []))


def test_decompress_roundtrip():
    tokens = np.array([1, 1, 0, 2, 2, 2, 0, 0, 3])
    conf = np.linspace(0.1, 0.9, len(tokens))
    s = merge_repeats(path(tokens, conf))
    np.testing.assert_array_equal(s.decompress(), tokens)


def test_lookback_empty_window_gives_zero():
    """A single-frame run with boundary 0 has nothing to look back at."""
    feats = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    s = merge_repeats(path([1, 2, 3], [0.9, 0.9, 0.9]))
    assert np.all(s.boundary == 0)
    out = lbm_lookback(feats, s, make_lbm())
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_lookback_window_excludes_representative():
    """With exactly one other frame in the window, the softmax must put all
    mass on it, so s_tilde equals that frame."""
    rng = np.random.default_rng(1)
    feats = Tensor(rng.normal(size=(2, 4)))
    s = merge_repeats(path([7, 7], [0.2, 0.9]))  # j=1, b=1, window={0}
    out = lbm_lookback(feats, s, make_lbm())
    np.testing.assert_allclose(out.data[0], feats.data[0], atol=1e-12)


def test_lookback_window_clipped_at_edges():
    rng = np.random.default_rng(2)
    feats = Tensor(rng.normal(size=(3, 4)))
    # one run over all 3 frames, representative at 0 -> b=2, window {1, 2}
    s = merge_repeats(path([4, 4, 4], [0.9, 0.1, 0.1]))
    out = lbm_lookback(feats, s, make_lbm())
    # output is a convex combination of frames 1 and 2
    w = np.linalg.lstsq(feats.data[1:].T, out.data[0], rcond=None)[0]
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(w > -1e-9)


def test_fuse_shape_error():
    lbm = make_lbm()
    with pytest.raises(ag.ShapeError):
        lbm_fuse(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), lbm)


def test_fuse_no_residual():
    """Fusion output depends on the inputs only through FFN(Norm(.)): with
    zero FFN weights, the output is the bias, not the input."""
    lbm = make_lbm()
    lbm.ffn.w2.w.data[:] = 0.0
    lbm.ffn.w2.b.data[:] = 7.0
    rng = np.random.default_rng(3)
    out = lbm_fuse(Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 4))), lbm)
    np.testing.assert_allclose(out.data, 7.0)


def test_shrink_sequence_ratio_and_grad_reach():
    """Backward from the fused output touches every frame of every
    multi-frame segment (information preservation through the look-back)."""
    rng = np.random.default_rng(4)
    n, d, V = 9, 4, 3
    feats = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    tokens = np.array([1, 1, 1, 0, 2, 2, 0, 0, 1])
    lp = np.full((n, V), -10.0)
    lp[np.arange(n), tokens] = -0.1
    shrunk, fused, ratio = shrink_sequence(feats, Tensor(lp), make_lbm())
    assert ratio == pytest.approx(5 / 9)
    np.testing.assert_array_equal(shrunk.decompress(), tokens)
    fused.sum().backward()
    frame_grad = np.linalg.norm(feats.grad, axis=1)
    for lo, hi in zip(shrunk.seg_start, shrunk.seg_end):
        assert np.all(frame_grad[lo:hi + 1] > 0.0)


def test_shrink_sequence_without_lbm_is_gather():
    rng = np.random.default_rng(5)
    feats = Tensor(rng.normal(size=(4, 3)))
    lp = np.log(np.full((4, 2), 0.5))
    lp[:2, 1], lp[2:, 0] = 0.0, 0.0
    shrunk, fused, _ = shrink_sequence(feats, Tensor(lp), make_lbm(d=3), use_lbm=False)
    np.testing.assert_array_equal(fused.data, feats.data[shrunk.origin_index])


def test_lookback_and_fuse_fd():
    rng = np.random.default_rng(6)
    d, f = 4, 6
    lbm = LbmParams(rng, d, f)
    feats = Tensor(rng.normal(size=(6, d)), requires_grad=True)
    s = merge_repeats(path([1, 1, 0, 2, 2, 2], rng.uniform(0.1, 0.9, 6)))

    def loss():
        s_prime = feats[(s.origin_index,)]
        return lbm_fuse(s_prime, lbm_lookback(feats, s, lbm), lbm).sum()

    check_gradients(loss, [feats] + lbm.tensors, rel_tol=1e-4, step=1e-6)


def test_shrink_batch_padding_and_mask():
    rng = np.random.default_rng(7)
    B, T, d, V = 3, 6, 4, 3
    feats = Tensor(rng.normal(size=(B, T, d)), requires_grad=True)
    lp = Tensor(rng.normal(size=(B, T, V)))
    lens = np.array([6, 4, 2])
    out, mask, shrunks, ratio = shrink_batch(feats, lp, lens, make_lbm(), per_item=True)
    assert shrink_batch(feats, lp, lens, make_lbm())[2] is None  # per item only on request
    m_max = max(s.m for s in shrunks)
    assert out.shape == (B, m_max, d)
    for b, s in enumerate(shrunks):
        assert mask[b, :s.m].all() and not mask[b, s.m:].any()
        np.testing.assert_array_equal(out.data[b, s.m:], 0.0)
    assert ratio == pytest.approx(np.mean([s.m / n for s, n in zip(shrunks, lens)]))


@settings(max_examples=100, deadline=None)
@given(tokens=st.lists(st.integers(0, 3), min_size=1, max_size=20),
       seed=st.integers(0, 2**32 - 1))
def test_merge_then_decompress_is_identity(tokens, seed):
    conf = np.random.default_rng(seed).choice([0.25, 0.5, 0.75], size=len(tokens))
    s = merge_repeats(path(tokens, conf))
    np.testing.assert_array_equal(s.decompress(), tokens)
    assert np.all(s.unique_tokens[1:] != s.unique_tokens[:-1])


SHRUNK_FIELDS = ("unique_tokens", "origin_index", "seg_start", "seg_end", "boundary")


def _shrink_and_backward(shrink_fn, feats, lp, lens, lbm, use_lbm, weights):
    x = Tensor(feats, requires_grad=True)
    for t in lbm.tensors:
        t.grad = None
    out, mask, shrunks, ratio = shrink_fn(x, Tensor(lp), lens, lbm, use_lbm=use_lbm)
    ag.mul(out, Tensor(weights[:, :out.shape[1]])).sum().backward()
    grads = [x.grad] + [t.grad for t in lbm.tensors]
    return out.data, mask, shrunks, ratio, grads


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shrink_batch_matches_per_item_loop(data):
    """One batched pass against the per-item loop: fused rows, mask, every
    ShrunkSequence field, the ratio, and the gradients of the features and
    of every look-back parameter. Log-probs on a coarse grid make runs,
    repeats across item boundaries and confidence ties common."""
    B = data.draw(st.integers(1, 5))
    T = data.draw(st.integers(1, 9))
    V = data.draw(st.integers(2, 4))
    use_lbm = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d = 4
    lens = rng.integers(1, T + 1, size=B)
    lens[rng.integers(B)] = T
    feats = rng.normal(size=(B, T, d))
    lp = np.log(rng.choice([0.1, 0.3, 0.6], size=(B, T, V)))
    lbm = LbmParams(rng, d, 6)
    weights = rng.normal(size=(B, T, d))

    out, mask, shrunks, ratio, grads = _shrink_and_backward(
        functools.partial(shrink_batch, per_item=True), feats, lp, lens, lbm, use_lbm, weights)
    ref_out, ref_mask, ref_shrunks, ref_ratio, ref_grads = _shrink_and_backward(
        reference.shrink_batch, feats, lp, lens, lbm, use_lbm, weights)

    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(mask, ref_mask)
    assert ratio == pytest.approx(ref_ratio, abs=1e-12)
    assert len(shrunks) == len(ref_shrunks) == B
    for s, r in zip(shrunks, ref_shrunks):
        for name in SHRUNK_FIELDS:
            np.testing.assert_array_equal(getattr(s, name), getattr(r, name), err_msg=name)
    for g, r in zip(grads, ref_grads):
        if r is None:  # without the look-back its parameters get no gradient
            assert g is None
        else:
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)


def test_shrink_batch_fd():
    rng = np.random.default_rng(8)
    B, T, d, V = 3, 7, 4, 3
    lbm = LbmParams(rng, d, 6)
    feats = Tensor(rng.normal(size=(B, T, d)), requires_grad=True)
    lp = Tensor(np.log(rng.choice([0.1, 0.3, 0.6], size=(B, T, V))))
    lens = np.array([7, 5, 3])
    weights = Tensor(rng.normal(size=(B, T, d)))

    def loss():
        out, _, _, _ = shrink_batch(feats, lp, lens, lbm)
        return ag.mul(out, weights[(slice(None), slice(0, out.shape[1]))]).sum()

    shrunks = shrink_batch(feats, lp, lens, lbm, per_item=True)[2]
    assert any(s.m < n for s, n in zip(shrunks, lens))
    check_gradients(loss, [feats] + lbm.tensors, rel_tol=1e-4, step=1e-6)
