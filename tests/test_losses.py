"""Objective functions against oracles, hand computations, and FD checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_item_reference as reference
from stlab import autograd as ag
from stlab.autograd import Tensor
from stlab.gradcheck import check_gradients, finite_difference
from stlab.losses import (CL_WEIGHT, CtcInfeasibleError, ce_loss, consistency_loss,
                          contrastive_loss, ctc_feasible, ctc_loss,
                          ctc_loss_bruteforce, masked_mean_pool, task_loss,
                          total_loss)
from stlab.model import ASR_VARIANTS
from stlab.train import batch_for_step, build_model, compute_losses, make_task_weights
from test_train import tiny_config


def random_log_probs(rng, T, V):
    return Tensor(np.log(rng.dirichlet(np.ones(V), size=T)), requires_grad=True)


# -- cross entropy -----------------------------------------------------------


def test_ce_loss_hand_case():
    # uniform logits over 4 classes -> loss = log 4 at every position
    logits = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    targets = np.array([[1, 2, 9], [3, 9, 9]])  # 9 = pad
    loss = ce_loss(logits, targets, pad_id=9)
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_ce_loss_ignores_pad_positions():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    t_full = np.array([[1, 2, 3]])
    t_pad = np.array([[1, 2, 9]])
    l1 = ce_loss(logits, t_pad, pad_id=9)
    l1.backward()
    assert np.all(logits.grad[0, 2] == 0.0)  # padded position contributes nothing
    assert l1.item() != ce_loss(Tensor(logits.data), t_full, pad_id=9).item()


def test_ce_loss_all_pad_raises():
    with pytest.raises(ValueError):
        ce_loss(Tensor(np.zeros((1, 2, 4))), np.array([[9, 9]]), pad_id=9)


def test_ce_loss_fd():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    targets = np.array([[1, 4, 9], [2, 9, 9]])
    check_gradients(lambda: ce_loss(logits, targets, pad_id=9), [logits],
                    rel_tol=1e-6, step=1e-6)


# -- CTC ----------------------------------------------------------------------


def test_ctc_single_frame_single_label():
    lp = random_log_probs(np.random.default_rng(2), 1, 3)
    loss = ctc_loss(lp, np.array([2]))
    assert loss.item() == pytest.approx(-lp.data[0, 2], abs=1e-12)


def test_ctc_two_frames_hand_sum():
    """T=2, target [1]: paths are (1,1), (0,1), (1,0)."""
    lp = random_log_probs(np.random.default_rng(3), 2, 3)
    p = np.exp(lp.data)
    expect = (p[0, 1] * p[1, 1] + p[0, 0] * p[1, 1] + p[0, 1] * p[1, 0])
    assert ctc_loss(lp, np.array([1])).item() == pytest.approx(-np.log(expect), abs=1e-10)


def test_ctc_matches_bruteforce_small():
    rng = np.random.default_rng(4)
    for _ in range(25):
        T = int(rng.integers(1, 6))
        V = int(rng.integers(2, 5))
        L = int(rng.integers(1, 4))
        target = rng.integers(1, V, size=L)
        if not ctc_feasible(T, target):
            continue
        lp = random_log_probs(rng, T, V)
        fast = ctc_loss(lp, target).item()
        slow = ctc_loss_bruteforce(lp, target)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_ctc_repeat_labels_need_separator():
    lp = random_log_probs(np.random.default_rng(5), 2, 3)
    with pytest.raises(CtcInfeasibleError):
        ctc_loss(lp, np.array([1, 1]))  # needs >= 3 frames
    # 3 frames is exactly feasible: the only path is (1, blank, 1)
    lp3 = random_log_probs(np.random.default_rng(6), 3, 3)
    p = np.exp(lp3.data)
    expect = p[0, 1] * p[1, 0] * p[2, 1]
    assert ctc_loss(lp3, np.array([1, 1])).item() == pytest.approx(-np.log(expect), abs=1e-10)


def test_ctc_rejects_bad_targets():
    lp = random_log_probs(np.random.default_rng(7), 3, 3)
    with pytest.raises(CtcInfeasibleError):
        ctc_loss(lp, np.array([], dtype=int))
    with pytest.raises(ValueError):
        ctc_loss(lp, np.array([0]))  # blank is not a label
    with pytest.raises(ValueError):
        ctc_loss(lp, np.array([3]))  # out of class range


def test_ctc_gradient_fd():
    rng = np.random.default_rng(8)
    for _ in range(5):
        lp = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        target = np.array([1, 2, 1])

        def f():
            return ctc_loss(ag.log_softmax(lp, axis=-1), target)

        check_gradients(f, [lp], rel_tol=1e-5, step=1e-6)


def test_ctc_gradient_direct_log_prob_inputs():
    """Analytic grad w.r.t. the log-prob rows themselves (no softmax)."""
    rng = np.random.default_rng(9)
    lp = random_log_probs(rng, 4, 3)
    loss = ctc_loss(lp, np.array([2, 1]))
    loss.backward()
    for index in [(0, 0), (1, 2), (3, 1), (2, 2)]:
        num = finite_difference(lambda: ctc_loss(Tensor(lp.data, requires_grad=True),
                                                 np.array([2, 1])), lp, index, step=1e-6)
        assert lp.grad[index] == pytest.approx(num, rel=1e-5, abs=1e-8)


def test_ctc_rejects_the_first_bad_item_of_a_batch():
    """A batch raises what the first failing item would raise on its own."""
    lp = Tensor(np.log(np.full((3, 4, 3), 1 / 3)))
    targets = np.array([[1, 2, 9], [1, 1, 1], [0, 9, 9]])  # 9 = pad past the lengths
    with pytest.raises(CtcInfeasibleError, match="cannot fit in 4 frames"):
        ctc_loss(lp, targets, [4, 4, 4], [2, 3, 1])
    with pytest.raises(ValueError, match="non-blank"):
        ctc_loss(lp, targets, [4, 4, 4], [2, 2, 1])
    with pytest.raises(CtcInfeasibleError, match="empty target"):
        ctc_loss(lp, targets, [4, 4, 4], [2, 0, 1])
    with pytest.raises(ValueError, match="frame_lens"):
        ctc_loss(lp, targets, [4, 5, 4], [2, 2, 2])


def _feasible_target(draw, V, max_frames):
    """A random non-blank target that fits in max_frames >= 1 frames."""
    L = draw(st.integers(1, max_frames))
    target = np.array(draw(st.lists(st.integers(1, V - 1), min_size=L, max_size=L)))
    while not ctc_feasible(max_frames, target):
        target = target[:-1]
    return target


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ctc_batch_matches_bruteforce(data):
    """Every item of a padded batch against path enumeration (T <= 5, V <= 3)."""
    B = data.draw(st.integers(1, 3))
    V = data.draw(st.integers(2, 3))
    T = data.draw(st.integers(1, 5))
    frames = np.array([data.draw(st.integers(1, T)) for _ in range(B)])
    targets = [_feasible_target(data.draw, V, int(n)) for n in frames]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lp = np.log(rng.dirichlet(np.ones(V), size=(B, T)))
    padded = np.full((B, max(len(t) for t in targets)), 9)
    for b, t in enumerate(targets):
        padded[b, :len(t)] = t
    per_item = [ctc_loss_bruteforce(lp[b, :n], targets[b]) for b, n in enumerate(frames)]
    for b, n in enumerate(frames):
        assert ctc_loss(Tensor(lp[b, :n]), targets[b]).item() == pytest.approx(
            per_item[b], abs=1e-10)
    batched = ctc_loss(Tensor(lp), padded, frames, [len(t) for t in targets])
    assert batched.item() == pytest.approx(np.mean(per_item), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ctc_batch_matches_per_item_dp(data):
    """Loss and gradient of one batched call against the per-item dynamic
    program, averaged as the training loss averages it; includes B = 1,
    repeated labels and items exactly at the feasibility edge."""
    B = data.draw(st.integers(1, 5))
    V = data.draw(st.integers(2, 6))
    T = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    frames, targets = [], []
    for _ in range(B):
        n = data.draw(st.integers(1, T))
        target = _feasible_target(data.draw, V, n)
        if data.draw(st.booleans()):  # at the edge: no spare frame
            n = len(target) + int(np.count_nonzero(target[1:] == target[:-1]))
        frames.append(n)
        targets.append(target)
    T = max(frames)
    padded = np.full((B, max(len(t) for t in targets)), V + 3)
    for b, t in enumerate(targets):
        padded[b, :len(t)] = t
    logits = rng.normal(scale=2.0, size=(B, T, V))

    x = Tensor(logits, requires_grad=True)
    batched = ctc_loss(ag.log_softmax(x, axis=-1), padded, frames,
                       [len(t) for t in targets])
    batched.backward()
    x_ref = Tensor(logits, requires_grad=True)
    lp_ref = ag.log_softmax(x_ref, axis=-1)
    terms = [reference.ctc_loss(lp_ref[b][(slice(0, n),)], targets[b])
             for b, n in enumerate(frames)]
    per_item = sum(terms[1:], terms[0]) / B
    per_item.backward()
    assert batched.item() == pytest.approx(per_item.item(), abs=1e-12)
    np.testing.assert_allclose(x.grad, x_ref.grad, rtol=0, atol=1e-12)


# -- pooling and contrastive ---------------------------------------------------


def test_masked_mean_pool():
    seq = Tensor(np.arange(12, dtype=float).reshape(1, 4, 3), requires_grad=True)
    mask = np.array([[1, 1, 0, 0]])
    out = masked_mean_pool(seq, mask)
    np.testing.assert_allclose(out.data[0], seq.data[0, :2].mean(axis=0))
    with pytest.raises(ValueError):
        masked_mean_pool(seq, np.zeros((1, 4)))


def _manual_contrastive(s, x, tau):
    sn = s / np.linalg.norm(s, axis=1, keepdims=True)
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    sims = sn @ xn.T / tau
    B = len(s)
    losses = []
    for i in range(B):
        neg = np.delete(sims[i], i)
        losses.append(np.log(np.exp(neg).sum()) - sims[i, i])
    return float(np.mean(losses))


def test_contrastive_matches_manual():
    rng = np.random.default_rng(10)
    B, L, d = 4, 3, 6
    s = rng.normal(size=(B, L, d))
    x = rng.normal(size=(B, L, d))
    mask = np.ones((B, L), dtype=bool)
    loss = contrastive_loss(Tensor(s), mask, Tensor(x), mask, tau=0.1)
    expect = _manual_contrastive(s.mean(axis=1), x.mean(axis=1), 0.1)
    assert loss.item() == pytest.approx(expect, abs=1e-8)


def test_contrastive_identical_pairs_can_go_negative():
    """With the positive excluded from the denominator, perfectly aligned
    pairs and orthogonal negatives drive the loss below zero."""
    B, d = 3, 4
    vecs = np.eye(B, d)
    seq = Tensor(vecs[:, None, :])
    mask = np.ones((B, 1), dtype=bool)
    loss = contrastive_loss(seq, mask, Tensor(vecs[:, None, :]), mask, tau=0.1)
    # positives at sim 1/tau = 10, negatives at 0: L = log(B-1) - 10
    assert loss.item() == pytest.approx(np.log(B - 1) - 10.0, abs=1e-9)


def test_contrastive_needs_negatives():
    seq = Tensor(np.ones((1, 2, 3)))
    mask = np.ones((1, 2), dtype=bool)
    with pytest.raises(ValueError):
        contrastive_loss(seq, mask, seq, mask)


def test_contrastive_fd():
    rng = np.random.default_rng(11)
    s = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    mask = np.array([[1, 1], [1, 0], [1, 1]])
    check_gradients(lambda: contrastive_loss(s, mask, x, mask), [s, x],
                    rel_tol=1e-5, step=1e-6)


# -- consistency ----------------------------------------------------------------


def test_consistency_zero_for_identical_streams():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(2, 3, 4)))
    mask = np.ones((2, 3))
    loss = consistency_loss([a], [Tensor(a.data.copy())], mask)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_consistency_scale_invariant():
    """Layer-norming both streams makes the penalty scale-blind."""
    rng = np.random.default_rng(13)
    a = rng.normal(size=(1, 2, 5))
    mask = np.ones((1, 2))
    loss = consistency_loss([Tensor(a)], [Tensor(100.0 * a)], mask)
    assert loss.item() == pytest.approx(0.0, abs=1e-6)


def test_consistency_respects_mask():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(1, 3, 4))
    b = a.copy()
    b[0, 2] += 100.0  # only the masked position differs
    mask = np.array([[1, 1, 0]])
    loss = consistency_loss([Tensor(a)], [Tensor(b)], mask)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_consistency_layer_count_mismatch():
    a = Tensor(np.zeros((1, 2, 3)))
    with pytest.raises(ValueError):
        consistency_loss([a, a], [a], np.ones((1, 2)))


def test_consistency_fd():
    rng = np.random.default_rng(15)
    e = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    mask = np.array([[1, 1, 1], [1, 1, 0]])
    check_gradients(lambda: consistency_loss([e], [a], mask), [e, a],
                    rel_tol=1e-5, step=1e-6)


# -- weighted total ----------------------------------------------------------------


def _scalar(v):
    return Tensor(np.asarray(float(v)), requires_grad=True)


def test_total_loss_weighting():
    bundle = total_loss({"st": _scalar(1.0), "asr": _scalar(2.0), "mt": _scalar(3.0),
                         "cl": _scalar(4.0), "consistency": _scalar(5.0)},
                        {"asr": 0.5, "mt": 0.25, "cl": 0.3})
    assert bundle.total.item() == pytest.approx(1 + 1.0 + 0.75 + 1.2 + 5.0)
    scal = bundle.scalars()
    assert scal["st"] == 1.0 and scal["consistency"] == 5.0


def test_total_loss_skips_none():
    bundle = total_loss({"st": _scalar(1.5), "asr": None}, {"asr": 1.0})
    assert bundle.total.item() == 1.5
    assert bundle.scalars()["asr"] is None


def test_total_loss_default_cl_weight():
    """The trainer weights the contrastive term by CL_WEIGHT = 0.3."""
    assert CL_WEIGHT == 0.3
    bundle = total_loss({"st": _scalar(0.0), "cl": _scalar(10.0)}, {"cl": CL_WEIGHT})
    assert bundle.total.item() == pytest.approx(3.0)
    cfg = tiny_config(use_asr=False, use_mt=False, use_l2g=False)
    bundle, _ = compute_losses(build_model(cfg), batch_for_step(cfg, 1, 3), cfg,
                               make_task_weights(cfg), 1, False)
    s = bundle.scalars()
    assert s["cl"] is not None
    assert s["total"] == pytest.approx(s["st"] + 0.3 * s["cl"], rel=1e-12)


def test_total_loss_rejects_negative_weight():
    with pytest.raises(ValueError):
        total_loss({"st": _scalar(1.0), "asr": _scalar(1.0)}, {"asr": -0.1})


def test_total_loss_gradient_flows_to_all_terms():
    parts = [_scalar(v) for v in (1, 2, 3, 4, 5)]
    bundle = total_loss(dict(zip(("st", "asr", "mt", "cl", "consistency"), parts)),
                        {"asr": 0.5, "mt": 2.0, "cl": 0.3})
    bundle.total.backward()
    grads = [float(p.grad) for p in parts]
    assert grads == pytest.approx([1.0, 0.5, 2.0, 0.3, 1.0])


@pytest.mark.parametrize("variant", ASR_VARIANTS)
def test_task_loss_reads_the_asr_terms_off_the_outputs(variant):
    """An ASR loss is CE when the outputs carry logits and CTC otherwise,
    bitwise; the `ctc` outputs read off an ST pass drop its ST logits."""
    cfg = tiny_config(asr_variant=variant)
    model, batch = build_model(cfg), batch_for_step(cfg, 1, 3)
    out = model.asr_outputs(model.forward_task(batch, "st", use_shrink=True), batch, variant)
    if variant == "ce":
        want = ce_loss(out.logits, batch.src_tokens, batch.pad_id)
    else:
        assert out.logits is None
        want = ctc_loss(out.ctc_log_probs, batch.src_tokens, batch.speech_lens,
                        batch.src_lens)
    assert task_loss(out, batch).item() == want.item()
