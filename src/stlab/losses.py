"""Training objectives: cross-entropy, CTC, contrastive alignment,
extractor/attention consistency, and the weighted total.

CTC runs one log-space forward-backward over a whole padded batch, so a
training step makes one CTC call whatever the batch size; a single
sequence is the B = 1 case of the same kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import BLANK_ID


class CtcInfeasibleError(ValueError):
    """Target cannot be emitted in the given number of frames."""


def ce_loss(logits: Tensor, targets, pad_id: int, per_item: bool = False) -> Tensor:
    """Mean negative log-likelihood over non-pad target positions, or with
    per_item the sum over items of each item's own mean.

    logits: [B, L, V]; targets: int [B, L] with pad_id at padding.
    """
    targets = np.asarray(targets)
    mask = targets != pad_id
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("ce_loss: batch contains only padding")
    lp = ag.log_softmax(logits, axis=-1)
    b_idx, l_idx = np.nonzero(mask)
    picked = lp[(b_idx, l_idx, targets[b_idx, l_idx])]
    if per_item:
        return (picked * Tensor(-1.0 / mask.sum(axis=1)[b_idx])).sum()
    return -picked.sum() / n_valid


def _min_frames(targets, label_ok) -> np.ndarray:
    """Frames each target of [B, L] needs (label_ok masks its labels): one
    per label, plus a blank between each pair of equal adjacent labels."""
    repeats = (targets[:, 1:] == targets[:, :-1]) & label_ok[:, 1:]
    return label_ok.sum(axis=1) + repeats.sum(axis=1)


def ctc_feasible(n_frames: int, target) -> bool:
    target = np.asarray(target)[None]
    return bool(n_frames >= _min_frames(target, np.ones(target.shape, dtype=bool))[0])


def ctc_loss(log_probs: Tensor, targets, frame_lens=None, target_lens=None,
             per_item: bool = False) -> Tensor:
    """Batch mean of -log P(target | log_probs), summed over all CTC
    alignments; with per_item, the batch sum.

    log_probs: [B, T, V] rows of log-probabilities with blank id 0;
    targets: int [B, L] of non-blank labels, padded past target_lens;
    frame_lens / target_lens: valid frames and labels per item (default: all).
    The single-sequence form, log_probs [T, V] and target [L], is the B = 1
    case. One log-space forward-backward for the whole batch: the extended
    labels are padded to [B, S_max], frames past an item's length emit
    log-prob 0, and each item's lattice is read at its own last frame. The
    gradient comes from the forward-backward occupation posteriors.
    """
    lp = log_probs.data
    single = lp.ndim == 2
    targets = np.asarray(targets, dtype=np.int64)
    if single:
        lp, targets = lp[None], targets[None]
    B, T, V = lp.shape
    L = targets.shape[1]
    n_frames = np.full(B, T) if frame_lens is None else np.asarray(frame_lens, dtype=np.int64)
    n_labels = np.full(B, L) if target_lens is None else np.asarray(target_lens, dtype=np.int64)
    if np.any(n_frames > T):
        raise ValueError(f"ctc_loss: frame_lens exceed the {T} frames given")
    label_ok = np.arange(L)[None, :] < n_labels[:, None]
    bad = (((targets < 1) | (targets >= V)) & label_ok).any(axis=1)
    failing = np.flatnonzero((n_labels == 0) | bad
                             | (n_frames < _min_frames(targets, label_ok)))
    if failing.size:  # raise for the first failing item
        b = failing[0]
        if n_labels[b] == 0:
            raise CtcInfeasibleError("empty target")
        if bad[b]:
            raise ValueError("ctc_loss: target labels must be non-blank and < V")
        raise CtcInfeasibleError(f"target of length {n_labels[b]} (with repeats) "
                                 f"cannot fit in {n_frames[b]} frames")

    S = 2 * L + 1
    rows = np.arange(B)
    ext = np.full((B, S), BLANK_ID, dtype=np.int64)
    ext[:, 1::2] = np.where(label_ok, targets, BLANK_ID)
    # skip transition s-2 -> s allowed where ext[s] is a label differing from ext[s-2]
    can_skip = np.zeros((B, S), dtype=bool)
    can_skip[:, 3::2] = (ext[:, 3::2] != ext[:, 1:-2:2]) & label_ok[:, 1:]
    live = np.arange(T)[None, :] < n_frames[:, None]
    em = np.where(live[:, :, None], np.take_along_axis(lp, ext[:, None, :], axis=2), 0.0)
    em = em.transpose(1, 0, 2)                      # [T, B, S]
    last_t, last_s = n_frames - 1, 2 * n_labels     # each item's final frame and state

    neg = -np.inf
    # alpha[t, b, 2 + s]: two -inf columns in front stand for s-1, s-2 < 0
    alpha = np.full((T, B, S + 2), neg)
    alpha[0, :, 2:4] = em[0, :, :2]
    for t in range(1, T):
        prev = alpha[t - 1]
        a = np.logaddexp(prev[:, 2:], prev[:, 1:-1])
        a = np.where(can_skip, np.logaddexp(a, prev[:, :-2]), a)
        alpha[t, :, 2:] = a + em[t]
    log_z = np.logaddexp(alpha[last_t, rows, last_s + 2], alpha[last_t, rows, last_s + 1])

    def bwd(g):
        if not log_probs.requires_grad:
            return
        # beta[t, b, s]: two -inf columns after stand for s+1, s+2 >= S, and
        # rows past an item's last frame (row T too) stay -inf
        beta = np.full((T + 1, B, S + 2), neg)
        skip_from = np.zeros((B, S), dtype=bool)
        skip_from[:, :-2] = can_skip[:, 2:]
        start = np.full((B, S), neg)
        start[rows, last_s] = start[rows, last_s - 1] = 0.0
        for t in range(T - 1, -1, -1):
            nxt = beta[t + 1]
            b = np.logaddexp(nxt[:, :-2], nxt[:, 1:-1])
            b = np.where(skip_from, np.logaddexp(b, nxt[:, 2:]), b)
            b = np.where((last_t == t)[:, None], start, b)
            beta[t, :, :-2] = b + em[t]
        # occupation posterior per (frame, state), summed into its label's column
        gamma = alpha[:, :, 2:] + beta[:T, :, :-2] - em - log_z[:, None]
        occ = np.exp(gamma).transpose(1, 0, 2)                            # [B, T, S]
        onehot = (ext[:, :, None] == np.arange(V)).astype(np.float64)    # [B, S, V]
        grad = np.matmul(occ, onehot) * (-float(g) / (1 if per_item else B))
        ag._acc(log_probs, grad[0] if single else grad)

    loss = -log_z.sum() if per_item else -log_z.mean()
    return ag._make(np.asarray(loss), (log_probs,), bwd)


def task_loss(out, batch, per_item: bool = False) -> Tensor:
    """A task's own unweighted loss from its forward outputs (TaskOutputs).

    CE on the logits when the outputs carry them (ST, MT and the `ce` ASR
    variant); otherwise, for `ctc` ASR, the batch mean of the CTC loss over
    each item's valid frames. With per_item, the sum over items of each
    item's own loss, so each item's gradient is the one it has alone.
    """
    if out.logits is not None:
        return ce_loss(out.logits, out.targets, batch.pad_id, per_item)
    return ctc_loss(out.ctc_log_probs, batch.src_tokens, batch.speech_lens,
                    batch.src_lens, per_item)


def ctc_loss_bruteforce(log_probs, target) -> float:
    """Oracle: enumerate every frame labelling and sum the ones that
    collapse (merge repeats, drop blanks) to the target."""
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    target = tuple(np.asarray(target))
    T, V = lp.shape

    def collapse(path):
        out = []
        prev = None
        for p in path:
            if p != prev and p != BLANK_ID:
                out.append(p)
            prev = p
        return tuple(out)

    total = -np.inf
    for flat in np.ndindex(*([V] * T)):
        if collapse(flat) == target:
            total = np.logaddexp(total, sum(lp[t, k] for t, k in enumerate(flat)))
    if total == -np.inf:
        raise CtcInfeasibleError("no valid alignment")
    return -total


def masked_mean_pool(seq: Tensor, mask) -> Tensor:
    """Mean over valid time steps. seq: [B, L, d], mask: bool/float [B, L]."""
    m = np.asarray(mask, dtype=np.float64)
    counts = m.sum(axis=1, keepdims=True)
    if np.any(counts == 0):
        raise ValueError("masked_mean_pool: a sequence has no valid positions")
    weighted = ag.mul(seq, Tensor(m[:, :, None]))
    return ag.mul(weighted.sum(axis=1), Tensor(1.0 / counts))


def contrastive_loss(speech_seq: Tensor, speech_mask, text_seq: Tensor, text_mask,
                     tau: float = 0.1) -> Tensor:
    """Batch-negative contrastive alignment of pooled sequence pairs.

    Cosine similarity of mean-pooled sequences scaled by 1/tau; for each
    example the denominator sums over in-batch negatives j != i only.
    """
    B = speech_seq.shape[0]
    if B < 2:
        raise ValueError("contrastive loss undefined without negatives (need B >= 2)")
    s = masked_mean_pool(speech_seq, speech_mask)
    x = masked_mean_pool(text_seq, text_mask)
    s_norm = ag.mul(s, ag.pow_scalar((s * s).sum(axis=1, keepdims=True) + 1e-12, -0.5))
    x_norm = ag.mul(x, ag.pow_scalar((x * x).sum(axis=1, keepdims=True) + 1e-12, -0.5))
    sims = ag.mul_scalar(ag.matmul(s_norm, ag.transpose(x_norm, (1, 0))), 1.0 / tau)
    diag_idx = (np.arange(B), np.arange(B))
    pos = sims[diag_idx]
    off_diag_bias = np.where(np.eye(B, dtype=bool), ag.MASK_BIAS, 0.0)
    denom = ag.logsumexp(ag.add(sims, Tensor(off_diag_bias)), axis=1)
    return (denom - pos).sum() / B


def consistency_loss(extractor_outs, attention_outs, mask) -> Tensor:
    """MSE between layer-normalized extractor and attention sublayer outputs,
    averaged over layers, valid positions, and channels."""
    if len(extractor_outs) != len(attention_outs):
        raise ValueError(
            f"layer count mismatch: {len(extractor_outs)} vs {len(attention_outs)}")
    m = np.asarray(mask, dtype=np.float64)
    per_layer = []
    for e, a in zip(extractor_outs, attention_outs):
        if e.shape != a.shape:
            raise ValueError(f"shape mismatch between streams: {e.shape} vs {a.shape}")
        diff = ag.layer_norm(e) - ag.layer_norm(a)
        sq = ag.mul(diff * diff, Tensor(m[:, :, None]))
        per_layer.append(sq.sum() / (m.sum() * e.shape[-1]))
    total = per_layer[0]
    for x in per_layer[1:]:
        total = total + x
    return total / len(per_layer)


CL_WEIGHT = 0.3  # the contrastive term's fixed weight in the training objective


@dataclass
class LossBundle:
    terms: dict  # {name: Tensor, or None for a term that is off}, in summing order
    total: Tensor

    def scalars(self):
        return {**{name: None if t is None else t.item() for name, t in self.terms.items()},
                "total": self.total.item()}


def total_loss(terms: dict, weights: dict) -> LossBundle:
    """The weighted objective: the sum, in table order, of the
    {name: loss or None} table's terms, each scaled by its entry in
    `weights`; a term without one enters at weight 1, and None marks a
    term that is off (a pruned task)."""
    for name, w in weights.items():
        if w < 0:
            raise ValueError(f"the weight of {name!r} must be non-negative, got {w}")
    total = None
    for name, t in terms.items():
        if t is not None:
            t = ag.mul_scalar(t, weights[name]) if name in weights else t
            total = t if total is None else total + t
    return LossBundle(terms, total)
