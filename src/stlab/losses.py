"""Training objectives: cross-entropy, CTC, contrastive alignment,
extractor/attention consistency, and the weighted total."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import BLANK_ID


class CtcInfeasibleError(ValueError):
    """Target cannot be emitted in the given number of frames."""


def ce_loss(logits: Tensor, targets, pad_id: int) -> Tensor:
    """Mean negative log-likelihood over non-pad target positions.

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
    return -picked.sum() / n_valid


def ctc_feasible(n_frames: int, target) -> bool:
    target = np.asarray(target)
    repeats = int(np.count_nonzero(target[1:] == target[:-1]))
    return n_frames >= len(target) + repeats


def ctc_loss(log_probs: Tensor, target) -> Tensor:
    """-log P(target | log_probs) summed over all CTC alignments.

    log_probs: [T, V] rows of log-probabilities with blank id 0;
    target: int [L] of non-blank labels. Log-space forward algorithm;
    gradient via the forward-backward occupation posteriors.
    """
    target = np.asarray(target, dtype=np.int64)
    lp = log_probs.data
    T, V = lp.shape
    L = len(target)
    if L == 0:
        raise CtcInfeasibleError("empty target")
    if np.any(target == BLANK_ID) or np.any(target >= V):
        raise ValueError("ctc_loss: target labels must be non-blank and < V")
    if not ctc_feasible(T, target):
        raise CtcInfeasibleError(
            f"target of length {L} (with repeats) cannot fit in {T} frames")

    ext = np.full(2 * L + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = target
    S = ext.size
    # skip transition s-2 -> s allowed where ext[s] is a label differing from ext[s-2]
    can_skip = np.zeros(S, dtype=bool)
    can_skip[3::2] = ext[3::2] != ext[1:-2:2]

    neg = -np.inf
    alpha = np.full((T, S), neg)
    alpha[0, 0] = lp[0, BLANK_ID]
    alpha[0, 1] = lp[0, ext[1]]
    for t in range(1, T):
        prev = alpha[t - 1]
        stay = prev
        step = np.concatenate(([neg], prev[:-1]))
        a = np.logaddexp(stay, step)
        skip = np.concatenate(([neg, neg], prev[:-2]))
        a = np.where(can_skip, np.logaddexp(a, skip), a)
        alpha[t] = a + lp[t, ext]
    log_z = np.logaddexp(alpha[T - 1, S - 1], alpha[T - 1, S - 2])

    def bwd(g):
        if not log_probs.requires_grad:
            return
        beta = np.full((T, S), neg)
        beta[T - 1, S - 1] = lp[T - 1, BLANK_ID]
        beta[T - 1, S - 2] = lp[T - 1, ext[S - 2]]
        for t in range(T - 2, -1, -1):
            nxt = beta[t + 1]
            stay = nxt
            step = np.concatenate((nxt[1:], [neg]))
            b = np.logaddexp(stay, step)
            skip = np.concatenate((nxt[2:], [neg, neg]))
            skip_from = np.zeros(S, dtype=bool)
            skip_from[:-2] = can_skip[2:]
            b = np.where(skip_from, np.logaddexp(b, skip), b)
            beta[t] = b + lp[t, ext]
        gamma = alpha + beta - lp[:, ext] - log_z  # log occupation posterior
        grad = np.zeros_like(lp)
        occ = np.exp(gamma)
        np.add.at(grad, (np.repeat(np.arange(T), S), np.tile(ext, T)), occ.ravel())
        ag._acc(log_probs, -float(g) * grad)

    return ag._make(np.asarray(-log_z), (log_probs,), bwd)


def task_loss(out, batch, task: str, asr_variant: str = "ctc") -> Tensor:
    """A task's own unweighted loss from its forward outputs (TaskOutputs).

    CE on the logits for ST and MT. For ASR: the batch mean of the CTC loss
    over each item's valid frames (`ctc`), CE on the decoded source (`ce`),
    or their sum (`ctc+ce`).
    """
    if task != "asr" or asr_variant == "ce":
        return ce_loss(out.logits, out.targets, batch.pad_id)
    terms = [ctc_loss(out.ctc_log_probs[b][(slice(0, int(n)),)],
                      batch.src_tokens[b, : batch.src_lens[b]])
             for b, n in enumerate(batch.speech_lens)]
    ctc = sum(terms[1:], terms[0]) / len(terms)
    if asr_variant == "ctc":
        return ctc
    return ctc + ce_loss(out.logits, out.targets, batch.pad_id)


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


@dataclass
class LossBundle:
    l_st: Tensor
    l_asr: Tensor | None
    l_mt: Tensor | None
    l_cl: Tensor | None
    l_consistency: Tensor | None
    w_asr: float
    w_mt: float
    w_cl: float
    total: Tensor
    l_ctc: Tensor | None = None

    def scalars(self):
        def v(t):
            return None if t is None else t.item()
        return {"st": v(self.l_st), "asr": v(self.l_asr), "mt": v(self.l_mt),
                "cl": v(self.l_cl), "consistency": v(self.l_consistency),
                "ctc": v(self.l_ctc), "total": self.total.item()}


def total_loss(l_st: Tensor, l_asr=None, l_mt=None, l_cl=None, l_consistency=None,
               w_asr: float = 1.0, w_mt: float = 1.0, w_cl: float = 0.3,
               l_ctc=None) -> LossBundle:
    """Weighted multi-task objective; the consistency regularizer and the
    segmenter CTC term (kept once ASR is pruned) enter with fixed
    coefficient 1. Pruned tasks are passed as None."""
    for name, w in (("w_asr", w_asr), ("w_mt", w_mt), ("w_cl", w_cl)):
        if w < 0:
            raise ValueError(f"{name} must be non-negative, got {w}")
    total = l_st
    if l_asr is not None:
        total = total + ag.mul_scalar(l_asr, w_asr)
    if l_mt is not None:
        total = total + ag.mul_scalar(l_mt, w_mt)
    if l_cl is not None:
        total = total + ag.mul_scalar(l_cl, w_cl)
    if l_consistency is not None:
        total = total + l_consistency
    if l_ctc is not None:
        total = total + l_ctc
    return LossBundle(l_st, l_asr, l_mt, l_cl, l_consistency, w_asr, w_mt, w_cl,
                      total, l_ctc)
