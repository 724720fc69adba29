"""Per-item reference kernels: the single-sequence CTC dynamic program and
the per-item shrink loop that the batched kernels in `stlab.losses` and
`stlab.shrink` replaced. The tests compare the batched kernels with them."""

import numpy as np

from stlab import autograd as ag
from stlab.autograd import Tensor
from stlab.data import BLANK_ID
from stlab.losses import CtcInfeasibleError, ctc_feasible
from stlab.shrink import CtcPath, LbmParams, ShrunkSequence, lbm_fuse


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


def ctc_greedy_path(log_probs) -> CtcPath:
    """Per-frame argmax over log-probability rows; ties break toward the
    lower token id (np.argmax convention)."""
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    ids = np.argmax(lp, axis=-1)
    conf = np.exp(lp[np.arange(lp.shape[0]), ids])
    return CtcPath(ids, conf)


def merge_repeats(path: CtcPath) -> ShrunkSequence:
    """One position per maximal run of equal tokens; the representative is
    the highest-confidence frame in the run (ties leftmost). Blanks are kept."""
    toks = path.tokens
    n = len(toks)
    if n == 0:
        raise ValueError("cannot merge an empty path")
    boundaries = np.flatnonzero(np.concatenate(([True], toks[1:] != toks[:-1])))
    starts = boundaries
    ends = np.concatenate((boundaries[1:] - 1, [n - 1]))
    origin = np.array([s + int(np.argmax(path.confidences[s:e + 1]))
                       for s, e in zip(starts, ends)])
    b = np.maximum(origin - starts, ends - origin)
    return ShrunkSequence(toks[starts], origin, starts, ends, b)


def lbm_lookback(features: Tensor, shrunk: ShrunkSequence, lbm: LbmParams) -> Tensor:
    """Windowed look-back attention, vectorized over shrunk positions.

    features: [n, d]. For position i with representative j and boundary b,
    the search window is frames max(0, j-b)..min(j+b, n-1) excluding j; an
    empty window yields the zero vector.
    """
    n, d = features.shape
    j = shrunk.origin_index
    b = shrunk.boundary
    m = shrunk.m
    lo = np.maximum(0, j - b)
    hi = np.minimum(n - 1, j + b)
    width = int((hi - lo + 1).max()) if m else 0
    # window index grid, with the representative column masked out
    idx = lo[:, None] + np.arange(width)[None, :]
    valid = (idx <= hi[:, None]) & (idx != j[:, None])
    idx = np.minimum(idx, n - 1)

    s_prime = features[(j,)]                         # [m, d]
    window = features[(idx,)]                        # [m, w, d]
    rq = ag.matmul(s_prime, lbm.r_map)               # [m, d]
    ra = ag.matmul(window, lbm.r_map)                # [m, w, d]
    scores = ag.matmul(ag.reshape(rq, (m, 1, d)),
                       ag.transpose(ra, (0, 2, 1)))  # [m, 1, w]
    bias = np.where(valid, 0.0, ag.MASK_BIAS)[:, None, :]
    att = ag.softmax(ag.add(scores, Tensor(bias)), axis=-1)
    gathered = ag.reshape(ag.matmul(att, window), (m, d))
    nonempty = valid.any(axis=1).astype(np.float64)[:, None]
    return ag.mul(gathered, Tensor(nonempty))


def shrink_sequence(features: Tensor, log_probs, lbm: LbmParams,
                    use_lbm: bool = True):
    """Compress one sequence. features: [n, d]; log_probs: [n, V] rows.

    Returns (ShrunkSequence, fused features [m, d], length ratio m/n).
    """
    path = ctc_greedy_path(log_probs)
    shrunk = merge_repeats(path)
    s_prime = features[(shrunk.origin_index,)]
    if use_lbm:
        s_tilde = lbm_lookback(features, shrunk, lbm)
        fused = lbm_fuse(s_prime, s_tilde, lbm)
    else:
        fused = s_prime
    return shrunk, fused, shrunk.m / features.shape[0]


def shrink_batch(features: Tensor, log_probs: Tensor, lens, lbm: LbmParams,
                 use_lbm: bool = True):
    """Per-item shrinking over a padded batch.

    features: [B, T, d]; log_probs: [B, T, V]; lens: valid frames per item.
    Returns (padded fused [B, m_max, d], mask [B, m_max], shrunk list, mean ratio).
    """
    B, _, d = features.shape
    lens = np.asarray(lens)
    shrunks, fused_items, ratios = [], [], []
    for b in range(B):
        n = int(lens[b])
        shrunk, fused, ratio = shrink_sequence(
            features[b][(slice(0, n),)], log_probs[b][(slice(0, n),)], lbm, use_lbm)
        shrunks.append(shrunk)
        fused_items.append(fused)
        ratios.append(ratio)
    m_max = max(f.shape[0] for f in fused_items)
    padded = []
    for f in fused_items:
        if f.shape[0] < m_max:
            f = ag.concat([f, Tensor(np.zeros((m_max - f.shape[0], d)))], axis=0)
        padded.append(f)
    out = ag.stack(padded, axis=0)
    mask = np.arange(m_max)[None, :] < np.array([s.m for s in shrunks])[:, None]
    return out, mask, shrunks, float(np.mean(ratios))
