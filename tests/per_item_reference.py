"""Per-item reference kernels: the single-sequence CTC dynamic program, the
per-item shrink loop and the batch-1 impact probe that the batched kernels
in `stlab.losses`, `stlab.shrink` and `stlab.train` replaced. The tests
compare the batched kernels with them."""

import numpy as np

from stlab import analysis
from stlab import autograd as ag
from stlab.autograd import Tensor
from stlab.data import BLANK_ID, make_batch
from stlab.losses import CtcInfeasibleError, ctc_feasible
from stlab.model import LbmParams
from stlab.shrink import CtcPath, ShrunkSequence, lbm_fuse
from stlab.train import _STREAM_PROBE


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
    att = ag.softmax(ag.add(scores, Tensor(bias)))
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
    """Per-item shrinking over a batch's rows.

    features: rows [N, d], item by item (lens[b] rows for item b);
    log_probs: [B, T, V]; lens: valid frames per item. Returns (fused rows
    [M, d], item by item; mask [B, m_max]; shrunk list; mean ratio).
    """
    lens = np.asarray(lens)
    shrunks, fused_items, ratios = [], [], []
    for b, (lo, n) in enumerate(zip(np.cumsum(lens) - lens, lens)):
        shrunk, fused, ratio = shrink_sequence(
            features[(slice(lo, lo + n),)], log_probs[b][(slice(0, n),)], lbm, use_lbm)
        shrunks.append(shrunk)
        fused_items.append(fused)
        ratios.append(ratio)
    counts = np.array([s.m for s in shrunks])
    # item b's rows go to its offset through a 0/1 matrix: exact both ways
    out = None
    for f, lo in zip(fused_items, np.cumsum(counts) - counts):
        placed = ag.matmul(Tensor(np.eye(counts.sum())[:, lo:lo + f.shape[0]]), f)
        out = placed if out is None else out + placed
    mask = np.arange(counts.max())[None, :] < counts[:, None]
    return out, mask, shrunks, float(np.mean(ratios))


def atten_by_partition(vectors):
    """The probe's layout: capture_gradients' ATTEN gradients ({GroupKey:
    flat vector}) concatenated per partition in layer order."""
    out = {}
    for part in ag.PARTITIONS:
        keys = sorted((k for k in vectors if k.partition == part and k.kind == "ATTEN"),
                      key=lambda k: k.layer)
        if keys:
            out[part] = np.concatenate([vectors[k] for k in keys])
    return out


def probe_instances(model, config, weights, step, shrink_active):
    """The impact probe as k batch-1 instances: each instance is its own
    batch, and each task one capture_gradients call on it. The seeds and
    the MT noise streams are those of `stlab.train.make_probe_fn`, and so is
    the layout: {task: {partition: [k, n]}}, row j from instance j."""
    tg, seed = config.toggles, config.training.seed
    instances = []
    for j in range(config.scheduler.k):
        rng = np.random.default_rng((seed, _STREAM_PROBE, step, j))
        batch = make_batch(config.corpus, rng.integers(0, 2**62, size=1))
        entry = {"st": atten_by_partition(analysis.capture_gradients(
            model, batch, "st", use_shrink=shrink_active))}
        for task in weights.active_tasks():
            if task == "asr":
                kw = {"asr_variant": tg.asr_variant, "use_shrink": shrink_active}
            else:
                kw = {"mt_noise_rngs": [np.random.default_rng((seed, _STREAM_PROBE, step, j, 1))]}
            entry[task] = atten_by_partition(
                analysis.capture_gradients(model, batch, task, **kw))
        instances.append(entry)
    return {task: {part: np.stack([entry[task][part] for entry in instances])
                   for part in instances[0][task]}
            for task in instances[0]}
