"""CTC-driven length compression with the looking-back mechanism.

Greedy per-frame decoding gives runs of repeated tokens (blanks kept);
each run collapses to its highest-confidence frame, and a windowed
attention over the run's other frames recovers what the collapse would
discard:

    s_tilde_i = Softmax(R(s'_i) . R(A)^T) . A        (window A excludes j)
    s_fused_i = FFN(Norm(s'_i + s_tilde_i))          (no residual)

A batch shrinks in one pass over the A-Enc's packed rows (its valid
frames, item by item): the greedy path of every valid frame is merged
into runs that never cross an item, one look-back covers all shrunk
positions with windows inside each item's rows, and one fusion maps them
to rows that are packed in turn, the T-Enc's input as they stand. A
single sequence is the B = 1 case.

`lbm` is the model's `LbmParams`: the map `r_map` and the fusion's `norm`
and `ffn`, which are the model's own `AffineNorm` and `Ffn` layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor


@dataclass
class CtcPath:
    tokens: np.ndarray        # [n] per-frame argmax ids (blank allowed)
    confidences: np.ndarray   # [n] max probability per frame

    def __post_init__(self):
        if len(self.tokens) != len(self.confidences):
            raise ValueError("tokens and confidences must have equal length")


@dataclass
class ShrunkSequence:
    unique_tokens: np.ndarray  # [m] run-length compression of the path
    origin_index: np.ndarray   # [m] representative frame index j per position
    seg_start: np.ndarray      # [m]
    seg_end: np.ndarray        # [m] inclusive
    boundary: np.ndarray       # [m] look-back boundary b per position

    @property
    def m(self):
        return len(self.unique_tokens)

    def decompress(self) -> np.ndarray:
        """Expand back to the per-frame token path via the segment extents."""
        return np.repeat(self.unique_tokens, self.seg_end - self.seg_start + 1)


def ctc_greedy_path(log_probs) -> CtcPath:
    """Per-frame argmax over log-probability rows [..., V]; ties break
    toward the lower token id (np.argmax convention)."""
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    ids = np.argmax(lp, axis=-1)
    conf = np.exp(np.take_along_axis(lp, ids[..., None], axis=-1)[..., 0])
    return CtcPath(ids, conf)


def _merge_runs(tokens, confidences, item):
    """Maximal runs of equal tokens over concatenated frames; a run never
    crosses into the next item. item: [N] non-decreasing item id per frame.
    Returns run starts, inclusive ends and representatives (the
    highest-confidence frame of each run, ties leftmost), as frame indices."""
    n = len(tokens)
    if n == 0:
        raise ValueError("cannot merge an empty path")
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (tokens[1:] != tokens[:-1]) | (item[1:] != item[:-1])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:] - 1, n - 1)
    run_of = np.cumsum(new_run) - 1
    best = np.maximum.reduceat(confidences, starts)
    at_best = np.where(confidences == best[run_of], np.arange(n), n)
    return starts, ends, np.minimum.reduceat(at_best, starts)


def _lookback(frames: Tensor, s_prime: Tensor, j, lo, hi, lbm) -> Tensor:
    """Windowed look-back attention over frame rows [N, d], vectorized over
    positions: position i, whose representative row j[i] is s_prime[i],
    attends to frames lo[i]..hi[i] except j[i]; an empty window yields the
    zero vector."""
    m, d = s_prime.shape
    width = int((hi - lo + 1).max()) if m else 0
    # window index grid, with the representative column masked out
    idx = lo[:, None] + np.arange(width)[None, :]
    valid = (idx <= hi[:, None]) & (idx != j[:, None])
    idx = np.minimum(idx, hi[:, None])

    window = frames[(idx,)]                          # [m, w, d]
    rq = ag.matmul(s_prime, lbm.r_map)               # [m, d]
    ra = ag.matmul(window, lbm.r_map)                # [m, w, d]
    scores = ag.matmul(ag.reshape(rq, (m, 1, d)),
                       ag.transpose(ra, (0, 2, 1)))  # [m, 1, w]
    bias = np.where(valid, 0.0, ag.MASK_BIAS)[:, None, :]
    att = ag.softmax(ag.add(scores, Tensor(bias)))
    gathered = ag.reshape(ag.matmul(att, window), (m, d))
    nonempty = valid.any(axis=1).astype(np.float64)[:, None]
    return ag.mul(gathered, Tensor(nonempty))


def lbm_fuse(s_prime: Tensor, s_tilde: Tensor, lbm) -> Tensor:
    """FFN(Norm(s' + s_tilde)), literal form without a residual."""
    if s_prime.shape != s_tilde.shape:
        raise ag.ShapeError("lbm_fuse", s_prime.shape, s_tilde.shape)
    return lbm.ffn(lbm.norm(s_prime + s_tilde))


def shrink_sequence(features: Tensor, log_probs, lbm, use_lbm: bool = True):
    """Compress one sequence. features: [n, d]; log_probs: [n, V] rows.

    Returns (ShrunkSequence, fused features [m, d], length ratio m/n).
    """
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    out, _, (shrunk,), ratio = shrink_batch(features, lp[None], [features.shape[0]], lbm,
                                            use_lbm, per_item=True)
    return shrunk, out, ratio


def shrink_batch(features: Tensor, log_probs, lens, lbm,
                 use_lbm: bool = True, per_item: bool = False):
    """Shrink every item of a batch in one pass.

    features: the A-Enc's rows [N, d], item by item (lens[b] rows for item
    b); log_probs: [B, T, V] (Tensor or array); lens: valid frames per item.
    The greedy path of all valid frames is merged into runs that stay
    inside their item, one look-back over all M shrunk positions reads
    windows bounded by each item's own rows, and one fusion maps the
    [M, d] rows, which come out item by item, as the T-Enc reads them.
    Returns (fused rows [M, d], their mask [B, m_max], a ShrunkSequence per
    item if `per_item` else None, mean ratio m/n over items).
    """
    T = np.shape(log_probs)[1]
    lens = np.asarray(lens)
    if np.any(lens < 1):
        raise ValueError("cannot merge an empty path")
    path = ctc_greedy_path(log_probs)
    item, frame = np.nonzero(np.arange(T)[None, :] < lens[:, None])
    tokens = path.tokens[item, frame]
    lo, hi, j = _merge_runs(tokens, path.confidences[item, frame], item)  # row indices
    run_item = item[lo]
    first = (np.cumsum(lens) - lens)[run_item]       # each run's item rows
    last = first + lens[run_item] - 1
    bound = np.maximum(j - lo, hi - j)

    fused = features[(j,)]
    if use_lbm:
        s_tilde = _lookback(features, fused, j, np.maximum(first, j - bound),
                            np.minimum(last, j + bound), lbm)
        fused = lbm_fuse(fused, s_tilde, lbm)

    counts = np.bincount(run_item, minlength=len(lens))
    mask = np.arange(counts.max())[None, :] < counts[:, None]

    shrunks = None
    if per_item:  # per-item fields in item-local frame indices
        split = np.cumsum(counts)[:-1]
        fields = [np.split(a, split) for a in (tokens[lo], j - first, lo - first,
                                               hi - first, bound)]
        shrunks = [ShrunkSequence(*parts) for parts in zip(*fields)]
    return fused, mask, shrunks, float(np.mean(counts / lens))
