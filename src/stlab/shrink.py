"""CTC-driven length compression with the looking-back mechanism.

Greedy per-frame decoding gives runs of repeated tokens (blanks kept);
each run collapses to its highest-confidence frame, and a windowed
attention over the run's other frames recovers what the collapse would
discard:

    s_tilde_i = Softmax(R(s'_i) . R(A)^T) . A        (window A excludes j)
    s_fused_i = FFN(Norm(s'_i + s_tilde_i))          (no residual)

A batch shrinks in one pass: the greedy path of every valid frame is
merged into runs that never cross an item, one look-back covers all shrunk
positions with windows inside each item's frames, and one fusion maps
them; a single sequence is the B = 1 case.
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


class LbmParams:
    """Learned pieces of the look-back step: the shared linear map R and the
    fusion FFN with its entry norm."""

    def __init__(self, rng, d_model, ffn_dim):
        scale = np.sqrt(1.0 / d_model)
        self.r_map = Tensor(rng.normal(scale=scale, size=(d_model, d_model)),
                            requires_grad=True)
        self.norm_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.norm_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.w1 = Tensor(rng.normal(scale=np.sqrt(2.0 / (d_model + ffn_dim)),
                                    size=(d_model, ffn_dim)), requires_grad=True)
        self.b1 = Tensor(np.zeros(ffn_dim), requires_grad=True)
        self.w2 = Tensor(rng.normal(scale=np.sqrt(2.0 / (d_model + ffn_dim)),
                                    size=(ffn_dim, d_model)), requires_grad=True)
        self.b2 = Tensor(np.zeros(d_model), requires_grad=True)

    @property
    def tensors(self):
        return [self.r_map, self.norm_gain, self.norm_bias,
                self.w1, self.b1, self.w2, self.b2]


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


def _lookback(frames: Tensor, s_prime: Tensor, j, lo, hi, lbm: LbmParams) -> Tensor:
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
    att = ag.softmax(ag.add(scores, Tensor(bias)), axis=-1)
    gathered = ag.reshape(ag.matmul(att, window), (m, d))
    nonempty = valid.any(axis=1).astype(np.float64)[:, None]
    return ag.mul(gathered, Tensor(nonempty))


def lbm_fuse(s_prime: Tensor, s_tilde: Tensor, lbm: LbmParams) -> Tensor:
    """FFN(Norm(s' + s_tilde)), literal form without a residual."""
    if s_prime.shape != s_tilde.shape:
        raise ag.ShapeError("lbm_fuse", s_prime.shape, s_tilde.shape)
    h = ag.affine_norm(s_prime + s_tilde, lbm.norm_gain, lbm.norm_bias)
    return ag.linear(ag.relu(ag.linear(h, lbm.w1, lbm.b1)), lbm.w2, lbm.b2)


def shrink_sequence(features: Tensor, log_probs, lbm: LbmParams,
                    use_lbm: bool = True):
    """Compress one sequence. features: [n, d]; log_probs: [n, V] rows.

    Returns (ShrunkSequence, fused features [m, d], length ratio m/n).
    """
    n, d = features.shape
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    out, _, (shrunk,), ratio = shrink_batch(
        ag.reshape(features, (1, n, d)), lp[None], [n], lbm, use_lbm, per_item=True)
    return shrunk, ag.reshape(out, (shrunk.m, d)), ratio


def shrink_batch(features: Tensor, log_probs, lens, lbm: LbmParams,
                 use_lbm: bool = True, per_item: bool = False):
    """Shrink every item of a padded batch in one pass.

    features: [B, T, d]; log_probs: [B, T, V] (Tensor or array); lens: valid
    frames per item. The greedy path of all valid frames is merged into runs
    that stay inside their item, one look-back over all M shrunk positions
    reads windows bounded by each item's own frames, one fusion maps the
    [M, d] rows, and one gather pads them to [B, m_max, d].
    Returns (padded fused [B, m_max, d], mask [B, m_max], a ShrunkSequence
    per item if `per_item` else None, mean ratio m/n over items).
    """
    B, T, d = features.shape
    lens = np.asarray(lens)
    if np.any(lens < 1):
        raise ValueError("cannot merge an empty path")
    path = ctc_greedy_path(log_probs)
    item, frame = np.nonzero(np.arange(T)[None, :] < lens[:, None])
    flat = item * T + frame                          # valid frames in [B*T] rows
    tokens = path.tokens[item, frame]
    starts, ends, origin = _merge_runs(tokens, path.confidences[item, frame], item)
    run_item = item[starts]
    first = run_item * T                             # each run's item frame range
    last = first + lens[run_item] - 1
    j, lo, hi = flat[origin], flat[starts], flat[ends]
    bound = np.maximum(j - lo, hi - j)

    rows = ag.reshape(features, (B * T, d))
    fused = rows[(j,)]
    if use_lbm:
        s_tilde = _lookback(rows, fused, j, np.maximum(first, j - bound),
                            np.minimum(last, j + bound), lbm)
        fused = lbm_fuse(fused, s_tilde, lbm)

    counts = np.bincount(run_item, minlength=B)
    m_max = int(counts.max())
    mask = np.arange(m_max)[None, :] < counts[:, None]
    # position (b, i) reads fused row offset_b + i; padding reads the zero row M
    index = np.full((B, m_max), len(j))
    index[mask] = np.arange(len(j))
    padded = ag.concat([fused, Tensor(np.zeros((1, d)))], axis=0)[(index,)]

    shrunks = None
    if per_item:  # per-item fields in item-local frame indices
        split = np.cumsum(counts)[:-1]
        fields = [np.split(a, split) for a in (tokens[starts], j - first, lo - first,
                                               hi - first, bound)]
        shrunks = [ShrunkSequence(*parts) for parts in zip(*fields)]
    return padded, mask, shrunks, float(np.mean(counts / lens))
