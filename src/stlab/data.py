"""Deterministic synthetic (speech, transcription, translation) triples.

Speech frames are noisy copies of per-token prototype vectors, expanded to
a variable number of frames per token with optional blank frames between
tokens. Every sample is a pure function of (CorpusConfig, sample_seed).

Global symbol table: 0 is the blank everywhere (CTC blank, text-noise
blank, generator blank); content tokens are 1..vocab_size; pad and BOS
follow the content range.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

BLANK_ID = 0


@dataclass(frozen=True)
class CorpusConfig:
    vocab_size: int = 20            # content tokens, excluding the blank
    max_src_len: int = 8
    expansion_min: int = 2          # frames per token
    expansion_max: int = 4
    blank_insert_prob: float = 0.2
    frame_noise_std: float = 0.1
    frame_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.expansion_min <= self.expansion_max):
            raise ValueError("need 1 <= expansion_min <= expansion_max")
        if not (0.0 <= self.blank_insert_prob < 1.0):
            raise ValueError("blank_insert_prob must be in [0, 1)")

    @property
    def pad_id(self):
        return self.vocab_size + 1

    @property
    def bos_id(self):
        return self.vocab_size + 2

    @property
    def n_symbols(self):
        # blank + content + pad + bos
        return self.vocab_size + 3


@dataclass
class SyntheticBatch:
    speech: np.ndarray        # [B, T, frame_dim]
    speech_lens: np.ndarray   # [B]
    src_tokens: np.ndarray    # [B, L_x] padded with pad_id
    src_lens: np.ndarray
    tgt_tokens: np.ndarray    # [B, L_y] padded with pad_id
    tgt_lens: np.ndarray
    sample_seeds: np.ndarray
    alignments: list          # per item: [T_b] source-token index, -1 for blank
    pad_id: int

    @property
    def batch_size(self):
        return self.speech.shape[0]


@functools.lru_cache(maxsize=32)
def token_prototypes(config: CorpusConfig) -> np.ndarray:
    """[vocab_size+1, frame_dim] prototype matrix; row 0 is the blank.

    Rows come from a seeded QR of a Gaussian matrix, so distinct tokens are
    near-orthogonal and linearly separable by a tiny model. Cached per
    config and read-only, so no caller can change it for the others.
    """
    n = max(config.vocab_size + 1, config.frame_dim)
    rng = np.random.default_rng((config.seed, 0xA11CE))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    protos = q[: config.vocab_size + 1, : config.frame_dim] * np.sqrt(n / config.frame_dim)
    protos.flags.writeable = False
    return protos


@functools.lru_cache(maxsize=32)
def content_permutation(config: CorpusConfig) -> np.ndarray:
    """Fixed-point-free permutation over content ids 1..vocab_size.

    Returned as a lookup table over the full symbol range; blank, pad and
    bos map to themselves. Cached per config and read-only.
    """
    rng = np.random.default_rng((config.seed, 0x7AB1E))
    order = rng.permutation(config.vocab_size) + 1
    table = np.arange(config.n_symbols)
    for a, b in zip(order, np.roll(order, -1)):  # cyclic shift => derangement
        table[a] = b
    table.flags.writeable = False
    return table


def expand_to_speech(src_tokens, config: CorpusConfig, sample_seed: int):
    """Expand a token sequence into frames plus a per-frame alignment.

    Each token i emits r_i ~ U{expansion_min..expansion_max} noisy copies of
    its prototype; a single blank frame is inserted at each token gap with
    blank_insert_prob. alignment[t] is the source token index, -1 for blank.
    """
    src_tokens = np.asarray(src_tokens)
    if src_tokens.size == 0:
        raise ValueError("cannot expand an empty token sequence")
    if src_tokens.max() > config.vocab_size or src_tokens.min() < 1:
        raise ValueError("token ids must lie in 1..vocab_size")
    protos = token_prototypes(config)
    rng = np.random.default_rng((config.seed, int(sample_seed), 0x5BEEC))
    ids = []
    alignment = []
    for i, tok in enumerate(src_tokens):
        if i > 0 and rng.random() < config.blank_insert_prob:
            ids.append(BLANK_ID)
            alignment.append(-1)
        r = int(rng.integers(config.expansion_min, config.expansion_max + 1))
        ids += [tok] * r
        alignment += [i] * r
    frames = protos[ids]
    if config.frame_noise_std > 0:
        frames = frames + rng.normal(scale=config.frame_noise_std, size=frames.shape)
    return frames, np.asarray(alignment)


def expected_frame_count(config: CorpusConfig, src_len: int) -> float:
    """Closed-form E[T] for a source of the given length."""
    e_r = 0.5 * (config.expansion_min + config.expansion_max)
    return e_r * src_len + config.blank_insert_prob * (src_len - 1)


def noise_inject(tokens, p: float, rng: np.random.Generator) -> np.ndarray:
    """Speech-like noise for text: per position, with probability p, either
    insert a blank after it or duplicate it (fair coin)."""
    if not (0.0 <= p < 1.0):
        raise ValueError("p must be in [0, 1)")
    tokens = np.asarray(tokens)
    if p == 0.0:
        return tokens.copy()
    out = []
    for tok in tokens:
        out.append(int(tok))
        if rng.random() < p:
            out.append(int(tok) if rng.random() < 0.5 else BLANK_ID)
    return np.asarray(out)


def generate_sample(config: CorpusConfig, sample_seed: int):
    """One (speech, src, tgt, alignment) tuple, pure in (config, sample_seed)."""
    rng = np.random.default_rng((config.seed, int(sample_seed), 0x5A3D))
    length = int(rng.integers(1, config.max_src_len + 1))
    src = rng.integers(1, config.vocab_size + 1, size=length)
    tgt = content_permutation(config)[src]
    frames, alignment = expand_to_speech(src, config, sample_seed)
    return frames, src, tgt, alignment


def make_batch(config: CorpusConfig, sample_seeds) -> SyntheticBatch:
    sample_seeds = np.asarray(sample_seeds, dtype=np.int64)
    items = [generate_sample(config, s) for s in sample_seeds]
    speech_lens = np.array([f.shape[0] for f, _, _, _ in items])
    src_lens = np.array([len(s) for _, s, _, _ in items])
    tgt_lens = np.array([len(t) for _, _, t, _ in items])
    B = len(items)
    T = int(speech_lens.max())
    Lx, Ly = int(src_lens.max()), int(tgt_lens.max())
    speech = np.zeros((B, T, config.frame_dim))
    src = np.full((B, Lx), config.pad_id, dtype=np.int64)
    tgt = np.full((B, Ly), config.pad_id, dtype=np.int64)
    alignments = []
    for b, (frames, s, t, al) in enumerate(items):
        speech[b, : frames.shape[0]] = frames
        src[b, : len(s)] = s
        tgt[b, : len(t)] = t
        alignments.append(al)
    return SyntheticBatch(speech, speech_lens, src, src_lens, tgt, tgt_lens,
                          sample_seeds, alignments, config.pad_id)


def alignment_shrink_ratio(alignment) -> float:
    """Oracle length ratio: run-length-compressed alignment over raw frames."""
    alignment = np.asarray(alignment)
    runs = 1 + int(np.count_nonzero(alignment[1:] != alignment[:-1]))
    return runs / alignment.size


def compress_alignment(alignment, src_tokens) -> np.ndarray:
    """Run-length compress a frame alignment back to tokens (blanks kept)."""
    alignment = np.asarray(alignment)
    src_tokens = np.asarray(src_tokens)
    out = []
    prev = None
    for a in alignment:
        if prev is None or a != prev:
            out.append(BLANK_ID if a < 0 else int(src_tokens[a]))
        prev = a
    return np.asarray(out)


def export_corpus(config: CorpusConfig, sample_seeds, path) -> int:
    """Dump JSON-lines records {sample_seed, src, tgt, T} for inspection.

    sample_seeds may be an iterable of seeds or an int count (seeds 0..n-1).
    """
    if isinstance(sample_seeds, int):
        sample_seeds = range(sample_seeds)
    n = 0
    with open(path, "w") as fh:
        for s in sample_seeds:
            frames, src, tgt, _ = generate_sample(config, int(s))
            rec = {"sample_seed": int(s), "src": [int(x) for x in src],
                   "tgt": [int(x) for x in tgt], "T": int(frames.shape[0])}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            n += 1
    return n
