"""Synthetic corpus generator: determinism, statistics, and invariants."""

import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stlab.data as data_mod
from stlab.data import (BLANK_ID, CorpusConfig, alignment_shrink_ratio,
                        compress_alignment, content_permutation,
                        expand_to_speech, expected_frame_count, export_corpus,
                        generate_sample, make_batch, noise_inject,
                        token_prototypes)

CFG = CorpusConfig(seed=11)


def test_symbol_table_layout():
    c = CorpusConfig(vocab_size=20)
    assert BLANK_ID == 0
    assert c.pad_id == 21
    assert c.bos_id == 22
    assert c.n_symbols == 23


def test_config_validation():
    with pytest.raises(ValueError):
        CorpusConfig(expansion_min=3, expansion_max=2)
    with pytest.raises(ValueError):
        CorpusConfig(blank_insert_prob=1.0)


def test_prototypes_near_orthogonal_and_deterministic():
    p1 = token_prototypes(CFG)
    p2 = token_prototypes(CFG)
    np.testing.assert_array_equal(p1, p2)
    assert p1.shape == (CFG.vocab_size + 1, CFG.frame_dim)
    # distinct seeds give distinct prototypes
    assert not np.array_equal(p1, token_prototypes(CorpusConfig(seed=12)))


def test_permutation_is_derangement():
    table = content_permutation(CFG)
    content = np.arange(1, CFG.vocab_size + 1)
    assert np.all(table[content] != content)        # no fixed points
    assert sorted(table[content]) == list(content)  # a bijection on content
    # specials map to themselves
    assert table[BLANK_ID] == BLANK_ID
    assert table[CFG.pad_id] == CFG.pad_id
    _, src, tgt, _ = generate_sample(CFG, 3)  # the translation is the table lookup
    np.testing.assert_array_equal(tgt, table[src])


def test_per_config_tables_are_cached_read_only():
    for table_fn in (token_prototypes, content_permutation):
        table = table_fn(CFG)
        assert table_fn(CorpusConfig(seed=11)) is table  # equal configs share it
        with pytest.raises(ValueError):
            table[1] = table[0]
        assert not table.flags.writeable


@pytest.mark.parametrize("config", [CFG, CorpusConfig(
    vocab_size=7, max_src_len=5, expansion_min=1, expansion_max=3, frame_dim=24, seed=4)])
def test_make_batch_unchanged_by_the_table_cache(config, monkeypatch):
    """Batches built with the cached tables equal, bit for bit, batches
    that rebuild both tables for every sample."""
    seeds = np.arange(60) * 7919 + 3
    cached = make_batch(config, seeds)
    monkeypatch.setattr(data_mod, "token_prototypes", inspect.unwrap(token_prototypes))
    monkeypatch.setattr(data_mod, "content_permutation", inspect.unwrap(content_permutation))
    rebuilt = make_batch(config, seeds)
    for name in ("speech", "speech_lens", "src_tokens", "src_lens", "tgt_tokens",
                 "tgt_lens", "sample_seeds"):
        assert getattr(cached, name).tobytes() == getattr(rebuilt, name).tobytes(), name
    for a, b in zip(cached.alignments, rebuilt.alignments):
        np.testing.assert_array_equal(a, b)


def per_frame_expand_to_speech(src_tokens, config, sample_seed):
    """expand_to_speech as it was before the single gather: one prototype
    row appended per frame (validation left out)."""
    src_tokens = np.asarray(src_tokens)
    protos = token_prototypes(config)
    rng = np.random.default_rng((config.seed, int(sample_seed), 0x5BEEC))
    rows = []
    alignment = []
    for i, tok in enumerate(src_tokens):
        if i > 0 and rng.random() < config.blank_insert_prob:
            rows.append(protos[BLANK_ID])
            alignment.append(-1)
        r = int(rng.integers(config.expansion_min, config.expansion_max + 1))
        for _ in range(r):
            rows.append(protos[tok])
            alignment.append(i)
    frames = np.asarray(rows)
    if config.frame_noise_std > 0:
        frames = frames + rng.normal(scale=config.frame_noise_std, size=frames.shape)
    return frames, np.asarray(alignment)


@pytest.mark.parametrize("config", [CFG, CorpusConfig(
    vocab_size=7, max_src_len=5, expansion_min=1, expansion_max=3, frame_dim=24,
    blank_insert_prob=0.5, seed=4)])
def test_make_batch_unchanged_by_the_single_gather(config, monkeypatch):
    """Frames gathered in one indexing call equal, bit for bit, frames
    appended one prototype row at a time."""
    seeds = np.arange(64) * 104729 + 5
    gathered = make_batch(config, seeds)
    monkeypatch.setattr(data_mod, "expand_to_speech", per_frame_expand_to_speech)
    appended = make_batch(config, seeds)
    for name in ("speech", "speech_lens", "src_tokens", "src_lens", "tgt_tokens",
                 "tgt_lens", "sample_seeds"):
        assert getattr(gathered, name).tobytes() == getattr(appended, name).tobytes(), name
    for a, b in zip(gathered.alignments, appended.alignments):
        assert a.tobytes() == b.tobytes()


def test_expansion_bounds_and_alignment():
    src = np.array([1, 2, 2, 3])
    frames, al = expand_to_speech(src, CFG, sample_seed=5)
    assert frames.shape == (len(al), CFG.frame_dim)
    content = al[al >= 0]
    # every token appears, in order, within the expansion bounds
    idx, counts = np.unique(content, return_counts=True)
    np.testing.assert_array_equal(idx, np.arange(len(src)))
    assert np.all(counts >= CFG.expansion_min) and np.all(counts <= CFG.expansion_max)
    assert np.all(np.diff(content) >= 0)  # monotone alignment
    # blanks only at token gaps, never first
    assert al[0] != -1


def test_expand_rejects_bad_tokens():
    with pytest.raises(ValueError):
        expand_to_speech(np.array([0]), CFG, 0)
    with pytest.raises(ValueError):
        expand_to_speech(np.array([], dtype=int), CFG, 0)


def test_expected_frame_count_monte_carlo():
    """Closed-form E[T] within 3 sigma of a 4000-sample Monte Carlo mean."""
    cfg = CorpusConfig(seed=3)
    L = 6
    src = np.arange(1, L + 1)
    counts = np.array([expand_to_speech(src, cfg, s)[0].shape[0]
                       for s in range(4000)])
    expect = expected_frame_count(cfg, L)
    sem = counts.std() / np.sqrt(len(counts))
    assert abs(counts.mean() - expect) < 3 * sem + 1e-9


def test_noise_inject_zero_p_is_identity():
    toks = np.array([1, 2, 3])
    out = noise_inject(toks, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, toks)


def test_noise_inject_statistics():
    """Insertion count ~ Binomial(n, p); halves split between blank/duplicate."""
    rng = np.random.default_rng(0)
    toks = np.arange(1, 11)
    p = 0.2
    n_trials = 2000
    inserted, blanks = 0, 0
    for _ in range(n_trials):
        out = noise_inject(toks, p, rng)
        inserted += len(out) - len(toks)
        blanks += int(np.count_nonzero(out == BLANK_ID))
    n = n_trials * len(toks)
    assert abs(inserted / n - p) < 0.02
    assert abs(blanks / max(inserted, 1) - 0.5) < 0.05


def test_noise_inject_preserves_subsequence():
    rng = np.random.default_rng(1)
    toks = np.array([4, 7, 2, 9])
    out = noise_inject(toks, 0.5, rng)
    # removing blanks and collapsing duplicates recovers the original
    no_blank = out[out != BLANK_ID]
    keep = np.concatenate(([True], no_blank[1:] != no_blank[:-1]))
    np.testing.assert_array_equal(no_blank[keep], toks)


def test_generate_sample_deterministic():
    f1, s1, t1, a1 = generate_sample(CFG, 42)
    f2, s2, t2, a2 = generate_sample(CFG, 42)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(a1, a2)
    f3, _, _, _ = generate_sample(CFG, 43)
    assert f3.shape != f1.shape or not np.array_equal(f3, f1)


def test_make_batch_padding():
    batch = make_batch(CFG, [1, 2, 3, 4])
    B, T, d = batch.speech.shape
    assert B == 4 and d == CFG.frame_dim
    assert T == batch.speech_lens.max()
    for b in range(B):
        assert np.all(batch.speech[b, batch.speech_lens[b]:] == 0.0)
        assert np.all(batch.src_tokens[b, batch.src_lens[b]:] == CFG.pad_id)
        assert np.all(batch.tgt_tokens[b, :batch.tgt_lens[b]] != CFG.pad_id)
        assert batch.tgt_lens[b] == batch.src_lens[b]  # length-preserving rule


def test_alignment_roundtrip_and_ratio():
    frames, src, _, al = generate_sample(CFG, 99)
    compressed = compress_alignment(al, src)
    ratio = alignment_shrink_ratio(al)
    assert len(compressed) / len(al) == pytest.approx(ratio)
    # dropping blanks from the compressed path recovers the transcription
    np.testing.assert_array_equal(compressed[compressed != BLANK_ID], src)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), length=st.integers(1, 8))
def test_expansion_properties(seed, length):
    cfg = CorpusConfig(seed=1)
    src = (np.arange(length) % cfg.vocab_size) + 1
    frames, al = expand_to_speech(src, cfg, seed)
    assert frames.shape[0] == len(al)
    lo = cfg.expansion_min * length
    hi = cfg.expansion_max * length + (length - 1)
    assert lo <= len(al) <= hi
    np.testing.assert_array_equal(np.unique(al[al >= 0]), np.arange(length))


def test_export_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    n = export_corpus(CFG, [5, 6, 7], path)
    assert n == 3
    rows = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert [r["sample_seed"] for r in rows] == [5, 6, 7]
    for r in rows:
        frames, src, tgt, _ = generate_sample(CFG, r["sample_seed"])
        assert r["src"] == list(map(int, src))
        assert r["tgt"] == list(map(int, tgt))
        assert r["T"] == frames.shape[0]


def test_export_corpus_accepts_count(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert export_corpus(CFG, 4, path) == 4
