"""Network wiring: shapes, masking, causality, parameter routing, and
checkpoint round-trips."""

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stlab.model as model_mod
from stlab import autograd as ag
from stlab.autograd import GroupKey, ParamGroup, Tensor
from stlab.config import Toggles
from stlab.data import CorpusConfig, make_batch, noise_inject
from stlab.model import (Model, ModelConfig, TaskOutputs, load_checkpoint,
                         save_checkpoint, sinusoidal_positions)

CORPUS = CorpusConfig(vocab_size=6, max_src_len=4, seed=2)


def tiny_config(**over):
    base = dict(d_model=16, n_heads=2, ffn_dim=24, seed=2)
    base.update(over)
    return ModelConfig(**base)


@pytest.fixture()
def model():
    return Model(tiny_config(), CORPUS)


@pytest.fixture()
def batch():
    return make_batch(CORPUS, [10, 11, 12])


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(d_model=15)  # not divisible by heads
    with pytest.raises(ValueError):
        tiny_config(l2g_base_kernel=4)  # must be odd


def test_l2g_kernel_progression():
    cfg = tiny_config(l2g_base_kernel=5, l2g_stride=3)
    assert [cfg.l2g_kernel(i) for i in range(3)] == [5, 8, 11]


def test_sinusoidal_positions():
    pos = sinusoidal_positions(4, 8)
    assert pos.shape == (4, 8)
    np.testing.assert_allclose(pos[0, 0::2], 0.0)
    np.testing.assert_allclose(pos[0, 1::2], 1.0)
    assert sinusoidal_positions(4, 8) is pos and not pos.flags.writeable


def test_task_output_shapes(model, batch):
    """Every stream is packed: the logits hold one row per non-pad target,
    and the T-Enc input, memory and per-layer outs one row per true entry
    of the T-Enc mask; only the CTC log-probs are padded, to [B, T, V]."""
    B, T = batch.speech.shape[:2]
    n_tgt, n_src = (int((t != batch.pad_id).sum()) for t in (batch.tgt_tokens, batch.src_tokens))
    d, V = model.config.d_model, CORPUS.n_symbols

    def assert_t_enc_rows(out):
        n = int(out.tenc_mask.sum())
        assert out.tenc_mask.shape[0] == B
        for rows in [out.tenc_input, out.memory, *out.extractor_outs, *out.attention_outs]:
            assert rows.shape == (n, d)
        return n

    for use_shrink in (False, True):
        st = model.forward_task(batch, "st", use_shrink=use_shrink)
        assert st.logits.shape == (n_tgt, V)
        assert st.ctc_log_probs.shape == (B, T, CORPUS.vocab_size + 1)
        n = assert_t_enc_rows(st)
        assert n <= batch.speech_lens.sum() if use_shrink else n == batch.speech_lens.sum()
        ce = model.forward_task(batch, "asr", asr_variant="ce", use_shrink=use_shrink)
        assert ce.logits.shape == (n_src, V)

    asr = model.forward_task(batch, "asr", asr_variant="ctc")
    assert asr.logits is None
    assert asr.ctc_log_probs.shape == (B, T, CORPUS.vocab_size + 1)

    model.mt_noise_p = 0.0  # clean text: no noise generators needed
    mt = model.forward_task(batch, "mt")
    assert mt.logits.shape == (n_tgt, V)
    assert assert_t_enc_rows(mt) == n_src


def test_an_item_alone_forwards_as_in_a_batch_of_longer_items(model):
    """Padding reaches no item's rows: an item forwarded alone gives the
    ST logit rows, CTC log-probs over its own frames and T-Enc memory rows
    it gets between items longer than it in frames, source and target."""
    singles = {s: make_batch(CORPUS, [s]) for s in range(200)}
    short = min(singles, key=lambda s: singles[s].speech_lens[0])
    alone = singles[short]
    longer = [s for s, b in singles.items()
              if b.speech_lens[0] > alone.speech_lens[0] and b.src_lens[0] > alone.src_lens[0]]
    together = make_batch(CORPUS, [longer[0], short, longer[1]])

    def item_rows(rows, mask):  # item 1's rows
        return rows.data[mask[:1].sum():mask[:2].sum()]

    for use_shrink in (False, True):
        one, many = (model.forward_task(b, "st", use_shrink=use_shrink) for b in (alone, together))
        np.testing.assert_allclose(one.logits.data, item_rows(
            many.logits, many.targets != CORPUS.pad_id), rtol=0, atol=1e-12)
        np.testing.assert_allclose(one.memory.data, item_rows(many.memory, many.tenc_mask),
                                   rtol=0, atol=1e-12)
        n = int(alone.speech_lens[0])
        np.testing.assert_allclose(one.ctc_log_probs.data[0],
                                   many.ctc_log_probs.data[1, :n], rtol=0, atol=1e-12)


def test_unknown_task_rejected(model, batch):
    with pytest.raises(ValueError):
        model.forward_task(batch, "ocr")
    with pytest.raises(ValueError):
        model.forward_task(batch, "asr", asr_variant="hmm")


def test_ctc_rows_are_log_probs(model, batch):
    """Each valid frame holds log-probs; padding holds zeros."""
    out = model.forward_task(batch, "asr", asr_variant="ctc")
    valid = np.arange(batch.speech.shape[1])[None, :] < batch.speech_lens[:, None]
    assert not valid.all()
    sums = np.exp(out.ctc_log_probs.data[valid]).sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    np.testing.assert_array_equal(out.ctc_log_probs.data[~valid], 0.0)


def test_decoder_causality(model, batch):
    """Changing a later target token must not move earlier logits."""
    def padded_logits(b):
        out = model.forward_task(b, "st")
        return ag.pad(out.logits, out.targets != b.pad_id).data

    out1 = padded_logits(batch)
    batch2 = make_batch(CORPUS, [10, 11, 12])
    i = int(batch2.tgt_lens[0]) - 1
    if i == 0:
        pytest.skip("first sample too short to probe causality")
    # token i-1 feeds the decoder at position i (teacher forcing shift):
    # logits before i must stay put, logits at i must move
    batch2.tgt_tokens[0, i - 1] = (batch2.tgt_tokens[0, i - 1] % CORPUS.vocab_size) + 1
    out2 = padded_logits(batch2)
    np.testing.assert_allclose(out1[0, :i], out2[0, :i], atol=1e-12)
    assert not np.allclose(out1[0, i], out2[0, i])


def test_speech_padding_is_inert(model, batch):
    """Garbage in the padded frame region must not change any output."""
    out1 = model.forward_task(batch, "st").logits.data.copy()
    b = int(np.argmin(batch.speech_lens))
    batch.speech[b, batch.speech_lens[b]:] = 99.0
    out2 = model.forward_task(batch, "st").logits.data
    np.testing.assert_allclose(out1, out2, atol=1e-9)


def _touched_partitions(model, loss):
    model.zero_grad()
    loss.backward()
    touched = {g.key.partition for g in model.param_groups if g.has_grads()}
    model.zero_grad()
    return touched


def test_ctc_asr_touches_only_a_enc(model, batch):
    from stlab.losses import ctc_loss
    out = model.forward_task(batch, "asr", asr_variant="ctc")
    lp = out.ctc_log_probs[0][(slice(0, int(batch.speech_lens[0])),)]
    loss = ctc_loss(lp, batch.src_tokens[0, : batch.src_lens[0]])
    assert _touched_partitions(model, loss) == {"A-Enc"}


def test_mt_never_touches_a_enc(model, batch):
    from stlab.losses import ce_loss
    model.mt_noise_p = 0.0
    out = model.forward_task(batch, "mt")
    loss = ce_loss(out.logits, out.targets, batch.pad_id)
    assert _touched_partitions(model, loss) == {"T-Enc", "Decoder"}


def test_st_touches_all_partitions(model, batch):
    from stlab.losses import ce_loss
    out = model.forward_task(batch, "st")
    loss = ce_loss(out.logits, out.targets, batch.pad_id)
    assert _touched_partitions(model, loss) == {"A-Enc", "T-Enc", "Decoder"}


def test_mt_forward_needs_its_noise(model, batch):
    """The MT input noise has one owner, the model, which holds the default
    toggles' noise until apply_toggles sets a run's, and noisy MT draws from
    the caller's generators, one per item: a call without them raises
    instead of falling back to a generator of its own. Without noise nothing
    is drawn, so no generators are needed."""
    assert model.mt_noise_p == Toggles().mt_noise_p > 0
    with pytest.raises(ValueError, match="mt_noise_rngs"):
        model.forward_task(batch, "mt")
    with pytest.raises(ValueError, match="3 items"):
        model.forward_task(batch, "mt", mt_noise_rngs=[np.random.default_rng(0)])
    model.mt_noise_p = 0.0
    clean = model.forward_task(batch, "mt")
    np.testing.assert_array_equal(clean.tenc_mask, batch.src_tokens != batch.pad_id)


def test_a_bare_model_forwards_as_one_with_the_default_toggles(batch):
    """A new model holds the default toggles' forward settings, MT's input
    noise among them."""
    bare = Model(tiny_config(), CORPUS)
    applied = Model(tiny_config(), CORPUS).apply_toggles(Toggles())

    def forward(model):
        rngs = [np.random.default_rng((5, b)) for b in range(batch.batch_size)]
        return [model.forward_task(batch, task, use_shrink=True, mt_noise_rngs=rngs).logits.data
                for task in ("st", "mt")]

    for a, b in zip(forward(bare), forward(applied)):
        np.testing.assert_array_equal(a, b)


def test_noisy_mt_layout(model):
    """The MT T-Enc input's rows embed each item's own noisy tokens, drawn
    from the item's generator, item by item, and row b of its mask is true
    for exactly the length of item b's."""
    batch = make_batch(CORPUS, [10, 11, 12, 13])
    p, B = 0.5, batch.batch_size
    model.apply_toggles(Toggles(mt_noise_p=p))
    out = model.forward_task(batch, "mt",
                             mt_noise_rngs=[np.random.default_rng((3, b)) for b in range(B)])
    want = [noise_inject(batch.src_tokens[b, : batch.src_lens[b]], p,
                         np.random.default_rng((3, b))) for b in range(B)]
    assert len({len(w) for w in want}) > 1  # ragged rows
    assert any(len(w) > n for w, n in zip(want, batch.src_lens))  # noise was drawn
    L = out.tenc_mask.shape[1]
    assert L == max(len(w) for w in want)
    for b, toks in enumerate(want):
        np.testing.assert_array_equal(out.tenc_mask[b], np.arange(L) < len(toks))
    np.testing.assert_array_equal(out.tenc_input.data,
                                  model.src_embed.data[np.concatenate(want)])


def test_st_and_mt_share_t_enc_parameters(model, batch):
    """The same tensor objects receive gradients from both streams."""
    from stlab.losses import ce_loss
    shared = [t for g in model.param_groups
              if g.key.partition == "T-Enc" and g.key.layer >= 0
              for t in g.tensors]
    model.mt_noise_p = 0.0
    for task in ("st", "mt"):
        model.zero_grad()
        out = model.forward_task(batch, task)
        ce_loss(out.logits, out.targets, batch.pad_id).backward()
        assert all(t.grad is not None for t in shared), task
    model.zero_grad()


def test_l2g_extractor_receptive_field():
    """Layer-0 extractor (kernel 5) reaches at most 2 frames either side."""
    cfg = tiny_config()
    model = Model(cfg, CORPUS)
    layer = model.t_layers[0]
    L = 12
    rng = np.random.default_rng(0)
    x = rng.normal(size=(L, cfg.d_model))
    mask = np.ones((1, L), dtype=bool)
    base = layer.extractor(Tensor(x), mask).data
    probe = x.copy()
    probe[6] += 10.0
    moved = layer.extractor(Tensor(probe), mask).data
    changed = np.flatnonzero(np.abs(moved - base).max(axis=-1) > 1e-9)
    assert changed.min() >= 4 and changed.max() <= 8


def test_use_l2g_toggle_bypasses_extractors(model, batch):
    model.mt_noise_p = 0.0
    out_on = model.forward_task(batch, "mt").logits.data.copy()
    model.use_l2g = False
    out_off = model.forward_task(batch, "mt").logits.data
    assert not np.allclose(out_on, out_off)


def test_teacher_prefix(model, monkeypatch):
    """decode feeds the decoder BOS, then the tokens shifted by one, pad
    past each length, with a row at every position before each length, and
    returns the tokens as its targets."""
    pad, bos = model.corpus.pad_id, model.corpus.bos_id
    tokens = np.array([[4, 5, 6], [3, 2, pad]])
    seen = []
    monkeypatch.setattr(model, "decoder_forward",
                        lambda prefix, rows, memory, mask: seen.append((prefix, rows)) or "logits")
    out = model.decode(TaskOutputs(), tokens, np.array([3, 1]))
    (prefix, rows), = seen
    np.testing.assert_array_equal(prefix, [[bos, 4, 5], [bos, pad, pad]])
    np.testing.assert_array_equal(rows, [[True, True, True], [True, False, False]])
    assert out.logits == "logits" and out.targets is tokens


def test_greedy_decode_shape_and_padding(model, batch):
    pred = model.greedy_decode(batch)
    assert pred.shape == batch.tgt_tokens.shape
    for b in range(batch.batch_size):
        assert np.all(pred[b, batch.tgt_lens[b]:] == batch.pad_id)


def test_greedy_decode_matches_teacher_forcing_argmax(model, batch):
    """With the model's own greedy outputs as prefix, a teacher-forced pass
    with a row at every position to decode reproduces the same argmax at
    each step."""
    pred = model.greedy_decode(batch)
    pad = batch.pad_id
    prefix = np.full_like(pred, pad)
    prefix[:, 0] = model.corpus.bos_id
    prefix[:, 1:] = pred[:, :-1]
    cols = np.arange(pred.shape[1])[None, :]
    prefix = np.where(cols < batch.tgt_lens[:, None], prefix, pad)
    enc = model.encode_speech(batch, use_shrink=False)
    valid = cols < batch.tgt_lens[:, None]
    logits = model.decoder_forward(prefix, valid, enc.memory, enc.tenc_mask)
    np.testing.assert_array_equal(np.argmax(logits.data, axis=-1), pred[valid])


def test_model_construction_deterministic():
    m1, m2 = Model(tiny_config(), CORPUS), Model(tiny_config(), CORPUS)
    for a, b in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_param_groups_cover_everything(model):
    grouped = [id(t) for g in model.param_groups for t in g.tensors]
    assert sorted(grouped) == sorted(id(t) for t in model.tensors)
    assert len(set(grouped)) == len(grouped)
    kinds = {(g.key.partition, g.key.kind) for g in model.param_groups}
    assert ("A-Enc", "ATTEN") in kinds and ("Decoder", "FFN") in kinds
    lbm_groups = [g for g in model.param_groups
                  if g.key.partition == "A-Enc" and g.key.layer == -2]
    assert len(lbm_groups) == 1


def test_a_tensor_in_no_group_stops_the_build(monkeypatch):
    """A layer tensor that _build_groups leaves out would never be updated,
    saved or analysed, so building the model raises."""
    init = model_mod.EncoderLayer.__init__

    def with_gate(self, *args):
        init(self, *args)
        self.gate = Tensor(np.ones(3), requires_grad=True)

    monkeypatch.setattr(model_mod.EncoderLayer, "__init__", with_gate)
    with pytest.raises(RuntimeError, match="no group"):
        Model(tiny_config(), CORPUS)


def test_a_tensor_in_two_groups_stops_the_build(monkeypatch):
    build = Model._build_groups

    def twice(self):
        groups = build(self)
        return groups + [ParamGroup(GroupKey("Decoder", 9, "OTHER"), groups[0].tensors[:1])]

    monkeypatch.setattr(Model, "_build_groups", twice)
    with pytest.raises(RuntimeError, match="two groups"):
        Model(tiny_config(), CORPUS)


def test_checkpoint_roundtrip(tmp_path, model, batch):
    out1 = model.forward_task(batch, "st").logits.data.copy()
    path = tmp_path / "ckpt.stlab"
    save_checkpoint(path, model, extra_meta={"step": 3},
                    extra_buffers={"opt_t": np.array([3.0])})
    loaded, meta, extra = load_checkpoint(path)
    assert meta == {"step": 3}
    np.testing.assert_array_equal(extra["opt_t"], [3.0])
    out2 = loaded.forward_task(batch, "st").logits.data
    np.testing.assert_array_equal(out1, out2)


@pytest.mark.parametrize("toggles", [dict(use_l2g=False, use_lbm=False, mt_noise_p=0.3),
                                     dict(use_l2g=True, use_lbm=False, mt_noise_p=0.3)])
def test_checkpoint_restores_the_forward_settings(tmp_path, batch, toggles):
    """A checkpoint records the settings apply_toggles gave the model (MT's
    noise is 0 with the L2G extractors off), and its model loads with them,
    forwarding as the saved one did."""
    model = Model(tiny_config(), CORPUS).apply_toggles(Toggles(**toggles))
    path = tmp_path / "ckpt.stlab"
    save_checkpoint(path, model)
    loaded, _, _ = load_checkpoint(path)
    settings = [(m.use_l2g, m.use_lbm, m.mt_noise_p) for m in (model, loaded)]
    want = (toggles["use_l2g"], False, 0.3 if toggles["use_l2g"] else 0.0)
    assert settings == [want, want]

    def forward(m, task):
        rngs = [np.random.default_rng((5, b)) for b in range(batch.batch_size)]
        return m.forward_task(batch, task, use_shrink=True, mt_noise_rngs=rngs).logits.data

    for task in ("st", "mt"):
        np.testing.assert_array_equal(forward(model, task), forward(loaded, task))


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_bytes_deterministic(tmp_path, model):
    p1, p2 = tmp_path / "a.stlab", tmp_path / "b.stlab"
    save_checkpoint(p1, model)
    save_checkpoint(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


TRAILER = hashlib.sha256().digest_size


def checkpoint_regions(tmp_path, model):
    """A checkpoint with one extra buffer, and a cut inside each of its
    regions: magic, header length, header, first parameter, extra buffer,
    sha256 trailer."""
    path = tmp_path / "ckpt.stlab"
    save_checkpoint(path, model, extra_meta={"step": 3},
                    extra_buffers={"opt_m": np.arange(6.0)})
    blob = path.read_bytes()
    magic = len(b"STLAB-CKPT-v1\n")
    header_end = magic + 8 + int.from_bytes(blob[magic:magic + 8], "little")
    cuts = {"magic": 7, "header length": magic + 4, "header": header_end - 10,
            "at the header end": header_end, "parameter": header_end + 12,
            "extra buffer": len(blob) - TRAILER - 4, "trailer": len(blob) - 4}
    return path, blob, cuts


@pytest.mark.parametrize("region", ["magic", "header length", "header",
                                    "at the header end", "parameter", "extra buffer",
                                    "trailer"])
def test_checkpoint_cut_short_raises_value_error(tmp_path, model, region):
    path, blob, cuts = checkpoint_regions(tmp_path, model)
    path.write_bytes(blob[: cuts[region]])
    with pytest.raises(ValueError, match=str(path)):
        load_checkpoint(path)


def test_checkpoint_with_trailing_bytes_raises_value_error(tmp_path, model):
    path, blob, _ = checkpoint_regions(tmp_path, model)
    path.write_bytes(blob + b"\0\0\0\0")
    with pytest.raises(ValueError, match=str(path)):
        load_checkpoint(path)


def damage_header(path, how):
    """Rewrite a checkpoint's header: flip its first byte, add an unknown
    model_config key, add `dropout` or `translation_rule` (which every
    checkpoint written while ModelConfig or CorpusConfig had it records),
    give a float field a bool, drop the corpus config, drop a field of the
    model config, drop the forward settings (as every checkpoint written
    before they were recorded lacks them), or add an unknown one. The
    sha256 trailer is rewritten to match, so the damage reaches the header
    parser."""
    blob = bytearray(path.read_bytes())
    magic = len(b"STLAB-CKPT-v1\n")
    start = magic + 8
    end = start + int.from_bytes(blob[magic:start], "little")
    del blob[-TRAILER:]
    if how == "corrupt byte":
        blob[start] ^= 0xFF
    else:
        header = json.loads(blob[start:end])
        if how == "unknown model key":
            header["model_config"]["frame_dim"] = 16
        elif how == "dropout key":
            header["model_config"]["dropout"] = 0.0
        elif how == "translation_rule key":
            header["corpus"]["translation_rule"] = "fixed-permutation"
        elif how == "bool frame_noise_std":
            header["corpus"]["frame_noise_std"] = True
        elif how == "missing field":
            del header["model_config"]["seed"]
        elif how == "no forward settings":
            del header["forward"]
        elif how == "unknown forward key":
            header["forward"]["use_asr"] = True
        else:
            del header["corpus"]
        text = json.dumps(header, sort_keys=True).encode()
        blob[magic:end] = len(text).to_bytes(8, "little") + text
    path.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())


HEADER_DAMAGE = ["corrupt byte", "unknown model key", "dropout key",
                 "translation_rule key", "bool frame_noise_std", "no corpus",
                 "missing field", "no forward settings", "unknown forward key"]


@pytest.mark.parametrize("how", HEADER_DAMAGE)
def test_checkpoint_malformed_header_raises_value_error(tmp_path, model, how):
    path = tmp_path / "ckpt.stlab"
    save_checkpoint(path, model, extra_meta={"step": 3})
    damage_header(path, how)
    with pytest.raises(ValueError, match=str(path)):
        load_checkpoint(path)


@functools.lru_cache(maxsize=None)
def checkpoint_blob():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.stlab"
        save_checkpoint(path, Model(tiny_config(), CORPUS), extra_meta={"step": 3},
                        extra_buffers={"opt_m": np.arange(6.0)})
        return path.read_bytes()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), step=st.integers(0, 10**6),
       extra=st.lists(st.floats(allow_nan=False), max_size=5))
def test_checkpoint_round_trips(seed, step, extra):
    model = Model(tiny_config(seed=seed), CORPUS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.stlab"
        save_checkpoint(path, model, extra_meta={"step": step},
                        extra_buffers={"x": np.array(extra, dtype=np.float64)})
        loaded, meta, buffers = load_checkpoint(path)
    assert meta == {"step": step} and loaded.config == model.config
    np.testing.assert_array_equal(buffers["x"], extra)
    for a, b in zip(loaded.parameters(), model.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_cut_or_bit_flip_anywhere_raises_value_error(data):
    """A file cut at any offset, or with any one bit flipped, raises a
    ValueError naming it instead of loading."""
    blob = bytearray(checkpoint_blob())
    if data.draw(st.booleans(), label="cut"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        blob[data.draw(st.integers(0, len(blob) - 1), label="byte")] ^= 1 << data.draw(
            st.integers(0, 7), label="bit")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.stlab"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=str(path)):
            load_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_old_file(tmp_path, model, batch):
    """A write that fails after the header leaves the checkpoint already at
    the path byte-identical and loadable, and no temporary file behind."""
    path = tmp_path / "ckpt.stlab"
    save_checkpoint(path, model, extra_meta={"step": 3})
    before, weights = path.read_bytes(), model.in_proj.w.data.copy()
    model.in_proj.w.data += 1.0
    with pytest.raises(ValueError):  # a string buffer fails after the header
        save_checkpoint(path, model, extra_buffers={"bad": np.array(["x"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    loaded, meta, _ = load_checkpoint(path)
    assert meta == {"step": 3}
    np.testing.assert_array_equal(loaded.in_proj.w.data, weights)
