"""Gradient-consistency cosines and attention-entropy measurements."""

import numpy as np
import pytest

import per_item_reference as reference
import stlab.model as model_mod
from stlab import analysis
from stlab.analysis import (attention_entropy, capture_gradients,
                            consistency_protocol, cosine, grad_consistency,
                            stream_entropy_report)
from stlab.autograd import GroupKey
from stlab.data import CorpusConfig, make_batch
from stlab.losses import ce_loss, ctc_loss, task_loss
from stlab.model import Model, ModelConfig

CORPUS = CorpusConfig(vocab_size=6, max_src_len=4, seed=5)
MODEL_CFG = ModelConfig(d_model=16, n_heads=2, ffn_dim=24, seed=5)


# -- cosine ---------------------------------------------------------------


def test_cosine_basics():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine(v, v) == pytest.approx(1.0)
    assert cosine(v, -v) == pytest.approx(-1.0)
    assert cosine(v, np.zeros(3)) == 0.0
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(0.0)


def key(p, l, k):
    return GroupKey(p, l, k)


def test_grad_consistency_self_is_one():
    rng = np.random.default_rng(0)
    vectors = {key("T-Enc", 0, "ATTEN"): rng.normal(size=10),
               key("T-Enc", 1, "ATTEN"): rng.normal(size=10)}
    res = grad_consistency(vectors, dict(vectors), partition="T-Enc", kind="ATTEN")
    assert res[None] == pytest.approx(1.0)


def test_grad_consistency_negation_is_minus_one():
    rng = np.random.default_rng(1)
    vectors = {key("Decoder", 0, "FFN"): rng.normal(size=8)}
    neg = {k: -v for k, v in vectors.items()}
    res = grad_consistency(vectors, neg, partition="Decoder", kind="FFN")
    assert res[None] == pytest.approx(-1.0)


def test_grad_consistency_per_layer_vs_concat():
    """Module-level concatenation is not the mean of per-layer cosines."""
    a = {key("T-Enc", 0, "FFN"): np.array([1.0, 0.0]),
         key("T-Enc", 1, "FFN"): np.array([0.0, 3.0])}
    b = {key("T-Enc", 0, "FFN"): np.array([1.0, 0.0]),
         key("T-Enc", 1, "FFN"): np.array([0.0, -3.0])}
    per = grad_consistency(a, b, partition="T-Enc", kind="FFN", per_layer=True)
    assert per == {0: pytest.approx(1.0), 1: pytest.approx(-1.0)}
    concat = grad_consistency(a, b, partition="T-Enc", kind="FFN")[None]
    assert concat == pytest.approx((1 - 9) / 10)


def test_grad_consistency_excludes_plumbing_layers():
    a = {key("A-Enc", -1, "OTHER"): np.ones(3)}
    with pytest.raises(ValueError, match="share no parameters"):
        grad_consistency(a, dict(a), partition="A-Enc", kind="OTHER")


def test_capture_gradients_snapshot_contents():
    model = Model(MODEL_CFG, CORPUS)
    batch = make_batch(CORPUS, [1, 2])
    s = capture_gradients(model, batch, "asr", asr_variant="ctc")
    parts = {k.partition for k in s}
    assert parts == {"A-Enc"}
    assert all(np.isfinite(v).all() for v in s.values())
    # grads are cleared afterwards
    assert all(p.grad is None for p in model.parameters())


def test_capture_gradients_wraps_failures():
    model = Model(MODEL_CFG, CORPUS)
    batch = make_batch(CORPUS, [1])  # B=1 still fine for asr; break the task id
    with pytest.raises(RuntimeError, match="task 'bogus'"):
        capture_gradients(model, batch, "bogus")


@pytest.mark.parametrize("task, kw", [
    ("st", {}), ("st", {"use_shrink": True}),
    ("asr", {"asr_variant": "ctc"}), ("asr", {"asr_variant": "ce", "use_shrink": True}),
    ("asr", {"asr_variant": "ce"}), ("mt", {})])  # MT at the model's noise
def test_capture_instance_gradients_match_batch_one(task, kw):
    """Row b of each partition's [B, n] matrix from one batched pass holds
    the ATTEN gradients capture_gradients reports for item b alone, in layer
    order, with the same partitions present; the model's parameters and
    grads are left as they were."""
    model = Model(MODEL_CFG, CORPUS)
    seeds = [3, 4, 5]
    params = [t.data for t in model.parameters()]

    def noise(items):
        return {"mt_noise_rngs": [np.random.default_rng((j, 1)) for j in items]} \
            if task == "mt" else {}

    got = analysis.capture_instance_gradients(model, make_batch(CORPUS, seeds), task,
                                              **kw, **noise(range(3)))
    for j in range(3):
        alone = capture_gradients(model, make_batch(CORPUS, seeds[j:j + 1]), task,
                                  **kw, **noise([j]))
        want = reference.atten_by_partition(alone)
        assert want and got.keys() == want.keys()
        for part, v in want.items():
            assert got[part].shape == (3, v.size)
            np.testing.assert_allclose(got[part][j], v, rtol=0,
                                       atol=1e-12 * np.abs(v).max())
    assert all(t.data is d for t, d in zip(model.parameters(), params))
    assert all(p.grad is None for p in model.parameters())


def test_capture_instance_gradients_restores_parameters_on_failure():
    model = Model(MODEL_CFG, CORPUS)
    params = [t.data for t in model.parameters()]
    with pytest.raises(ValueError, match="unknown task"):
        analysis.capture_instance_gradients(model, make_batch(CORPUS, [1, 2]), "bogus")
    assert all(t.data is d for t, d in zip(model.parameters(), params))


def test_consistency_protocol_rows():
    model = Model(MODEL_CFG, CORPUS)
    rows = consistency_protocol(model, ("mt", "st"), n=3, repeats=2, seed=1)
    assert rows, "expected at least one consistency row"
    for r in rows:
        assert r.partition in ("T-Enc", "Decoder")  # mt never reaches A-Enc
        assert -1.0 - 1e-9 <= r.mean <= 1.0 + 1e-9
        assert r.layer is None


def test_consistency_protocol_deterministic():
    model = Model(MODEL_CFG, CORPUS)
    r1 = consistency_protocol(model, ("mt", "st"), n=2, repeats=2, seed=3)
    r2 = consistency_protocol(model, ("mt", "st"), n=2, repeats=2, seed=3)
    assert [(a.partition, a.kind, a.mean) for a in r1] == \
           [(b.partition, b.kind, b.mean) for b in r2]


def test_consistency_protocol_draws_mt_noise_per_item_and_repeat(monkeypatch):
    """An MT side draws item j's input noise in repeat r from a generator
    of its own, seeded (seed, 0xAB, r, j)."""
    states = []
    noise_inject = model_mod.noise_inject

    def recording_noise(tokens, p, rng):
        states.append(rng.bit_generator.state)
        return noise_inject(tokens, p, rng)

    monkeypatch.setattr(model_mod, "noise_inject", recording_noise)
    consistency_protocol(Model(MODEL_CFG, CORPUS), ("mt", "st"), n=3, repeats=2,
                         seed=4)
    assert states == [np.random.default_rng((4, 0xAB, r, j)).bit_generator.state
                      for r in range(2) for j in range(3)]


def test_consistency_protocol_rows_come_in_partition_kind_layer_order():
    """Rows come out in (partition, kind, layer) order, twelve T-Enc layers
    in numeric order."""
    model = Model(ModelConfig(d_model=16, n_heads=2, ffn_dim=24, seed=5, t_enc_layers=12),
                  CORPUS)
    rows = consistency_protocol(model, ("mt", "st"), n=2, repeats=2, seed=0,
                                per_layer=True)
    keys = [(r.partition, r.kind, r.layer) for r in rows]
    assert keys == sorted(keys)
    assert [layer for part, kind, layer in keys
            if (part, kind) == ("T-Enc", "ATTEN")] == list(range(12))


# -- entropy ----------------------------------------------------------------


def test_entropy_uniform_rows():
    B, H, L = 2, 2, 8
    w = np.full((B, H, L, L), 1.0 / L)
    assert attention_entropy(w) == pytest.approx(np.log2(L), abs=1e-9)


def test_entropy_one_hot_rows():
    w = np.zeros((1, 1, 4, 4))
    w[..., 0] = 1.0
    assert attention_entropy(w) == pytest.approx(0.0, abs=1e-12)


def test_entropy_bounds_random_rows():
    rng = np.random.default_rng(7)
    L = 6
    w = rng.dirichlet(np.ones(L), size=(4, 2, 42)).reshape(4, 2, 42, L)
    e = attention_entropy(w)
    assert 0.0 <= e <= np.log2(L) + 1e-9


def test_entropy_pad_key_renormalization():
    """Mass on padding keys is renormalized away before measuring."""
    L = 4
    w = np.zeros((1, 1, L, L))
    w[..., :] = 1.0 / L  # uniform over all four keys
    key_mask = np.array([[True, True, False, False]])
    e = attention_entropy(w, key_mask=key_mask)
    assert e == pytest.approx(1.0, abs=1e-9)  # uniform over 2 valid keys


def test_entropy_pad_queries_excluded():
    w = np.zeros((1, 1, 3, 3))
    w[:, :, :2, 0] = 1.0          # valid queries: one-hot
    w[:, :, 2] = 1.0 / 3          # pad query: uniform (ignored)
    qm = np.array([[True, True, False]])
    assert attention_entropy(w, query_mask=qm) == pytest.approx(0.0, abs=1e-12)


def test_entropy_rejects_unnormalized_rows():
    w = np.full((1, 1, 2, 2), 0.6)
    with pytest.raises(ValueError, match="not normalized"):
        attention_entropy(w)


def test_stream_entropy_report_layers():
    model = Model(MODEL_CFG, CORPUS)
    batch = make_batch(CORPUS, [1, 2, 3])
    model.mt_noise_p = 0.0
    out = model.forward_task(batch, "mt")
    rows = stream_entropy_report(out.attention_weights, out.tenc_mask, "mt")
    assert [r.layer for r in rows] == list(range(MODEL_CFG.t_enc_layers))
    assert all(r.stream == "mt" and r.entropy_bits >= 0.0 for r in rows)


def test_asr_task_loss_variants():
    """The probed ASR loss is the variant's own term: CTC on the CTC head's
    log-probs, or CE on the source decoded from the speech memory."""
    model = Model(MODEL_CFG, CORPUS)
    batch = make_batch(CORPUS, [4, 5])
    l_ctc, l_ce = (task_loss(model.forward_task(batch, "asr", asr_variant=v), batch)
                   for v in ("ctc", "ce"))
    feats, mask = model.a_enc_forward(batch.speech, batch.speech_lens)
    assert l_ctc.item() == ctc_loss(model.ctc_log_probs(feats, mask), batch.src_tokens,
                                    batch.speech_lens, batch.src_lens).item()
    ce = model.asr_outputs(model.encode_speech(batch, False), batch, "ce")
    assert l_ce.item() == ce_loss(ce.logits, batch.src_tokens, batch.pad_id).item()
