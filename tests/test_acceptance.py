"""Acceptance gate: the checks that decide whether the laboratory as a whole
behaves. Each test prints one PASS line with its measured quantities.

Several criteria share one real training run of the default configuration
(vocab 20, source length <= 8, 2-4x frame expansion, 4000 steps, batch 32,
seed 7); it is trained once per session by the `toy_run` fixture
(conftest.py).
"""

import time

import numpy as np
import pytest

from stlab import analysis
from stlab.analysis import capture_gradients, cosine, grad_consistency
from stlab.autograd import Tensor
from stlab.config import RunConfig, SchedulerConfig, TrainingConfig, Toggles
from stlab.data import (CorpusConfig, alignment_shrink_ratio, make_batch)
from stlab.gradcheck import check_gradients
from stlab.losses import (ce_loss, consistency_loss, contrastive_loss,
                          ctc_feasible, ctc_loss, ctc_loss_bruteforce)
from stlab.model import LbmParams, Model, ModelConfig
from stlab.scheduler import task_impact, update_weight
from stlab.shrink import ctc_greedy_path, shrink_sequence
from stlab.train import eval_batch, train


# -- 1: CTC forward algorithm vs alignment enumeration ------------------------


def test_ctc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    max_err = 0.0
    while checked < 200:
        T = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        L = int(rng.integers(1, 4))
        target = rng.integers(1, V, size=L)
        if not ctc_feasible(T, target):
            continue
        lp = Tensor(np.log(rng.dirichlet(np.ones(V), size=T)))
        fast = ctc_loss(lp, target).item()
        slow = ctc_loss_bruteforce(lp, target)
        err = abs(fast - slow)
        max_err = max(max_err, err)
        assert err < 1e-10, f"instance {checked}: forward {fast} vs oracle {slow}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    print(f"\nPASS ctc-oracle: 200 instances, max |diff| {max_err:.2e}, {elapsed:.1f}s")


# -- 2: finite-difference gradient audit of every loss -------------------------


def _grad_audit_model(seed):
    corpus = CorpusConfig(vocab_size=4, max_src_len=3, frame_dim=8, seed=seed)
    cfg = ModelConfig(d_model=8, n_heads=2, ffn_dim=12, a_enc_layers=1,
                      t_enc_layers=1, dec_layers=1, seed=seed)
    model = Model(cfg, corpus)
    model.mt_noise_p = 0.0  # MT on clean text, so every forward draws nothing
    return corpus, model


def _loss_builders(model, batch):
    pad = batch.pad_id

    def ctc_total():
        out = model.forward_task(batch, "asr", asr_variant="ctc")
        terms = None
        for b in range(batch.batch_size):
            lp = out.ctc_log_probs[b][(slice(0, int(batch.speech_lens[b])),)]
            t = ctc_loss(lp, batch.src_tokens[b, : batch.src_lens[b]])
            terms = t if terms is None else terms + t
        return terms / batch.batch_size

    def st_ce():
        out = model.forward_task(batch, "st")
        return ce_loss(out.logits, out.targets, pad)

    def contrastive():
        out = model.forward_task(batch, "st")
        src_mask = batch.src_tokens != pad
        clean = model.embed_src(batch.src_tokens)
        return contrastive_loss(out.tenc_input, out.tenc_mask, clean, src_mask)

    def consistency():
        out = model.forward_task(batch, "st")
        return consistency_loss(out.extractor_outs, out.attention_outs,
                                out.tenc_mask)

    def total():
        st = model.forward_task(batch, "st", use_shrink=True)
        mt = model.forward_task(batch, "mt")
        src_mask = batch.src_tokens != pad
        clean = model.embed_src(batch.src_tokens)
        return (ce_loss(st.logits, st.targets, pad)
                + 0.5 * ctc_total()
                + 0.8 * ce_loss(mt.logits, mt.targets, pad)
                + 0.3 * contrastive_loss(st.tenc_input, st.tenc_mask, clean, src_mask)
                + consistency_loss(st.extractor_outs, st.attention_outs,
                                   st.tenc_mask))

    return {"ce": st_ce, "ctc": ctc_total, "contrastive": contrastive,
            "consistency": consistency, "total": total}


def test_gradient_correctness_all_losses():
    t0 = time.perf_counter()
    n_seeds = 20
    checked_total = 0
    touched_groups = set()
    for seed in range(n_seeds):
        corpus, model = _grad_audit_model(seed)
        batch = make_batch(corpus, [seed * 10 + 1, seed * 10 + 2])
        builders = _loss_builders(model, batch)
        name = list(builders)[seed % len(builders)]
        f = builders[name]
        model.zero_grad()
        f().backward()
        touched = [p for p in model.parameters() if p.grad is not None]
        for g in model.param_groups:
            if g.has_grads():
                touched_groups.add((g.key.partition, g.key.layer, g.key.kind))
        model.zero_grad()
        rng = np.random.default_rng(seed)
        n = check_gradients(f, touched, rel_tol=1e-4, abs_tol=1e-8, step=1e-5,
                            max_entries_per_param=1, rng=rng)
        checked_total += n
    # between them the five losses must exercise every parameter group kind
    kinds = {(p, k) for p, _, k in touched_groups}
    for part in ("A-Enc", "T-Enc", "Decoder"):
        for kind in ("ATTEN", "FFN", "OTHER"):
            assert (part, kind) in kinds, f"({part}, {kind}) never received gradient"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"gradient audit took {elapsed:.1f}s"
    print(f"\nPASS gradcheck: {checked_total} entries over {n_seeds} seeds, "
          f"{elapsed:.1f}s")


# -- 3: task impact hand cases ---------------------------------------------------


def test_task_impact_hand_cases():
    st = np.array([3.0, 4.0])
    assert task_impact(np.zeros((1, 2)), st[None]) == 0.0
    d = np.array([1.0, -2.0, 2.0])
    assert task_impact(d[None], d[None].copy()) == 0.5
    assert task_impact(np.array([[4.0, 0.0]]), np.array([[0.0, 3.0]])) == 0.8
    print("\nPASS impact-hand-cases: m = 0, 0.5, 0.8 exact")


# -- 4: weight schedule closed form and prune ordering ----------------------------


def test_weight_schedule_closed_form():
    m, s = 0.7, 1000.0
    w = 1.0
    steps = (500, 1000, 1500, 2000, 2500)
    for u in steps:
        w = update_weight(w, m, u, s)
    expect = m ** (sum(steps) / s)
    assert abs(w - expect) <= 1e-12 * max(1.0, abs(expect))
    print(f"\nPASS schedule-closed-form: iterated {w:.12f} vs w0*m^(sum u/s) "
          f"{expect:.12f}")


def test_asr_pruned_before_mt(toy_run):
    _, result, _ = toy_run
    rows = result.weight_history_path.read_text().splitlines()[1:]
    pruned_at = {}
    weights_seen = {"asr": [], "mt": []}
    for row in rows:
        step, task, _, w = row.split(",")
        step, w = int(step), float(w)
        weights_seen[task].append(w)
        if w < 0.1 and task not in pruned_at:
            pruned_at[task] = step
    assert "asr" in pruned_at, "ASR never pruned"
    assert "mt" in pruned_at, "MT never pruned"
    assert pruned_at["asr"] < pruned_at["mt"], (
        f"ASR pruned at {pruned_at['asr']}, MT at {pruned_at['mt']}")
    for task, ws in weights_seen.items():
        assert all(b < a for a, b in zip(ws, ws[1:])), f"{task} not monotone"
    print(f"\nPASS prune-ordering: ASR at step {pruned_at['asr']} < "
          f"MT at step {pruned_at['mt']}, both monotone decreasing")


# -- 5: attention entropy exactness ------------------------------------------------


def test_entropy_exactness():
    for L in (2, 4, 8, 16):
        w = np.full((1, 1, 3, L), 1.0 / L)
        assert abs(analysis.attention_entropy(w) - np.log2(L)) < 1e-9
    one_hot = np.zeros((1, 1, 4, 4))
    one_hot[..., 2] = 1.0
    assert analysis.attention_entropy(one_hot) == 0.0
    rng = np.random.default_rng(77)
    L = 10
    rows = rng.dirichlet(np.ones(L) * rng.uniform(0.2, 5.0), size=1000)
    w = rows.reshape(1, 1, 1000, L)
    e_per_row = -np.where(rows > 0, rows * np.log2(rows), 0.0).sum(axis=1)
    assert np.all(e_per_row >= -1e-12) and np.all(e_per_row <= np.log2(L) + 1e-9)
    got = analysis.attention_entropy(w)
    assert abs(got - e_per_row.mean()) < 1e-9
    print(f"\nPASS entropy: uniform = log2 N (1e-9), one-hot = 0, "
          f"1000 random rows within [0, log2 N]")


# -- 6: look-back preserves information --------------------------------------------


def test_lbm_information_preservation():
    rng = np.random.default_rng(55)
    d, V = 6, 4
    lbm = LbmParams(np.random.default_rng(0), d, 10)
    multi_frame_segments = 0
    for i in range(100):
        n = int(rng.integers(2, 12))
        feats = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        logits = rng.normal(size=(n, V))
        lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
        shrunk, fused, _ = shrink_sequence(feats, Tensor(lp), lbm)
        np.testing.assert_array_equal(shrunk.decompress(),
                                      ctc_greedy_path(lp).tokens)
        fused.sum().backward()
        frame_grad = np.linalg.norm(feats.grad, axis=1)
        for lo, hi in zip(shrunk.seg_start, shrunk.seg_end):
            if hi > lo:
                multi_frame_segments += 1
                assert np.all(frame_grad[lo:hi + 1] > 0.0), (
                    f"instance {i}: dead frame in segment [{lo}, {hi}]")
    assert multi_frame_segments > 0
    print(f"\nPASS lbm-preservation: 100 instances, "
          f"{multi_frame_segments} multi-frame segments all gradient-reached, "
          f"decompression exact")


# -- 7: measured shrink ratio vs generator oracle ------------------------------------


def test_shrink_ratio_near_oracle(toy_run):
    config, result, _ = toy_run
    import json
    last = json.loads(result.metrics_path.read_text().splitlines()[-1])
    measured = last["length_ratio"]
    batch = eval_batch(config)
    oracle = float(np.mean([alignment_shrink_ratio(a) for a in batch.alignments]))
    assert measured is not None
    assert abs(measured - oracle) < 0.10, (
        f"measured {measured:.4f} vs oracle {oracle:.4f}")
    print(f"\nPASS shrink-ratio: measured {measured:.4f} vs oracle {oracle:.4f} "
          f"(|diff| {abs(measured - oracle):.4f} < 0.10)")


# -- 8: end-to-end toy learning --------------------------------------------------------


def test_toy_learning(toy_run):
    config, result, elapsed = toy_run
    assert config.corpus.vocab_size == 20
    assert config.corpus.max_src_len == 8
    assert (config.corpus.expansion_min, config.corpus.expansion_max) == (2, 4)
    assert config.training.steps == 4000
    assert config.training.batch_size == 32
    assert config.training.seed == 7
    assert elapsed < 15 * 60, f"training took {elapsed / 60:.1f} min"
    assert result.final_accuracy >= 0.90, f"accuracy {result.final_accuracy:.4f}"
    assert result.final_accuracy > result.copy_baseline
    print(f"\nPASS toy-learning: accuracy {result.final_accuracy:.4f} >= 0.90 "
          f"(baseline {result.copy_baseline:.4f}), {elapsed / 60:.1f} min")


# -- 9: consistency analyzer sanity ------------------------------------------------------


def test_consistency_analyzer_sanity(toy_run):
    config, result, _ = toy_run
    from stlab.model import load_checkpoint
    model, _, _ = load_checkpoint(result.final_checkpoint)

    batch = make_batch(config.corpus, [1, 2, 3, 4])
    grads = capture_gradients(model, batch, "st", use_shrink=True)
    for key, vec in grads.items():
        assert cosine(vec, vec.copy()) == 1.0
    same = grad_consistency(grads, grads, partition="T-Enc", kind="ATTEN")
    assert same[None] == 1.0

    votes = []
    details = []
    for seed in range(3):
        rng = np.random.default_rng((seed, 0xC9))
        probe = make_batch(config.corpus, rng.integers(0, 2**62, size=16))
        asr = capture_gradients(model, probe, "asr", asr_variant="ce",
                                use_shrink=True)
        st = capture_gradients(model, probe, "st", use_shrink=True)

        def level(partition):
            vals = [grad_consistency(asr, st, partition=partition, kind=k)[None]
                    for k in ("ATTEN", "FFN")]
            return float(np.mean(vals))

        a, d = level("A-Enc"), level("Decoder")
        votes.append(a > d)
        details.append(f"seed {seed}: A-Enc {a:.3f} vs Decoder {d:.3f}")
    assert sum(votes) >= 2, "; ".join(details)
    print("\nPASS analyzer-sanity: self-cosine exactly 1.0; "
          f"A-Enc > Decoder ASR-ST consistency on {sum(votes)}/3 seeds "
          f"({'; '.join(details)})")


# -- 10: bitwise determinism of full runs --------------------------------------------------


def test_full_run_determinism(tmp_path):
    """Two complete runs (scheduler updates, shrink activation, checkpoints
    all engaged) with one config and seed must agree byte for byte."""
    corpus = CorpusConfig(vocab_size=8, max_src_len=4, seed=13)
    model = ModelConfig(d_model=16, n_heads=2, ffn_dim=24, seed=13)
    config = RunConfig(corpus=corpus, model=model,
                       scheduler=SchedulerConfig(update_every=20, k=4),
                       training=TrainingConfig(steps=60, batch_size=4,
                                               eval_every=20, eval_batch_size=4,
                                               checkpoint_every=20, seed=13),
                       toggles=Toggles(shrink_warmup_fraction=0.25))
    r1 = train(config, tmp_path / "a")
    r2 = train(config, tmp_path / "b")
    assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
    ckpts_a = sorted((tmp_path / "a").glob("checkpoint_*.stlab"))
    ckpts_b = sorted((tmp_path / "b").glob("checkpoint_*.stlab"))
    assert [p.name for p in ckpts_a] == [p.name for p in ckpts_b]
    assert len(ckpts_a) >= 3
    for pa, pb in zip(ckpts_a, ckpts_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
    assert (tmp_path / "a" / "weight_history.csv").read_bytes() == \
        (tmp_path / "b" / "weight_history.csv").read_bytes()
    print(f"\nPASS determinism: metrics, weight history and "
          f"{len(ckpts_a)} checkpoints bitwise identical across two runs")
