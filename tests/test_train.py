"""Training loop: metrics stream, determinism, resume, toggles, NaN abort."""

import dataclasses
import importlib
import json
from collections import Counter

import numpy as np
import pytest

import per_item_reference as reference
import stlab.model as model_mod
import stlab.train as train_mod
from stlab import analysis
from stlab import scheduler as sched
from stlab.config import (RunConfig, SchedulerConfig, Toggles, TrainingConfig)
from stlab.data import CorpusConfig
from stlab.model import ASR_VARIANTS, Model, ModelConfig, load_checkpoint
from stlab.train import (NanAbort, batch_for_step, compute_losses,
                         copy_baseline_accuracy, eval_batch, make_task_weights,
                         token_accuracy, train)


def tiny_config(steps=8, **toggle_over):
    corpus = CorpusConfig(vocab_size=5, max_src_len=3, seed=6)
    model = ModelConfig(d_model=16, n_heads=2, ffn_dim=24, seed=6)
    toggles = dict(shrink_warmup_fraction=0.5)
    toggles.update(toggle_over)
    return RunConfig(corpus=corpus, model=model,
                     scheduler=SchedulerConfig(update_every=4, k=2),
                     training=TrainingConfig(steps=steps, batch_size=3,
                                             eval_every=4, eval_batch_size=3,
                                             checkpoint_every=4, seed=6),
                     toggles=Toggles(**toggles))


def read_metrics(path):
    return [json.loads(ln) for ln in path.read_text().splitlines()]


@pytest.fixture
def calls(monkeypatch):
    """Counts Model.forward_task calls by task, and Model.a_enc_forward
    calls under "a_enc"."""
    counts = Counter()
    forward_task, a_enc_forward = Model.forward_task, Model.a_enc_forward

    def counting_forward_task(self, batch, task, **kw):
        counts[task] += 1
        return forward_task(self, batch, task, **kw)

    def counting_a_enc_forward(self, *args):
        counts["a_enc"] += 1
        return a_enc_forward(self, *args)

    monkeypatch.setattr(Model, "forward_task", counting_forward_task)
    monkeypatch.setattr(Model, "a_enc_forward", counting_a_enc_forward)
    return counts


def test_package_attribute_is_train_module():
    assert importlib.import_module("stlab").train is importlib.import_module("stlab.train")


def test_token_accuracy_and_baseline():
    pred = np.array([[1, 2, 9]])
    tgt = np.array([[1, 3, 9]])
    assert token_accuracy(pred, tgt, pad_id=9) == 0.5
    cfg = tiny_config()
    b = eval_batch(cfg)
    base = copy_baseline_accuracy(b)
    assert base == 0.0  # derangement translation: copying never matches


def test_batch_for_step_deterministic():
    cfg = tiny_config()
    b1 = batch_for_step(cfg, 3, 4)
    b2 = batch_for_step(cfg, 3, 4)
    np.testing.assert_array_equal(b1.speech, b2.speech)
    b3 = batch_for_step(cfg, 4, 4)
    assert not np.array_equal(b1.sample_seeds, b3.sample_seeds)


def test_train_writes_expected_artifacts(tmp_path):
    cfg = tiny_config()
    res = train(cfg, tmp_path / "run")
    rows = read_metrics(res.metrics_path)
    assert [r["step"] for r in rows] == list(range(1, cfg.training.steps + 1))
    last = rows[-1]
    assert set(last) == {"step", "losses", "task_weights", "pruned",
                         "length_ratio", "st_greedy_accuracy"}
    assert last["losses"]["total"] > 0
    assert last["st_greedy_accuracy"] is not None
    assert last["length_ratio"] is not None  # shrinking active past warmup
    assert rows[0]["length_ratio"] is None   # and not before
    assert (tmp_path / "run" / "config.json").exists()
    assert (tmp_path / "run" / "timings.jsonl").exists()
    hist = (tmp_path / "run" / "weight_history.csv").read_text().splitlines()
    assert hist[0] == "step,task,m,w"
    assert len(hist) > 1  # scheduler fired at steps 4 and 8


def test_train_bitwise_deterministic(tmp_path):
    cfg = tiny_config()
    r1 = train(cfg, tmp_path / "a")
    r2 = train(cfg, tmp_path / "b")
    assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
    assert r1.final_checkpoint.read_bytes() == r2.final_checkpoint.read_bytes()
    assert (tmp_path / "a" / "weight_history.csv").read_bytes() == \
        (tmp_path / "b" / "weight_history.csv").read_bytes()


def test_resume_replays_exactly(tmp_path):
    """Resuming from a mid-run checkpoint reproduces the remaining steps
    bitwise (metrics rows and final checkpoint)."""
    cfg = tiny_config(steps=8)
    full = train(cfg, tmp_path / "full")
    resumed = train(cfg, tmp_path / "resumed",
                    resume_from=tmp_path / "full" / "checkpoint_000004.stlab")
    full_rows = full.metrics_path.read_text().splitlines()
    resumed_rows = resumed.metrics_path.read_text().splitlines()
    assert resumed_rows == full_rows[4:]
    assert full.final_checkpoint.read_bytes() == resumed.final_checkpoint.read_bytes()


def test_resume_checks_the_recorded_configs(tmp_path):
    """A checkpoint records its model and corpus configs; a resume under
    another corpus raises naming the file, while a resume that only runs
    longer goes ahead."""
    cfg = tiny_config(steps=4)
    full = train(cfg, tmp_path / "full")
    other = dataclasses.replace(cfg, corpus=dataclasses.replace(cfg.corpus, seed=7))
    with pytest.raises(ValueError, match=str(full.final_checkpoint)):
        train(other, tmp_path / "other", resume_from=full.final_checkpoint)
    longer = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, steps=5))
    assert train(longer, tmp_path / "longer", resume_from=full.final_checkpoint).steps_run == 1


def test_in_place_resume_rewrites_later_rows(tmp_path):
    """Resuming in the directory of a run that got past the checkpoint drops
    that run's later rows, so the metrics match an uninterrupted run."""
    cfg = tiny_config(steps=6)
    full = train(cfg, tmp_path / "full")
    train(cfg, tmp_path / "run")
    resumed = train(cfg, tmp_path / "run",
                    resume_from=tmp_path / "run" / "checkpoint_000004.stlab")
    assert resumed.metrics_path.read_bytes() == full.metrics_path.read_bytes()
    timings = read_metrics(tmp_path / "run" / "timings.jsonl")
    assert [r["step"] for r in timings] == list(range(1, 7))


def failing_probe_fn(*args):
    def probe():
        raise RuntimeError("probe exploded")
    return probe


def test_probe_failures_go_to_events_and_survive_resume(tmp_path, monkeypatch):
    """A failed probe lands in events.jsonl and in the checkpoint, and an
    in-place resume keeps it once; metrics.jsonl reads as if no probe ran."""
    cfg = tiny_config(steps=8)
    with monkeypatch.context() as m:
        m.setattr(train_mod.sched, "schedule_step", lambda step, weights, probe: weights)
        quiet = train(cfg, tmp_path / "quiet")
    monkeypatch.setattr(train_mod, "make_probe_fn", failing_probe_fn)
    run = train(cfg, tmp_path / "run")
    events_path = tmp_path / "run" / "events.jsonl"
    events = read_metrics(events_path)
    assert [e["step"] for e in events] == [4, 8]
    assert all("probe exploded" in e["event"] for e in events)
    assert run.metrics_path.read_bytes() == quiet.metrics_path.read_bytes()
    assert (tmp_path / "quiet" / "events.jsonl").read_text() == ""

    _, meta, _ = load_checkpoint(run.final_checkpoint)
    assert [tuple(w) for w in meta["task_weights"]["warnings"]] == [
        (e["step"], e["event"]) for e in events]
    train(cfg, tmp_path / "run",
          resume_from=tmp_path / "run" / "checkpoint_000004.stlab")
    assert read_metrics(events_path) == events
    assert run.metrics_path.read_bytes() == quiet.metrics_path.read_bytes()


def test_checkpoint_without_warnings_still_restores():
    cfg = tiny_config()
    weights = make_task_weights(cfg)
    weights.warnings.append((4, "probe failed: x"))
    state = train_mod._weights_state(weights)
    assert train_mod._restore_weights(state, cfg).warnings == [(4, "probe failed: x")]


def assert_probe_matches_reference(cfg, shrink):
    """The batched probe gives every instance the ATTEN gradients of its
    batch-1 reference (same tasks and partitions, one [k, n] matrix each,
    row j to 1e-12 of its largest entry), and schedule_step reads the same
    impacts from both to 1e-10."""
    model = train_mod.build_model(cfg)
    weights = make_task_weights(cfg)
    batched = train_mod.make_probe_fn(model, cfg, weights, 4, shrink)()
    per_item = reference.probe_instances(model, cfg, weights, 4, shrink)
    assert batched.keys() == per_item.keys()
    for task, parts in per_item.items():
        assert batched[task].keys() == parts.keys(), task
        for part, want in parts.items():
            got = batched[task][part]
            assert got.shape == want.shape and len(want) == cfg.scheduler.k, (task, part)
            for got_row, row in zip(got, want):
                np.testing.assert_allclose(got_row, row, rtol=0,
                                           atol=1e-12 * np.abs(row).max(), err_msg=task)
    impacts = []
    for probe in (train_mod.make_probe_fn(model, cfg, weights, 4, shrink),
                  lambda: reference.probe_instances(model, cfg, weights, 4, shrink)):
        tw = make_task_weights(cfg)
        sched.schedule_step(4, tw, probe)
        assert not tw.warnings
        impacts.append({row.task: row.m for row in tw.history})
    assert impacts[0].keys() == impacts[1].keys() == {"asr", "mt"}
    for task, m in impacts[1].items():
        assert impacts[0][task] == pytest.approx(m, rel=1e-10, abs=0), task


@pytest.mark.parametrize("variant", ASR_VARIANTS)
def test_probe_measures_configured_asr_variant(variant):
    for shrink in (False, True):
        assert_probe_matches_reference(tiny_config(asr_variant=variant), shrink)


@pytest.mark.parametrize("over", [{"use_l2g": False}, {"use_lbm": False}, {"k": 1}],
                         ids=["no-l2g", "no-lbm", "k1"])
def test_probe_matches_the_batch_one_reference(over):
    cfg = tiny_config(**{k: v for k, v in over.items() if k != "k"})
    if "k" in over:
        cfg = dataclasses.replace(cfg, scheduler=SchedulerConfig(update_every=4, k=over["k"]))
    for shrink in (False, True):
        assert_probe_matches_reference(cfg, shrink)


def test_probe_measures_mt_at_the_trained_noise(monkeypatch):
    """The MT probe uses the run's noise: mt_noise_p, or none with the L2G
    extractors off, as the trainer does."""
    seen = []
    noise_inject = model_mod.noise_inject

    def recording_noise(tokens, p, rng):
        seen.append(p)
        return noise_inject(tokens, p, rng)

    monkeypatch.setattr(model_mod, "noise_inject", recording_noise)
    for use_l2g, p in ((True, 0.3), (False, 0.0)):
        cfg = tiny_config(use_l2g=use_l2g, mt_noise_p=0.3)
        model = train_mod.build_model(cfg)
        seen.clear()
        train_mod.make_probe_fn(model, cfg, make_task_weights(cfg), 4, False)()
        assert seen and set(seen) == {p}
        seen.clear()
        compute_losses(model, batch_for_step(cfg, 1, 3), cfg, make_task_weights(cfg), 1,
                       False)
        assert seen and set(seen) == {p}


def test_losses_respect_toggles(tmp_path):
    cfg = tiny_config(steps=2)
    batch = batch_for_step(cfg, 1, 3)
    model = train_mod.build_model(cfg)
    weights = make_task_weights(cfg)
    bundle, _ = compute_losses(model, batch, cfg, weights, 1, False)
    s = bundle.scalars()
    assert all(s[k] is not None for k in ("st", "asr", "mt", "cl", "consistency"))

    off = tiny_config(steps=2, use_asr=False, use_mt=False, use_cl=False,
                      use_l2g=False)
    model2 = train_mod.build_model(off)
    bundle2, _ = compute_losses(model2, batch, off, make_task_weights(off), 1, False)
    s2 = bundle2.scalars()
    assert s2["asr"] is None and s2["mt"] is None
    assert s2["cl"] is None and s2["consistency"] is None
    assert s2["total"] == pytest.approx(s2["st"])


def test_pruned_task_not_forwarded(calls):
    cfg = tiny_config(steps=2)
    model = train_mod.build_model(cfg)
    weights = make_task_weights(cfg)
    weights.pruned.add("asr")
    batch = batch_for_step(cfg, 1, 3)
    compute_losses(model, batch, cfg, weights, 1, False)
    assert "asr" not in calls and calls["st"] == 1 and calls["mt"] == 1


def test_pruned_asr_keeps_ctc_head_training(calls):
    """Shrinking reads the CTC head's greedy path, so pruning ASR must not
    freeze the head, nor may the `ce` variant leave it untrained; without
    ASR at all the head gets no gradient."""
    batch = batch_for_step(tiny_config(steps=2), 1, 3)
    for variant in ("ctc", "ce"):
        cfg = tiny_config(steps=2, asr_variant=variant)
        model = train_mod.build_model(cfg)
        weights = make_task_weights(cfg)
        weights.pruned.add("asr")
        bundle, _ = compute_losses(model, batch, cfg, weights, 1, True)
        bundle.total.backward()
        assert "asr" not in calls
        assert bundle.scalars()["asr"] is None
        assert all(p.grad is not None for p in model.ctc_head.tensors), variant

    off = tiny_config(steps=2, use_asr=False)
    model2 = train_mod.build_model(off)
    bundle2, _ = compute_losses(model2, batch, off, make_task_weights(off), 1, True)
    bundle2.total.backward()
    assert bundle2.scalars()["ctc"] is None
    assert all(p.grad is None for p in model2.ctc_head.tensors)


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("variant", ASR_VARIANTS)
def test_one_a_enc_pass_per_step(calls, variant, pruned):
    cfg = tiny_config(steps=2, asr_variant=variant)
    model = train_mod.build_model(cfg)
    weights = make_task_weights(cfg)
    if pruned:
        weights.pruned.add("asr")
    bundle, _ = compute_losses(model, batch_for_step(cfg, 1, 3), cfg, weights, 1, True)
    assert calls["a_enc"] == 1
    s = bundle.scalars()
    assert (s["asr"] is None) == pruned
    # the segmenter CTC term fills in whenever the ASR term holds no CTC
    assert (s["ctc"] is None) == (not pruned and variant != "ce")


def test_asr_variant_paths():
    """The trainer's ASR term, read off the ST pass, equals the probes'
    standalone ASR loss on the same model and batch."""
    for variant in ASR_VARIANTS:
        cfg = tiny_config(steps=2, asr_variant=variant)
        model = train_mod.build_model(cfg)
        batch = batch_for_step(cfg, 1, 3)
        for shrink in (False, True):
            bundle, _ = compute_losses(model, batch, cfg, make_task_weights(cfg), 1,
                                       shrink)
            l_asr = bundle.scalars()["asr"]
            assert np.isfinite(l_asr)
            probe = analysis.task_probe_loss(model, batch, "asr", asr_variant=variant,
                                             use_shrink=shrink)
            assert abs(l_asr - probe.item()) <= 1e-12, (variant, shrink)


def test_shrink_warmup_disable():
    cfg = tiny_config(steps=4, shrink_warmup_fraction=1.0)
    # fraction >= 1 means shrinking never activates
    shrink_start = int(cfg.toggles.shrink_warmup_fraction * cfg.training.steps)
    active = (cfg.toggles.shrink_warmup_fraction < 1.0 and
              cfg.training.steps > shrink_start)
    assert not active


def test_nan_abort(tmp_path, monkeypatch):
    cfg = tiny_config(steps=6)

    real = train_mod.compute_losses

    def poisoned(model, batch, config, weights, step, shrink_active, **kw):
        bundle, out = real(model, batch, config, weights, step, shrink_active, **kw)
        if step == 5:
            bundle.total.data = np.asarray(np.nan)
        return bundle, out

    monkeypatch.setattr(train_mod, "compute_losses", poisoned)
    with pytest.raises(NanAbort) as exc:
        train(cfg, tmp_path / "run")
    assert exc.value.step == 5
    # the checkpoint from step 4 survives for post-mortems
    assert exc.value.last_checkpoint.name == "checkpoint_000004.stlab"
    assert exc.value.last_checkpoint.exists()


def test_non_finite_gradient_aborts_and_the_last_checkpoint_resumes(tmp_path, monkeypatch):
    """An inf injected into a gradient at step 5 aborts the run with NanAbort
    before the optimizer changes anything: parameters and moments are as
    after step 4, whose checkpoint resumes to the clean run's final bytes."""
    cfg = tiny_config(steps=6)
    clean = train(cfg, tmp_path / "clean")
    seen = {}

    class PoisonedAdam(train_mod.Adam):
        def step(self):
            if self.t == 4:
                p = next(p for p in self.params if p.grad is not None)
                p.grad = p.grad.copy()
                p.grad.flat[0] = np.inf
                seen["opt"] = self
                seen["before"] = [a.copy() for a in
                                  [p.data for p in self.params] + self.m + self.v]
            super().step()

    monkeypatch.setattr(train_mod, "Adam", PoisonedAdam)
    with pytest.raises(NanAbort, match="non-finite gradient at step 5") as exc:
        train(cfg, tmp_path / "run")
    assert exc.value.step == 5
    assert exc.value.last_checkpoint.name == "checkpoint_000004.stlab"
    opt = seen["opt"]
    assert opt.t == 4
    for now, was in zip([p.data for p in opt.params] + opt.m + opt.v, seen["before"]):
        np.testing.assert_array_equal(now, was)
    monkeypatch.undo()
    resumed = train(cfg, tmp_path / "run", resume_from=exc.value.last_checkpoint)
    assert resumed.final_checkpoint.read_bytes() == clean.final_checkpoint.read_bytes()


def test_train_reports_accuracy_vs_baseline(tmp_path):
    cfg = tiny_config(steps=4)
    res = train(cfg, tmp_path / "run")
    assert 0.0 <= res.final_accuracy <= 1.0
    assert res.copy_baseline == 0.0
