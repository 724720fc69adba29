"""Training loop: metrics stream, determinism, resume, toggles, NaN abort,
the step worker."""

import contextlib
import copy
import dataclasses
import importlib
import json
import multiprocessing
import os
import signal
import time
from collections import Counter

import numpy as np
import pytest

import per_item_reference as reference
import stlab.model as model_mod
import stlab.shrink as shrink_mod
import stlab.train as train_mod
from stlab import scheduler as sched
from stlab.config import (ConfigError, RunConfig, SchedulerConfig, Toggles, TrainingConfig,
                          default_config)
from stlab.data import CorpusConfig
from stlab.losses import task_loss
from stlab.model import ASR_VARIANTS, Model, ModelConfig, load_checkpoint
from stlab.train import (NanAbort, batch_for_step, compute_losses, eval_batch,
                         make_task_weights, token_accuracy, train)


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
    # the copy baseline: the transcription scored as the translation
    base = token_accuracy(b.src_tokens, b.tgt_tokens, b.pad_id)
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


def test_a_checkpoint_header_holds_configs_and_three_adam_buffers(tmp_path):
    """The header records no parameter shapes, which its configs fix, and
    the optimizer's state is opt_t and the flat moments opt_m and opt_v,
    one entry per parameter entry: 71436 for the default config."""
    cfg = default_config(steps=1)
    blob = train(cfg, tmp_path / "run").final_checkpoint.read_bytes()
    start = len(model_mod.CHECKPOINT_MAGIC) + 8
    header = json.loads(blob[start:start + int.from_bytes(blob[start - 8:start], "little")])
    entries = sum(p.data.size for p in train_mod.build_model(cfg).parameters())
    assert entries == 71436
    assert sorted(header) == ["corpus", "extra_buffers", "meta", "model_config"]
    assert header["extra_buffers"] == {"opt_m": [entries], "opt_t": [1], "opt_v": [entries]}


def test_resume_checks_the_recorded_configs(tmp_path):
    """A checkpoint records its model and corpus configs; a resume under
    another corpus raises naming the file, and one from a checkpoint past
    training.steps is a config error naming both steps, each before the run
    directory is made; a resume that only runs longer goes ahead."""
    cfg = tiny_config(steps=4)
    full = train(cfg, tmp_path / "full")
    other = dataclasses.replace(cfg, corpus=dataclasses.replace(cfg.corpus, seed=7))
    with pytest.raises(ValueError, match=str(full.final_checkpoint)):
        train(other, tmp_path / "other", resume_from=full.final_checkpoint)
    shorter = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, steps=2))
    with pytest.raises(ConfigError, match="step 4.*steps = 2"):
        train(shorter, tmp_path / "shorter", resume_from=full.final_checkpoint)
    assert not (tmp_path / "other").exists() and not (tmp_path / "shorter").exists()
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


def _exited(pid):
    """Whether process `pid` has exited; a zombie awaiting its reaper has."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_kill_after_a_checkpoint_keeps_every_row_through_it(tmp_path):
    """The sidecars are flushed before each checkpoint is written: a trainer
    killed right after its step-4 checkpoint has written every row through
    step 4, so an in-place resume from that checkpoint writes the metrics of
    an uninterrupted run. The killed trainer's step worker exits with it."""
    cfg = tiny_config(steps=6)
    full = train(cfg, tmp_path / "full")
    run, pids = tmp_path / "run", tmp_path / "worker_pids"
    pid = os.fork()
    if pid == 0:  # the killed trainer; it never returns into pytest
        try:
            save_checkpoint = train_mod.save_checkpoint

            def killed_after_step_4(path, model, **kw):
                save_checkpoint(path, model, **kw)
                if kw["extra_meta"]["step"] == 4:
                    pids.write_text(" ".join(str(p.pid)
                                             for p in multiprocessing.active_children()))
                    os._exit(0)

            train_mod.save_checkpoint = killed_after_step_4
            train(cfg, run)
        finally:
            os._exit(1)
    assert os.waitpid(pid, 0)[1] == 0
    workers = [int(p) for p in pids.read_text().split()]
    deadline = time.monotonic() + 10
    while not all(map(_exited, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(workers) == 1 and _exited(workers[0])
    assert multiprocessing.active_children() == []
    assert [r["step"] for r in read_metrics(run / "metrics.jsonl")] == [1, 2, 3, 4]
    resumed = train(cfg, run, resume_from=run / "checkpoint_000004.stlab")
    assert resumed.metrics_path.read_bytes() == full.metrics_path.read_bytes()


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
    restored = train_mod._restore_weights("ckpt", {"task_weights": state}, cfg)
    assert restored.warnings == [(4, "probe failed: x")]


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
            probe = task_loss(model.forward_task(batch, "asr", asr_variant=variant,
                                                 use_shrink=shrink), batch)
            assert abs(l_asr - probe.item()) <= 1e-12, (variant, shrink)


def test_shrink_warmup_disable(tmp_path, monkeypatch):
    """A shrink_warmup_fraction of 1 never shrinks: shrink_batch is never
    called and no metrics row holds a length ratio. At 0.5 of 8 steps, the
    first ratio is logged at step 5, the first step that shrinks."""
    shrunk = []
    shrink_batch = shrink_mod.shrink_batch

    def counting_shrink(*args, **kw):
        shrunk.append(kw)
        return shrink_batch(*args, **kw)

    monkeypatch.setattr(shrink_mod, "shrink_batch", counting_shrink)
    off = train(tiny_config(steps=8, shrink_warmup_fraction=1.0), tmp_path / "off")
    assert shrunk == []
    assert [r["length_ratio"] for r in read_metrics(off.metrics_path)] == [None] * 8
    half = train(tiny_config(steps=8, shrink_warmup_fraction=0.5), tmp_path / "half")
    rows = read_metrics(half.metrics_path)
    assert next(r["step"] for r in rows if r["length_ratio"] is not None) == int(0.5 * 8) + 1
    assert shrunk


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
    assert multiprocessing.active_children() == []  # the MT worker stopped too


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
                                  [p.data for p in self.params] + [self.m, self.v]]
            super().step()

    monkeypatch.setattr(train_mod, "Adam", PoisonedAdam)
    with pytest.raises(NanAbort, match="non-finite gradient at step 5") as exc:
        train(cfg, tmp_path / "run")
    assert exc.value.step == 5
    assert exc.value.last_checkpoint.name == "checkpoint_000004.stlab"
    opt = seen["opt"]
    assert opt.t == 4
    for now, was in zip([p.data for p in opt.params] + [opt.m, opt.v], seen["before"]):
        np.testing.assert_array_equal(now, was)
    monkeypatch.undo()
    resumed = train(cfg, tmp_path / "run", resume_from=exc.value.last_checkpoint)
    assert resumed.final_checkpoint.read_bytes() == clean.final_checkpoint.read_bytes()


def test_train_reports_accuracy_vs_baseline(tmp_path):
    cfg = tiny_config(steps=4)
    res = train(cfg, tmp_path / "run")
    assert 0.0 <= res.final_accuracy <= 1.0
    assert res.copy_baseline == 0.0


def test_resume_at_the_final_step_is_a_config_error(tmp_path):
    """A checkpoint at training.steps leaves no step to run: the resume is a
    config error naming the step, raised before the run directory's files
    are touched, in place or in a new directory."""
    cfg = tiny_config(steps=4)
    full = train(cfg, tmp_path / "run")
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    for out in ("run", "fresh"):
        with pytest.raises(ConfigError, match="at step 4"):
            train(cfg, tmp_path / out, resume_from=full.final_checkpoint)
    assert not (tmp_path / "fresh").exists()
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before


# -- the step worker -----------------------------------------------------------


def trainer_grads(monkeypatch, cfg, out_dir, resume_from=None):
    """Train under `cfg`, recording for every step the inputs of
    compute_losses (parameter values, batch, task weights, shrink flag) and
    the gradients the trainer hands to Adam."""
    steps, real = [], train_mod.compute_losses

    def recording(model, batch, config, weights, step, shrink_active, **kw):
        steps.append({"params": [p.data.copy() for p in model.parameters()],
                      "batch": batch, "weights": copy.deepcopy(weights),
                      "step": step, "shrink": shrink_active})
        return real(model, batch, config, weights, step, shrink_active, **kw)

    class RecordingAdam(train_mod.Adam):
        def step(self):
            steps[-1]["grads"] = [None if p.grad is None else p.grad.copy()
                                  for p in self.params]
            super().step()

    with monkeypatch.context() as m:
        m.setattr(train_mod, "compute_losses", recording)
        m.setattr(train_mod, "Adam", RecordingAdam)
        train(cfg, out_dir, resume_from=resume_from)
    return steps


def assert_single_graph_grads(cfg, rec):
    """The recorded gradients equal, bit for bit, those of one backward
    through the whole in-process objective at the same parameters."""
    model = train_mod.build_model(cfg)
    for p, data in zip(model.parameters(), rec["params"]):
        p.data[...] = data
    bundle, _ = compute_losses(model, rec["batch"], cfg, rec["weights"], rec["step"],
                               rec["shrink"])
    assert bundle.scalars()["mt"] is not None
    bundle.total.backward()
    for i, (p, got) in enumerate(zip(model.parameters(), rec["grads"])):
        assert (p.grad is None) == (got is None), i
        if got is not None:
            assert np.array_equal(p.grad, got), (rec["step"], i)


@pytest.mark.parametrize("variant", ASR_VARIANTS)
def test_worker_gradients_equal_the_single_graph_bitwise(tmp_path, monkeypatch, variant):
    """With MT in the worker, the gradients Adam steps on equal those of one
    backward through the whole objective: at step 1, at step 2 (after an
    Adam update the worker must see through the shared parameters), and at
    the first step after a resume. Shrinking is active from step 1."""
    cfg = tiny_config(steps=6, asr_variant=variant, shrink_warmup_fraction=0.0)
    run = trainer_grads(monkeypatch, cfg, tmp_path / "run")
    resumed = trainer_grads(monkeypatch, cfg, tmp_path / "resumed",
                            resume_from=tmp_path / "run" / "checkpoint_000004.stlab")
    assert [r["step"] for r in resumed] == [5, 6]
    for rec in (run[0], run[1], resumed[0]):
        assert_single_graph_grads(cfg, rec)


@pytest.fixture
def workers(monkeypatch):
    """The StepWorkers train() makes, and the number of live child processes
    at the start of each step."""
    made, alive = [], []

    class Recording(train_mod.StepWorker):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    real_batch = train_mod.batch_for_step

    def counting_batch(*args):
        alive.append(len(multiprocessing.active_children()))
        return real_batch(*args)

    monkeypatch.setattr(train_mod, "StepWorker", Recording)
    monkeypatch.setattr(train_mod, "batch_for_step", counting_batch)
    return made, alive


def test_worker_runs_while_mt_is_active_and_stops_with_train(tmp_path, workers):
    """One worker serves the run while MT trains and is gone when train()
    returns; timings.jsonl says how long each step waited on it."""
    made, alive = workers
    train(tiny_config(steps=4), tmp_path / "run")
    assert len(made) == 1 and alive == [1, 1, 1, 1]
    assert multiprocessing.active_children() == []
    waits = [r["worker_wait_s"] for r in read_metrics(tmp_path / "run" / "timings.jsonl")]
    assert len(waits) == 4 and all(w >= 0.0 for w in waits)


def test_one_worker_per_run_and_no_mt_branch_after_mt_is_pruned(tmp_path, monkeypatch,
                                                                 workers):
    """Every train() call forks exactly one worker: with use_mt=False, on a
    run that prunes MT, and on a resume whose checkpoint has MT pruned.
    Once MT is pruned the worker runs no mt_terms (counted in shared memory:
    they run in the worker), and no worker outlives train()."""
    made, alive = workers
    mt_calls = multiprocessing.get_context("fork").Value("i", 0)
    real_mt_terms = train_mod.mt_terms

    def counting_mt_terms(*args):
        with mt_calls.get_lock():
            mt_calls.value += 1
        return real_mt_terms(*args)

    def prune_mt(step, weights, probe):
        weights.pruned.add("mt")
        return weights

    monkeypatch.setattr(train_mod, "mt_terms", counting_mt_terms)
    train(tiny_config(steps=2, use_mt=False), tmp_path / "off")
    assert len(made) == 1 and alive == [1, 1] and mt_calls.value == 0
    waits = [r["worker_wait_s"] for r in read_metrics(tmp_path / "off" / "timings.jsonl")]
    assert len(waits) == 2 and all(w >= 0.0 for w in waits)

    made.clear(), alive.clear()
    monkeypatch.setattr(train_mod.sched, "schedule_step", prune_mt)
    cfg = tiny_config(steps=6)
    train(cfg, tmp_path / "run")  # MT is pruned at step 4
    assert len(made) == 1 and alive == [1] * 6 and mt_calls.value == 4

    made.clear(), alive.clear()
    cfg8 = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, steps=8))
    train(cfg8, tmp_path / "run", resume_from=tmp_path / "run" / "checkpoint_000004.stlab")
    assert len(made) == 1 and alive == [1] * 4 and mt_calls.value == 4
    assert multiprocessing.active_children() == []


def trained_batches(monkeypatch, cfg, out_dir, resume_from=None):
    """{step: the batch compute_losses received} over one train() call."""
    return {r["step"]: r["batch"]
            for r in trainer_grads(monkeypatch, cfg, out_dir, resume_from)}


def test_prefetched_batches_equal_batch_for_step_bitwise(tmp_path, monkeypatch):
    """Every batch the trainer trains on, made a step ahead in the worker,
    equals batch_for_step's in-process batch field by field, bit for bit: at
    the default size, with MT off, and after a resume, where the first
    prefetched step is the checkpoint's step + 1."""
    default, off, tiny8 = default_config(steps=2), tiny_config(use_mt=False), tiny_config()
    runs = [(default, trained_batches(monkeypatch, default, tmp_path / "default")),
            (off, trained_batches(monkeypatch, off, tmp_path / "off"))]
    trained_batches(monkeypatch, tiny8, tmp_path / "full")
    resumed = trained_batches(monkeypatch, tiny8, tmp_path / "resumed",
                              resume_from=tmp_path / "full" / "checkpoint_000004.stlab")
    assert list(resumed) == [5, 6, 7, 8]
    runs.append((tiny8, resumed))
    for cfg, batches in runs:
        for step, got in batches.items():
            want = batch_for_step(cfg, step, cfg.training.batch_size)
            for f in dataclasses.fields(want):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name == "alignments":
                    assert len(a) == len(b)
                else:
                    a, b = [a], [b]
                for x, y in zip(map(np.asarray, a), map(np.asarray, b)):
                    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), \
                        (step, f.name)


@contextlib.contextmanager
def hang_guard(seconds=60):
    """Fails a test that would hang on a failed worker, after `seconds`."""
    def hung(*_):
        raise TimeoutError("train() hung on the failed worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_error_in_the_worker_surfaces_in_the_trainer(tmp_path, monkeypatch):
    """An exception raised in mt_terms inside the worker is re-raised in the
    trainer with its message, and the worker is gone afterwards."""
    real = train_mod.mt_terms

    def exploding(model, batch, config, step):
        if step == 3:
            raise ValueError("MT branch exploded at step 3")
        return real(model, batch, config, step)

    monkeypatch.setattr(train_mod, "mt_terms", exploding)
    with hang_guard(), pytest.raises(RuntimeError,
                                     match="ValueError: MT branch exploded at step 3"):
        train(tiny_config(steps=4), tmp_path / "run")
    assert multiprocessing.active_children() == []
    assert [r["step"] for r in read_metrics(tmp_path / "run" / "metrics.jsonl")] == [1, 2]


def test_an_error_making_a_batch_surfaces_in_the_trainer(tmp_path, monkeypatch):
    """An exception raised while the worker makes the batch of step 3 is
    re-raised in the trainer at step 3 with its message, and the worker is
    gone afterwards."""
    real = train_mod._make_step_batch

    def exploding(config, step, size):
        if step == 3:
            raise ValueError("the batch of step 3 exploded")
        return real(config, step, size)

    monkeypatch.setattr(train_mod, "_make_step_batch", exploding)
    with hang_guard(), pytest.raises(RuntimeError,
                                     match="ValueError: the batch of step 3 exploded"):
        train(tiny_config(steps=4), tmp_path / "run")
    assert multiprocessing.active_children() == []
    assert [r["step"] for r in read_metrics(tmp_path / "run" / "metrics.jsonl")] == [1, 2]


def test_an_error_in_the_trainer_closes_the_worker_at_once(tmp_path, monkeypatch):
    """An exception in the trainer at a default-size step, with the next
    step's batch (about 120 KB pickled) in flight from the worker, returns
    from train() well within the worker's 5 s join timeout, with no child
    left."""
    real, raised = train_mod.compute_losses, []

    def failing(model, batch, config, weights, step, shrink_active, **kw):
        out = real(model, batch, config, weights, step, shrink_active, **kw)
        if step == 2:
            raised.append(time.perf_counter())
            raise ValueError("the trainer failed at step 2")
        return out

    monkeypatch.setattr(train_mod, "compute_losses", failing)
    with hang_guard(), pytest.raises(ValueError, match="the trainer failed at step 2"):
        train(default_config(steps=4), tmp_path / "run")
    assert time.perf_counter() - raised[0] < 2.0
    assert multiprocessing.active_children() == []
