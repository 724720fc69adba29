"""Multi-task training loop: seeded data, weighted losses, scheduled task
weights, checkpointing, and JSON-lines metrics.

Every random draw derives from (seed, purpose, step), so resuming from a
checkpoint replays the exact remaining trajectory and two identical runs
produce bitwise-identical outputs. Wall-clock goes to a sidecar timings
file so the metrics stream itself stays deterministic.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, scheduler as sched
from .config import RunConfig, save_config
from .data import make_batch
# ce_loss and ctc_loss are looked up here by name (perfbench/tracer.py)
from .losses import (CL_WEIGHT, ce_loss, consistency_loss,  # noqa: F401
                     contrastive_loss, ctc_loss, task_loss, total_loss)
from .model import Model, load_checkpoint, save_checkpoint
from .optim import Adam

# rng stream tags; all draws are (seed, tag, step[, index])
_STREAM_BATCH = 1
_STREAM_NOISE = 2
_STREAM_PROBE = 3
_STREAM_EVAL = 4


class NanAbort(RuntimeError):
    """A non-finite loss, or gradient, at `step`; the step changed no state."""

    def __init__(self, step, last_checkpoint, what="loss"):
        super().__init__(
            f"non-finite {what} at step {step}; last good checkpoint: {last_checkpoint}")
        self.step = step
        self.last_checkpoint = last_checkpoint


@dataclass
class TrainResult:
    out_dir: Path
    steps_run: int
    final_checkpoint: Path
    metrics_path: Path
    weight_history_path: Path
    final_accuracy: float
    copy_baseline: float


def build_model(config: RunConfig) -> Model:
    return Model(config.model, config.corpus).apply_toggles(config.toggles)


def batch_for_step(config: RunConfig, step: int, size: int):
    rng = np.random.default_rng((config.training.seed, _STREAM_BATCH, step))
    seeds = rng.integers(0, 2**62, size=size)
    return make_batch(config.corpus, seeds)


def eval_batch(config: RunConfig):
    rng = np.random.default_rng((config.training.seed, _STREAM_EVAL))
    seeds = rng.integers(0, 2**62, size=config.training.eval_batch_size)
    return make_batch(config.corpus, seeds)


def token_accuracy(pred, target, pad_id) -> float:
    mask = target != pad_id
    return float((pred[mask] == target[mask]).mean())


def greedy_st_accuracy(model, batch, use_shrink) -> float:
    pred = model.greedy_decode(batch, use_shrink=use_shrink)
    return token_accuracy(pred, batch.tgt_tokens, batch.pad_id)


def compute_losses(model: Model, batch, config: RunConfig, weights: sched.TaskWeights,
                   step: int, shrink_active: bool):
    """Forward every active task once and assemble the weighted bundle.

    Speech is encoded once per step. ASR reads the ST pass's outputs: its
    CTC log-probs, and for the `ce` variant the source decoded from its
    T-Enc memory. While active, the ASR loss enters at weight w_asr,
    reported as "asr".

    Shrinking reads the CTC head, so whenever the ASR term holds no CTC
    (ASR pruned, or the `ce` variant) and shrinking is active, the CTC loss
    on the ST pass's log-probs enters at weight 1, reported as "ctc", and
    the segmenter keeps training. Pruning MT removes its forward pass.
    """
    tg = config.toggles
    # every term the objective can hold, in the order total_loss sums them
    terms = dict.fromkeys(("st", "asr", "mt", "cl", "consistency", "ctc"))
    st_out = model.forward_task(batch, "st", use_shrink=shrink_active)
    terms["st"] = task_loss(st_out, batch)

    cons_terms = []
    if tg.use_l2g:
        cons_terms.append(consistency_loss(
            st_out.extractor_outs, st_out.attention_outs, st_out.tenc_mask))

    asr_out = None
    if tg.use_asr and weights.active("asr"):
        asr_out = model.asr_outputs(st_out, batch, tg.asr_variant)
        terms["asr"] = task_loss(asr_out, batch)
    if tg.use_asr and shrink_active and (asr_out is None or asr_out.ctc_log_probs is None):
        terms["ctc"] = task_loss(model.asr_outputs(st_out, batch, "ctc"), batch)

    if tg.use_mt and weights.active("mt"):
        mt_rng = np.random.default_rng((config.training.seed, _STREAM_NOISE, step))
        mt_out = model.forward_task(batch, "mt", mt_noise_rngs=[mt_rng] * batch.batch_size,
                                    mt_noise_p=tg.mt_noise())
        terms["mt"] = task_loss(mt_out, batch)
        if tg.use_l2g:
            cons_terms.append(consistency_loss(
                mt_out.extractor_outs, mt_out.attention_outs, mt_out.tenc_mask))

    if tg.use_cl and batch.batch_size >= 2:
        src_mask = batch.src_tokens != batch.pad_id
        clean_text = model.embed_src(batch.src_tokens, batch.pad_id)
        terms["cl"] = contrastive_loss(st_out.tenc_input, st_out.tenc_mask,
                                       clean_text, src_mask)

    if cons_terms:
        terms["consistency"] = sum(cons_terms[1:], cons_terms[0]) / len(cons_terms)

    bundle = total_loss(terms, {"asr": weights.weights.get("asr", 0.0),
                                "mt": weights.weights.get("mt", 0.0), "cl": CL_WEIGHT})
    return bundle, st_out


def make_probe_fn(model: Model, config: RunConfig, weights: sched.TaskWeights,
                  step: int, shrink_active: bool):
    """Per-instance ATTEN gradient capture for the impact scheduler. The k
    probe instances form one batch, and each task is captured with one
    forward and one backward over it (analysis.capture_instance_gradients,
    per-example ATTEN parameters). Each task is probed as the run trains
    it: ASR under the configured variant, MT under the run's input noise,
    drawn for each instance from its own stream. The probe returns
    {task: {partition: [k, n]}} for ST and every active task, with row j
    holding instance j's ATTEN gradients."""
    tg, seed, k = config.toggles, config.training.seed, config.scheduler.k

    def probe():
        seeds = np.concatenate([np.random.default_rng((seed, _STREAM_PROBE, step, j))
                                .integers(0, 2**62, size=1) for j in range(k)])
        batch = make_batch(config.corpus, seeds)
        forward_kw = {
            "st": {"use_shrink": shrink_active},
            "asr": {"asr_variant": tg.asr_variant, "use_shrink": shrink_active},
            "mt": {"mt_noise_p": tg.mt_noise(),
                   "mt_noise_rngs": [np.random.default_rng((seed, _STREAM_PROBE, step, j, 1))
                                     for j in range(k)]}}
        return {task: analysis.capture_instance_gradients(model, batch, task,
                                                          **forward_kw[task])
                for task in ["st"] + weights.active_tasks()}

    return probe


def _write_weight_history(weights: sched.TaskWeights, path):
    with open(path, "w") as fh:
        fh.write("step,task,m,w\n")
        for step, task, m, w in weights.as_rows():
            fh.write(f"{step},{task},{m:.17g},{w:.17g}\n")


def _weights_state(weights: sched.TaskWeights):
    return {
        "weights": weights.weights,
        "pruned": sorted(weights.pruned),
        "history": weights.as_rows(),
        "warnings": weights.warnings,
    }


def _restore_weights(state, config: RunConfig) -> sched.TaskWeights:
    tw = make_task_weights(config)
    tw.weights = dict(state["weights"])
    tw.pruned = set(state["pruned"])
    tw.history = [sched.HistoryRow(*row) for row in state["history"]]
    tw.warnings = [tuple(w) for w in state["warnings"]]
    return tw


def _keep_rows_through(path: Path, step: int):
    """Drop the JSON-lines rows of `path` past `step`, and a torn last line."""
    if path.exists():
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines
                                if ln.endswith("\n") and json.loads(ln)["step"] <= step))


def make_task_weights(config: RunConfig) -> sched.TaskWeights:
    on = {"asr": config.toggles.use_asr, "mt": config.toggles.use_mt}
    return sched.TaskWeights(config.scheduler, {t: 1.0 for t, use in on.items() if use})


def train(config: RunConfig, out_dir, resume_from=None) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, out_dir / "config.json")

    tr = config.training
    metrics_path = out_dir / "metrics.jsonl"
    timings_path = out_dir / "timings.jsonl"
    events_path = out_dir / "events.jsonl"
    history_path = out_dir / "weight_history.csv"

    model = build_model(config)
    warmup = max(1, int(tr.warmup_fraction * tr.steps))
    opt = Adam(model.parameters(), lr=tr.learning_rate, beta1=tr.beta1,
               beta2=tr.beta2, warmup_steps=warmup)
    weights = make_task_weights(config)
    start_step = 0

    resumed_meta = None
    if resume_from is not None:
        ckpt_model, meta, extra = load_checkpoint(resume_from)
        if (ckpt_model.config, ckpt_model.corpus) != (config.model, config.corpus):
            raise ValueError(f"checkpoint {resume_from} records another model or corpus "
                             f"config: {ckpt_model.config}, {ckpt_model.corpus}")
        model.load_state_buffers(ckpt_model.state_buffers())
        opt.load_state_buffers(extra)
        weights = _restore_weights(meta["task_weights"], config)
        start_step = meta["step"]
        resumed_meta = meta

    mode = "a" if start_step > 0 else "w"
    if start_step > 0:  # an in-place resume rewrites the rows past its step
        _keep_rows_through(metrics_path, start_step)
        _keep_rows_through(timings_path, start_step)
        _keep_rows_through(events_path, start_step)
    metrics_fh = open(metrics_path, mode)
    timings_fh = open(timings_path, mode)
    events_fh = open(events_path, mode)
    n_events = len(weights.warnings)  # the scheduler's warnings written so far

    ev_batch = eval_batch(config)
    # the decoder that just copies the transcription (equal lengths, one mask)
    baseline = token_accuracy(ev_batch.src_tokens, ev_batch.tgt_tokens, ev_batch.pad_id)
    # carried-forward log fields live in the checkpoint so a resumed run
    # replays the metrics stream bitwise
    last_accuracy = resumed_meta["last_accuracy"] if resumed_meta else None
    last_ratio = resumed_meta["last_ratio"] if resumed_meta else None
    last_checkpoint = None
    shrink_start = int(config.toggles.shrink_warmup_fraction * tr.steps)

    def write_checkpoint(step):
        nonlocal last_checkpoint
        path = out_dir / f"checkpoint_{step:06d}.stlab"
        meta = {"step": step, "task_weights": _weights_state(weights),
                "last_accuracy": last_accuracy, "last_ratio": last_ratio}
        save_checkpoint(path, model, extra_meta=meta, extra_buffers=opt.state_buffers())
        last_checkpoint = path
        return path

    try:
        for step in range(start_step + 1, tr.steps + 1):
            t0 = time.perf_counter()
            shrink_active = (config.toggles.shrink_warmup_fraction < 1.0
                             and step > shrink_start)
            batch = batch_for_step(config, step, tr.batch_size)
            model.zero_grad()
            bundle, st_out = compute_losses(model, batch, config, weights,
                                            step, shrink_active)
            if not np.isfinite(bundle.total.data):
                raise NanAbort(step, last_checkpoint)
            bundle.total.backward()
            try:
                opt.step()
            except FloatingPointError as exc:
                raise NanAbort(step, last_checkpoint, "gradient") from exc
            model.zero_grad()

            if shrink_active:
                last_ratio = st_out.length_ratio

            if weights.active_tasks() and step % config.scheduler.update_every == 0:
                sched.schedule_step(step, weights,
                                    make_probe_fn(model, config, weights,
                                                  step, shrink_active))
                for ev_step, event in weights.warnings[n_events:]:
                    events_fh.write(json.dumps({"step": ev_step, "event": event}) + "\n")
                events_fh.flush()
                n_events = len(weights.warnings)

            if step % tr.eval_every == 0 or step == tr.steps:
                last_accuracy = greedy_st_accuracy(model, ev_batch, shrink_active)

            if step % tr.log_every == 0 or step == tr.steps:
                row = {"step": step, "losses": bundle.scalars(),
                       "task_weights": {t: weights.weights.get(t) for t in
                                        sorted(weights.weights)},
                       "pruned": sorted(weights.pruned),
                       "length_ratio": last_ratio,
                       "st_greedy_accuracy": last_accuracy}
                metrics_fh.write(json.dumps(row, sort_keys=True) + "\n")
                timings_fh.write(json.dumps(
                    {"step": step, "wall_clock_s": time.perf_counter() - t0}) + "\n")

            if step % tr.checkpoint_every == 0 or step == tr.steps:
                write_checkpoint(step)
    finally:
        for fh in (metrics_fh, timings_fh, events_fh):
            fh.close()

    _write_weight_history(weights, history_path)
    return TrainResult(out_dir, tr.steps - start_step, last_checkpoint,
                       metrics_path, history_path,
                       last_accuracy if last_accuracy is not None else float("nan"),
                       baseline)
