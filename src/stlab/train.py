"""Multi-task training loop: seeded data, weighted losses, scheduled task
weights, checkpointing, and JSON-lines metrics.

Every random draw derives from (seed, purpose, step), so resuming from a
checkpoint replays the exact remaining trajectory and two identical runs
produce bitwise-identical outputs. Wall-clock goes to a sidecar timings
file so the metrics stream itself stays deterministic.

Every train() call forks one step worker (StepWorker) that runs beside
the trainer. While the trainer runs step s, the worker makes the batch of
step s + 1 and, while MT trains, runs MT's branch of step s (forward,
loss, consistency term, backward). The parameters live in shared memory,
the worker's gradients are added to the trainer's before Adam steps, and
the run's outputs are the bytes a single process writes. The worker
closes when train() returns or raises.
"""

from __future__ import annotations

import json
import mmap
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, scheduler as sched
from .autograd import Tensor
from .config import ConfigError, RunConfig, save_config
from .data import make_batch
# ce_loss and ctc_loss are looked up here by name (perfbench/tracer.py)
from .losses import (CL_WEIGHT, ce_loss, consistency_loss,  # noqa: F401
                     contrastive_loss, ctc_loss, task_loss, total_loss)
from .model import Model, load_checkpoint, save_checkpoint
from .optim import Adam
from .plots import write_csv

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


def _make_step_batch(config: RunConfig, step: int, size: int):
    rng = np.random.default_rng((config.training.seed, _STREAM_BATCH, step))
    return make_batch(config.corpus, rng.integers(0, 2**62, size=size))


def batch_for_step(config: RunConfig, step: int, size: int, worker=None):
    """The batch of `step`: received from `worker`, which made it a step
    ahead, or made here without one. train() calls it once, at the start of
    every step (perfbench/run.py marks steps by it)."""
    return _make_step_batch(config, step, size) if worker is None else worker.batch()


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


def mt_terms(model: Model, batch, config: RunConfig, step: int):
    """The MT branch of a step: MT's forward on the step's noisy source,
    its task loss, and its consistency term (None with the L2G extractors
    off). compute_losses calls it in-process; the trainer's step worker
    calls it in its own process."""
    mt_rng = np.random.default_rng((config.training.seed, _STREAM_NOISE, step))
    mt_out = model.forward_task(batch, "mt", mt_noise_rngs=[mt_rng] * batch.batch_size)
    cons = consistency_loss(mt_out.extractor_outs, mt_out.attention_outs,
                            mt_out.tenc_mask) if config.toggles.use_l2g else None
    return task_loss(mt_out, batch), cons


def compute_losses(model: Model, batch, config: RunConfig, weights: sched.TaskWeights,
                   step: int, shrink_active: bool, mt_branch=None):
    """Forward every active task once and assemble the weighted bundle.

    Speech is encoded once per step. ASR reads the ST pass's outputs: its
    CTC log-probs, and for the `ce` variant the source decoded from its
    T-Enc memory. While active, the ASR loss enters at weight w_asr,
    reported as "asr".

    Shrinking reads the CTC head, so whenever the ASR term holds no CTC
    (ASR pruned, or the `ce` variant) and shrinking is active, the CTC loss
    on the ST pass's log-probs enters at weight 1, reported as "ctc", and
    the segmenter keeps training. Pruning MT removes its forward pass.
    An auxiliary task trains while `weights`, which holds exactly the
    tasks the config trains, holds it unpruned.

    MT's loss and consistency term come from mt_terms, or from
    `mt_branch()` when another process runs the MT branch: it returns the
    two terms as constants, so the total's value is the same and its
    backward covers the rest of the step.
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
    if weights.active("asr"):
        asr_out = model.asr_outputs(st_out, batch, tg.asr_variant)
        terms["asr"] = task_loss(asr_out, batch)
    if tg.use_asr and shrink_active and (asr_out is None or asr_out.ctc_log_probs is None):
        terms["ctc"] = task_loss(model.asr_outputs(st_out, batch, "ctc"), batch)

    if tg.use_cl and batch.batch_size >= 2:
        src_mask = batch.src_tokens != batch.pad_id
        clean_text = model.embed_src(batch.src_tokens)
        terms["cl"] = contrastive_loss(st_out.tenc_input, st_out.tenc_mask,
                                       clean_text, src_mask)

    # last, so a worker running the MT branch has the most time to finish
    if weights.active("mt"):
        terms["mt"], mt_cons = (mt_terms(model, batch, config, step) if mt_branch is None
                                else mt_branch())
        if mt_cons is not None:
            cons_terms.append(mt_cons)

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
    it: ASR under the configured variant, MT under the input noise the
    model carries, drawn for each instance from its own stream. The probe returns
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
            "mt": {"mt_noise_rngs": [np.random.default_rng((seed, _STREAM_PROBE, step, j, 1))
                                     for j in range(k)]}}
        return {task: analysis.capture_instance_gradients(model, batch, task,
                                                          **forward_kw[task])
                for task in ["st"] + weights.active_tasks()}

    return probe


def _weights_state(weights: sched.TaskWeights):
    return {
        "weights": weights.weights,
        "pruned": sorted(weights.pruned),
        "history": weights.history,
        "warnings": weights.warnings,
    }


def _restore_weights(path, meta, config: RunConfig) -> sched.TaskWeights:
    """The task weights checkpoint `path` records, for a run under `config`.
    Raises ValueError when it records none, and ConfigError when they name
    other tasks than `config` trains."""
    tw = make_task_weights(config)
    if "task_weights" not in meta:
        raise ValueError(f"checkpoint {path} cannot resume a run: it holds no task_weights")
    state = meta["task_weights"]
    if set(state["weights"]) != set(tw.weights):
        raise ConfigError(f"checkpoint {path} trains the auxiliary tasks "
                          f"{sorted(state['weights'])}, the config {sorted(tw.weights)}")
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


def _shared_views(params):
    """One anonymous shared mapping laid out as `params`: a zeroed view
    shaped as each tensor's data, in order. A forked process sees writes
    to the mapping from either side."""
    offsets = np.cumsum([0] + [p.data.size for p in params]).tolist()
    flat = np.frombuffer(mmap.mmap(-1, 8 * offsets[-1]), dtype=np.float64)
    return [flat[lo:hi].reshape(p.data.shape)
            for p, lo, hi in zip(params, offsets, offsets[1:])]


def _step_worker_loop(model: Model, config: RunConfig, conn, parent_end, grads, step):
    """The step worker's body. It makes and sends the batch of step + 1,
    then per message (step, w_mt): with w_mt set, it sends MT's two loss
    values, backpropagates MT's share of the total, writes the gradients to
    `grads` and sends the indices of the parameters that got one; then,
    before the last step, it makes and sends the next step's batch. An
    exception is sent back as its message; EOF, or a send to a closed
    trainer, ends the loop."""
    parent_end.close()  # so the trainer's exit reads as EOF here
    params, tr = model.parameters(), config.training
    batch, w_mt = None, None
    try:
        while True:
            try:
                if w_mt is not None:
                    mt, cons = mt_terms(model, batch, config, step)
                    conn.send(("losses", (mt.item(), None if cons is None else cons.item())))
                    # the total holds w_mt * mt, and cons in the mean of the ST
                    # and MT consistency terms (there are two whenever MT has one)
                    loss = mt * w_mt if cons is None else mt * w_mt + cons / 2
                    loss.backward()
                    got = [i for i, p in enumerate(params) if p.grad is not None]
                    for i in got:
                        grads[i][...] = params[i].grad
                    conn.send(("done", got))
                if step < tr.steps:
                    batch = _make_step_batch(config, step + 1, tr.batch_size)
                    conn.send(("batch", batch))
            except Exception as exc:  # the trainer re-raises it
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            finally:
                model.zero_grad()
            step, w_mt = conn.recv()
    except (EOFError, OSError):  # the trainer closed its end
        return


class StepWorker:
    """One forked process, on the second CPU, that makes each step's batch
    a step ahead and, while MT trains, runs each step's MT branch while the
    trainer runs the rest of the step.

    The model's parameters move into one anonymous shared mapping, so
    Adam's in-place updates reach the worker without a copy; a second
    mapping carries the worker's MT gradients back. Per step, `batch`
    returns the batch the worker made, `submit` starts the worker on the
    step (w_mt None while MT is pruned or off), `terms` returns MT's loss
    and consistency term as constants for compute_losses, and `add_grads`
    adds the worker's gradients to the trainer's. A single-graph backward
    also adds MT's contribution to a shared parameter last (MT's term
    follows ST's and ASR's in the total), so every sum is the single-graph
    one bit for bit. `wait_s` is the time the trainer blocked on the worker
    since the last `batch`."""

    def __init__(self, model: Model, config: RunConfig, start_step: int):
        self.params = model.parameters()
        for p, view in zip(self.params, _shared_views(self.params)):
            view[...] = p.data
            p.data = view
        self.grads = _shared_views(self.params)
        # imported here: the import is about 3% of a fresh process's set-up
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_step_worker_loop, daemon=True,
                                args=(model, config, child_end, self.conn, self.grads,
                                      start_step))
        self.proc.start()
        child_end.close()  # so the worker's exit reads as EOF here
        self.wait_s = 0.0

    def batch(self):
        self.wait_s = 0.0
        return self._recv()

    def submit(self, step: int, w_mt):
        self.conn.send((step, w_mt))

    def _recv(self):
        t0 = time.perf_counter()
        try:
            kind, value = self.conn.recv()
        except EOFError:
            raise RuntimeError("the step worker exited") from None
        finally:
            self.wait_s += time.perf_counter() - t0
        if kind == "error":
            raise RuntimeError(f"step worker: {value}")
        return value

    def terms(self):
        mt, cons = self._recv()
        return Tensor(mt), None if cons is None else Tensor(cons)

    def add_grads(self):
        for i in self._recv():
            p, g = self.params[i], self.grads[i]
            p.grad = g.copy() if p.grad is None else p.grad + g

    def close(self):
        self.conn.close()  # the worker reads EOF, or fails to send a batch
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()


def train(config: RunConfig, out_dir, resume_from=None) -> TrainResult:
    tr = config.training
    if resume_from is None:
        if held := sorted(Path(out_dir).glob("checkpoint_*.stlab")):
            raise ConfigError(f"{out_dir} holds another run's checkpoints ({held[-1].name}): "
                              f"train into a fresh directory, or resume from one of them")
        model, meta = build_model(config), {}
    else:
        model, meta, extra = load_checkpoint(resume_from)
        if (model.config, model.corpus) != (config.model, config.corpus):
            raise ValueError(f"checkpoint {resume_from} records another model or corpus "
                             f"config: {model.config}, {model.corpus}")
        model.apply_toggles(config.toggles)  # the run's, which may differ from the checkpoint's
        if "step" not in meta:
            raise ValueError(f"checkpoint {resume_from} cannot resume a run: it holds no step")
        if meta["step"] >= tr.steps:
            raise ConfigError(f"checkpoint {resume_from} is at step {meta['step']}, "
                              f"so training.steps = {tr.steps} leaves no step to run")
    opt = Adam(model.parameters(), lr=tr.learning_rate, beta1=tr.beta1, beta2=tr.beta2,
               warmup_steps=max(1, int(tr.warmup_fraction * tr.steps)))
    weights = make_task_weights(config)
    start_step = meta.get("step", 0)
    if resume_from is not None:
        try:
            opt.load_state_buffers(extra)
        except ValueError as exc:  # e.g. a checkpoint written before opt_m and opt_v
            raise ValueError(f"checkpoint {resume_from} cannot resume the optimizer: "
                             f"{exc}") from None
        weights = _restore_weights(resume_from, meta, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, out_dir / "config.json")

    # the JSON-lines sidecars; an in-place resume rewrites the rows past its step
    files = {}
    for name in ("metrics", "timings", "events"):
        path = out_dir / f"{name}.jsonl"
        if start_step > 0:
            _keep_rows_through(path, start_step)
        files[name] = open(path, "a" if start_step > 0 else "w")
    n_events = len(weights.warnings)  # the scheduler's warnings written so far

    ev_batch = eval_batch(config)
    # the decoder that just copies the transcription (equal lengths, one mask)
    baseline = token_accuracy(ev_batch.src_tokens, ev_batch.tgt_tokens, ev_batch.pad_id)
    # carried-forward log fields live in the checkpoint so a resumed run
    # replays the metrics stream bitwise
    last_accuracy, last_ratio = meta.get("last_accuracy"), meta.get("last_ratio")
    last_checkpoint = resume_from
    shrink_start = int(config.toggles.shrink_warmup_fraction * tr.steps)

    worker = None
    try:
        worker = StepWorker(model, config, start_step)
        for step in range(start_step + 1, tr.steps + 1):
            t0 = time.perf_counter()
            shrink_active = step > shrink_start  # never with a fraction >= 1
            batch = batch_for_step(config, step, tr.batch_size, worker)
            # the test by which compute_losses runs MT's branch
            w_mt = weights.weights["mt"] if weights.active("mt") else None
            worker.submit(step, w_mt)
            bundle, st_out = compute_losses(model, batch, config, weights, step,
                                            shrink_active, mt_branch=worker.terms)
            if not np.isfinite(bundle.total.data):
                raise NanAbort(step, last_checkpoint)
            bundle.total.backward()
            if w_mt is not None:
                worker.add_grads()
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
                    files["events"].write(json.dumps({"step": ev_step, "event": event}) + "\n")
                files["events"].flush()
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
                files["metrics"].write(json.dumps(row, sort_keys=True) + "\n")
                files["timings"].write(json.dumps(
                    {"step": step, "wall_clock_s": time.perf_counter() - t0,
                     "worker_wait_s": worker.wait_s}) + "\n")

            if step % tr.checkpoint_every == 0 or step == tr.steps:
                # every row through this step is written before the checkpoint
                # exists, so a resume from it after a kill replays whole sidecars
                for fh in files.values():
                    fh.flush()
                path = out_dir / f"checkpoint_{step:06d}.stlab"
                save_checkpoint(path, model, extra_buffers=opt.state_buffers(), extra_meta={
                    "step": step, "task_weights": _weights_state(weights),
                    "last_accuracy": last_accuracy, "last_ratio": last_ratio})
                last_checkpoint = path
    finally:
        if worker is not None:
            worker.close()
        for fh in files.values():
            fh.close()

    history_path = write_csv(out_dir / "weight_history.csv", sched.HistoryRow._fields,
                             weights.history)
    return TrainResult(out_dir, tr.steps - start_step, last_checkpoint,
                       out_dir / "metrics.jsonl", history_path, last_accuracy, baseline)
