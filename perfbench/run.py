"""stlab benchmark: closed-loop training and impact-probe workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; stlab is imported from ``src/`` next to this
directory. Everything runs in this one process on one BLAS thread, except
the set-up timing, which starts a few fresh interpreters one after another.

Workloads (each operation starts only after the previous one finished; the
seed picks the order in which a run goes through the config seeds that
``reference.json`` covers, see ``config_seeds``):

- ``train-multitask``: ``stlab.train.train`` on ``default_config()`` with
  ``training.steps = TRAIN_STEPS``: ST, ASR-CTC, MT, contrastive and
  consistency losses at batch 32. The only workload that runs the acoustic
  encoder twice per step and makes 32 per-item ``ctc_loss`` calls.
- ``train-st-only``: the same with ASR and MT switched off, the regime after
  both auxiliary tasks are pruned: one acoustic-encoder pass and no CTC, so
  shrinking and data take their largest shares.
- ``impact-probe``: one ``scheduler.schedule_step`` per operation on the
  untrained model: 16 batch-1 instances x {ST, ASR, MT}. Per-node overhead
  dominates at batch 1, so a change that only pays off on large batches
  shows up here as a regression.

For the training workloads an operation is one training step; the benchmark
repeats whole ``train()`` calls until the time is up. Step boundaries are
observed through ``train.batch_for_step``, which the trainer calls once at
the start of every step.

The bounded timing metrics are normalised to a nominal machine speed. The
shared machine the benchmark runs on changes speed by 1.6x and more, over
seconds and over tens of minutes, so raw times of the same code spread past
any useful bound. Before every operation (each training step, each probe) the benchmark
times a fixed piece of pure-numpy work, ``speed_probe_ms``, and scales the
operation's time by ``SPEED_NOMINAL_MS`` over the mean of the probes just
before and just after it. The calibration time itself is left out of every
figure. Raw times are printed too, without a bound.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries per-layer self times and counts from spans recorded
around stlab's public functions (see ``tracer.py``), and the raw spans are
written to ``.perfbench/``. Every operation's output is checked against
``reference.json``; an operation that fails a check counts as failed.
"""

from __future__ import annotations

import os

# one BLAS thread; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("train-multitask", "train-st-only", "impact-probe")
MODULES = ("autograd", "data", "losses", "model", "optim", "shrink",
           "scheduler", "analysis", "train", "config")
TRAIN_STEPS = 40        # steps per train() call; below eval_every and update_every
PROBE_POINTS = 16       # distinct probe steps 500*i, i = 1..PROBE_POINTS, cycled
PROBE_STRIDE = 500      # the default scheduler.update_every
SETUP_REPEATS = 5
# a typical speed_probe_ms reading on the machine the benchmark was tuned on
# (2 vCPUs of an Intel Xeon, numpy on OpenBLAS, one thread): 6 to 12 ms,
# more where the process holds less memory and its arrays are mapped afresh.
# It only sets the scale of the normalised times.
SPEED_NOMINAL_MS = 8.0

END_TO_END = {"setup_s": "s", "norm_step_ms_p50": "ms", "norm_step_ms_p90": "ms",
              "norm_samples_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed, but left out of the result line: raw times move with the
# machine's speed (see the module docstring), so they carry no bound.
PRINTED_ONLY = {"step_ms_p50": "ms", "step_ms_p90": "ms", "samples_per_s": "1/s",
                "speed_probe_ms": "ms"}
SPAN_LAYERS = ("model.a_enc_forward", "model.t_enc_forward", "model.decoder_forward",
               "losses.ctc_loss", "losses.ce_loss", "shrink.shrink_batch",
               "autograd.backward", "data.make_batch", "optim.adam_step",
               "scheduler.schedule_step", "scheduler.task_impact",
               "analysis.capture_gradients", "train.compute_losses",
               "train.eval", "train.checkpoint")
CALL_LAYERS = ("model.a_enc_forward", "losses.ctc_loss", "data.make_batch",
               "analysis.capture_gradients")


def import_stlab():
    """The stlab modules of this checkout, by short name. Exits without a
    result when ``src/stlab`` is not in the checkout."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        stlab = importlib.import_module("stlab")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import stlab from {src}: {exc}")
    if Path(stlab.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported stlab from {stlab.__file__}, not from {src}")
    # `from stlab import train` would give the train() function, which
    # shadows the module in the package namespace
    return {name: importlib.import_module(f"stlab.{name}") for name in MODULES}


def workload_config(mods, workload: str, seed: int):
    cfg = mods["config"].with_seed(
        mods["config"].default_config(steps=TRAIN_STEPS), seed)
    if workload == "train-st-only":
        cfg = dataclasses.replace(cfg, toggles=dataclasses.replace(
            cfg.toggles, use_asr=False, use_mt=False))
    return cfg


# -- provenance --------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "commit": git_commit(), "seed": seed}


# -- set-up ------------------------------------------------------------------


def set_up_once(workload: str, seed: int) -> None:
    """What a fresh process does before its first step or probe: import
    stlab, build the config, the initial model, the task weights and the
    eval batch. Prints the wall-clock time at which it is done, then the
    machine's speed (the second reading, once numpy has warmed up)."""
    mods = import_stlab()
    cfg = workload_config(mods, workload, seed)
    mods["train"].build_model(cfg)
    mods["train"].make_task_weights(cfg)
    mods["train"].eval_batch(cfg)
    done = time.time()
    speed_probe_ms()
    print(repr(done), repr(speed_probe_ms()))


def measure_setup(workload: str, seed: int) -> float:
    """Median normalised time from starting a fresh interpreter to the end
    of its set_up_once, over SETUP_REPEATS interpreters; the speed is the
    mean of a reading just before the start and the child's reading. The
    child reports when it is done, because waiting with a timeout polls in
    steps of up to 50 ms."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed_probe_ms()
        t0 = time.time()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        done, after = map(float, proc.stdout.split())
        times.append(normalised(done - t0, (before + after) / 2))
    return statistics.median(times)


# -- machine speed -------------------------------------------------------------

_SPEED_RNG = np.random.default_rng(0)
# a batch of 32 sequences of 96 frames at width 64, the model's sizes
_SPEED_X = _SPEED_RNG.standard_normal((32, 96, 64))
_SPEED_W = 0.1 * _SPEED_RNG.standard_normal((64, 64))


def speed_probe_ms() -> float:
    """Milliseconds a fixed piece of work takes now: a matmul, a tanh and
    elementwise ops on fresh 1.5 MB arrays, the kind of work stlab's layers
    do. Its arrays outgrow the per-core caches on purpose: the speed of
    stlab's steps follows that of memory-bound work much more closely than
    that of work that fits in cache. It uses no stlab code, so a change to
    stlab cannot move it."""
    x = _SPEED_X
    t0 = time.perf_counter()
    for _ in range(3):
        h = np.tanh(x @ _SPEED_W)
        x = _SPEED_X + 1e-6 * (1.0 - h * h) * x
    return 1000.0 * (time.perf_counter() - t0)


def normalised(seconds: float, speed_ms: float) -> float:
    """`seconds` as they would read where speed_probe_ms is SPEED_NOMINAL_MS."""
    return seconds * SPEED_NOMINAL_MS / speed_ms


# -- operations ----------------------------------------------------------------


class Failure(Exception):
    """An operation's output did not pass its check."""


def near(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


class StepClock:
    """At each call of ``train.batch_for_step`` (one per step) measures the
    machine's speed, then marks the start of the step."""

    def __init__(self, patches, train_mod):
        self.cuts = []   # (speed probe start, step start, speed ms)

        def make(original):
            def batch_for_step(*args, **kwargs):
                t0 = time.perf_counter()
                speed = speed_probe_ms()
                self.cuts.append((t0, time.perf_counter(), speed))
                return original(*args, **kwargs)
            return batch_for_step
        patches.replace(train_mod, "batch_for_step", make)


@dataclasses.dataclass
class TrainTimes:
    wall_s: float        # the train() call, without the speed probes
    norm_wall_s: float   # the same, normalised piece by piece
    steps: list          # (step s, normalised step s), from one step start to the next


def train_times(t0: float, t1: float, cuts) -> TrainTimes:
    """Cut the call [t0, t1] at the speed probes. A piece between two probes
    is normalised by their mean, the piece before the first probe and the
    one after the last (the last step, eval and checkpoint) by that probe."""
    if not cuts:
        return TrainTimes(t1 - t0, t1 - t0, [])
    pieces = [(cuts[0][0] - t0, cuts[0][2])]
    steps = []
    for (_, start, before), (end, _, after) in zip(cuts, cuts[1:]):
        step = end - start
        steps.append((step, normalised(step, (before + after) / 2)))
        pieces.append((step, (before + after) / 2))
    pieces.append((t1 - cuts[-1][1], cuts[-1][2]))
    return TrainTimes(sum(s for s, _ in pieces),
                      sum(normalised(s, speed) for s, speed in pieces), steps)


def train_op(mods, cfg, clock: StepClock):
    """One train() call. Returns (TrainTimes, final log row)."""
    out_dir = WORK / f"train-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    clock.cuts.clear()
    try:
        t0 = time.perf_counter()
        mods["train"].train(cfg, out_dir)
        t1 = time.perf_counter()
        with open(out_dir / "metrics.jsonl") as fh:
            last = json.loads(fh.readlines()[-1])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return train_times(t0, t1, clock.cuts), last


def train_outcome(row) -> dict:
    return {"losses": row["losses"], "st_greedy_accuracy": row["st_greedy_accuracy"]}


def check_train(outcome, ref, tol) -> None:
    losses = outcome["losses"]
    for name, value in losses.items():
        if value is not None and not math.isfinite(value):
            raise Failure(f"non-finite {name} loss {value}")
    for name, want in ref["losses"].items():
        got = losses.get(name)
        if (got is None) != (want is None) or (
                want is not None and not near(got, want, rtol=tol["loss_rtol"])):
            raise Failure(f"final {name} loss {got} != reference {want}")
    got, want = outcome["st_greedy_accuracy"], ref["st_greedy_accuracy"]
    if not near(got, want, atol=tol["accuracy_atol"]):
        raise Failure(f"eval accuracy {got} != reference {want}")


def probe_op(mods, cfg, model, i: int):
    """One scheduler step at step 500*i with fresh task weights.
    Returns (wall s, {task: impact})."""
    train_mod, step = mods["train"], PROBE_STRIDE * i
    weights = train_mod.make_task_weights(cfg)
    t0 = time.perf_counter()
    mods["scheduler"].schedule_step(
        step, weights, train_mod.make_probe_fn(model, cfg, weights, step, True))
    wall = time.perf_counter() - t0
    if weights.warnings:
        raise Failure(f"probe at step {step}: {weights.warnings}")
    return wall, {row.task: row.m for row in weights.history}


def check_probe(impacts, ref, tol) -> None:
    for task, m in impacts.items():
        if not math.isfinite(m) or m < 0:
            raise Failure(f"{task} impact {m}")
    if sorted(impacts) != sorted(ref):
        raise Failure(f"impact tasks {sorted(impacts)} != reference {sorted(ref)}")
    for task, want in ref.items():
        if not near(impacts[task], want, rtol=tol["impact_rtol"]):
            raise Failure(f"{task} impact {impacts[task]} != reference {want}")


def load_reference():
    """({config seed: per-workload reference}, tolerances)."""
    with open(HERE / "reference.json") as fh:
        data = json.load(fh)
    if data["train_steps"] != TRAIN_STEPS or data["probe_points"] != PROBE_POINTS:
        sys.exit("perfbench: reference.json was made for other run lengths")
    return {int(s): ref for s, ref in data["seeds"].items()}, data["tolerances"]


def config_seeds(seed: int, pool) -> list:
    """The order in which a run goes through the config seeds of `pool`: a
    permutation drawn from the run's seed. The work per step depends on the
    config seed (seeds 22 and 24 take about 15% longer per step on
    train-st-only than 21 and 23), so a run of one config seed would carry
    that into its figures; a run through several averages it out."""
    return [int(s) for s in np.random.default_rng(seed).permutation(sorted(pool))]


# -- the closed loop -----------------------------------------------------------


class Loop:
    """Runs one workload's operations and records times and failures."""

    def __init__(self, mods, workload: str, seed: int):
        self.mods, self.workload = mods, workload
        self.refs, self.tol = load_reference()
        self.order = config_seeds(seed, self.refs)
        self.used = []           # config seeds in the order the run used them
        self._use(self.order[0])
        self.patches = tracing.Patches()
        self.op_ms = []          # step intervals (train) or probe calls
        self.norm_op_ms = []     # the same, normalised
        self.speed_ms = []       # every speed_probe_ms reading
        self.samples = 0         # training samples or probe instances done
        self.busy_s = 0.0        # wall time of the train() or probe calls
        self.norm_busy_s = 0.0   # the same, normalised
        self.attempted = self.failed = 0
        self.ops_done = 0
        if workload != "impact-probe":
            self.clock = StepClock(self.patches, mods["train"])

    def _use(self, config_seed: int) -> None:
        """Switch to another config seed (and, to probe, its initial model)."""
        if self.used and self.used[-1] == config_seed:
            return
        self.cfg = workload_config(self.mods, self.workload, config_seed)
        self.ref = self.refs[config_seed][self.workload]
        if self.workload == "impact-probe":
            self.model = self.mods["train"].build_model(self.cfg)
        self.used.append(config_seed)

    def op(self) -> None:
        """One train() call (TRAIN_STEPS steps) or one probe call. A train()
        call takes the next config seed; a probe, every PROBE_POINTS ops."""
        size = TRAIN_STEPS if self.workload != "impact-probe" else 1
        self.attempted += size
        try:
            if self.workload == "impact-probe":
                group, i = divmod(self.ops_done, PROBE_POINTS)
                self._use(self.order[group % len(self.order)])
                before = speed_probe_ms()
                wall, impacts = probe_op(self.mods, self.cfg, self.model, i + 1)
                after = speed_probe_ms()
                check_probe(impacts, self.ref[i], self.tol)
                norm_wall = normalised(wall, (before + after) / 2)
                self.op_ms.append(1000.0 * wall)
                self.norm_op_ms.append(1000.0 * norm_wall)
                self.speed_ms += [before, after]
                self.samples += self.cfg.scheduler.k
            else:
                self._use(self.order[self.ops_done % len(self.order)])
                times, row = train_op(self.mods, self.cfg, self.clock)
                check_train(train_outcome(row), self.ref, self.tol)
                wall, norm_wall = times.wall_s, times.norm_wall_s
                self.op_ms.extend(1000.0 * s for s, _ in times.steps)
                self.norm_op_ms.extend(1000.0 * n for _, n in times.steps)
                self.speed_ms.extend(speed for _, _, speed in self.clock.cuts)
                self.samples += self.cfg.training.batch_size * TRAIN_STEPS
            self.busy_s += wall
            self.norm_busy_s += norm_wall
        except Exception:  # a failed operation is counted; the loop goes on
            traceback.print_exc()
            self.failed += size
        self.ops_done += 1

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        self.op()
        while time.perf_counter() < deadline:
            self.op()

    def warm_up(self) -> None:
        """One short untimed operation so lazy allocations happen first."""
        if self.workload == "impact-probe":
            probe_op(self.mods, self.cfg, self.model, 1)
        else:
            short = dataclasses.replace(
                self.cfg, training=dataclasses.replace(self.cfg.training, steps=2))
            train_op(self.mods, short, self.clock)


def percentile(values, q: float) -> float:
    """0.0 when every operation failed, so the failures still get reported."""
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(loop: Loop, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "norm_step_ms_p50": percentile(loop.norm_op_ms, 50),
        "norm_step_ms_p90": percentile(loop.norm_op_ms, 90),
        "norm_samples_per_s": loop.samples / loop.norm_busy_s if loop.norm_busy_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_ms_p50": percentile(loop.op_ms, 50),
        "step_ms_p90": percentile(loop.op_ms, 90),
        "samples_per_s": loop.samples / loop.busy_s if loop.busy_s else 0.0,
        "speed_probe_ms": percentile(loop.speed_ms, 50),
    }


def per_layer(tr: tracing.Tracer, ops: int, overhead_ms: float) -> dict:
    """Self ms and calls per operation, counts and sampled ratios."""
    summary = tracing.summarise(tr.spans)
    out = {}
    for name in SPAN_LAYERS:
        out[f"{name}_ms"] = 1000.0 * summary.get(name, (0, 0.0))[1] / ops
    for name in CALL_LAYERS:
        out[f"{name}_calls"] = summary.get(name, (0, 0.0))[0] / ops
    out["shrink.shrink_sequence_calls"] = tr.counts["shrink.shrink_sequence"] / ops
    out["autograd.backward_calls"] = tr.counts["autograd.node_backward"] / ops
    out["autograd.tensors_per_op"] = tr.counts["autograd.tensors"] / ops
    out["scheduler.probe_failures"] = float(tr.counts["scheduler.probe_failures"])
    for name in ("shrink.length_ratio", "data.pad_fraction", "train.checkpoint_bytes"):
        values = tr.samples[name]
        out[name] = float(np.mean(values)) if values else 0.0
    out["trace.overhead_ms"] = overhead_ms
    return out


def metric_units() -> dict:
    units = {f"{n}_ms": "ms" for n in SPAN_LAYERS}
    units.update({f"{n}_calls": "count" for n in CALL_LAYERS})
    units.update({"shrink.shrink_sequence_calls": "count", "autograd.backward_calls": "count",
                  "autograd.tensors_per_op": "count", "scheduler.probe_failures": "count",
                  "shrink.length_ratio": "ratio", "data.pad_fraction": "ratio",
                  "train.checkpoint_bytes": "B", "trace.overhead_ms": "ms"})
    units.update(END_TO_END)
    units.update(PRINTED_ONLY)
    return units


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    mods = import_stlab()
    prov = provenance(seed)
    loop = Loop(mods, workload, seed)
    setup_s = measure_setup(workload, loop.order[0]) if not trace else None
    WORK.mkdir(exist_ok=True)
    try:
        loop.warm_up()
        if not trace:
            loop.run_for(seconds)
            metrics = end_to_end(loop, setup_s)
        else:
            # untraced first, for the tracing overhead; then traced
            loop.run_for(seconds / 4)
            untraced_ms = percentile(loop.norm_op_ms, 50)
            loop.norm_op_ms, untraced_ops = [], loop.attempted
            tr = tracing.Tracer()
            patches = tracing.install(tr, mods)
            try:
                loop.run_for(seconds * 3 / 4)
            finally:
                patches.restore()
            ops = loop.attempted - untraced_ops
            metrics = per_layer(tr, ops, percentile(loop.norm_op_ms, 50) - untraced_ms)
            with open(WORK / f"trace-{workload}-seed{seed}.json", "w") as fh:
                json.dump({"provenance": prov, "config_seeds": loop.used, "workload": workload,
                           "operations": ops, "spans": tr.spans, "counts": tr.counts}, fh)
    finally:
        loop.patches.restore()
    units = metric_units()
    print("provenance " + json.dumps(dict(prov, config_seeds=loop.used), sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    print(f"{workload} failed/attempted = {loop.failed}/{loop.attempted}")
    return {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()
                        if n not in PRINTED_ONLY}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        set_up_once(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
