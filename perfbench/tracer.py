"""In-memory span tracer and the wrappers that attach it to stlab.

The benchmark drives stlab from one thread, so spans nest through a stack:
a span opened while another is open is its child. Spans stay in memory and
are summarised or written out only when the run ends. A span's self time is
its duration minus the durations of its direct children; children of one
parent never overlap, so their durations add up to the part of the parent's
interval they cover.

Wrappers replace a name where callers look it up (a module attribute or a
class attribute), so nothing under ``src/`` changes. ``Patches.restore``
puts every original back.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # events counted without a span
        self.samples = defaultdict(list)  # per-call values, e.g. ratios
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")


def summarise(spans):
    """{name: (calls, self seconds)}; self = duration - direct children."""
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - children[i]
    return {name: (calls[name], self_s[name]) for name in calls}


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: time each call as a span; `after(args, result)`
    may record per-call samples once the span has closed."""
    def make(original):
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper
    return make


def counted(tracer: Tracer, name: str):
    """Wrapper factory: count calls without a span (for hot inner calls)."""
    def make(original):
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return original(*args, **kwargs)
        return wrapper
    return make


def tensor_counters(tracer: Tracer):
    """Wrapper factory for ``Tensor.__init__``: count constructions, and
    wrap each node's backward closure so the nodes a backward pass runs
    are counted too."""
    def make(original):
        def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
            tracer.counts["autograd.tensors"] += 1
            if _backward is not None:
                node_backward = _backward

                def _backward(g):
                    tracer.counts["autograd.node_backward"] += 1
                    return node_backward(g)
            original(self, data, requires_grad, _parents, _backward)
        return __init__
    return make


def install(tracer: Tracer, mods) -> Patches:
    """Attach the tracer to every layer boundary the benchmark reports.

    `mods` maps short module names (autograd, data, losses, model, optim,
    shrink, scheduler, analysis, train) to the imported stlab modules. A
    function imported by name into another module is wrapped there too,
    because that is where its callers look it up.
    """
    m = mods
    p = Patches()
    samples = tracer.samples

    def pad_fraction(args, batch):
        frames = batch.speech.shape[0] * batch.speech.shape[1]
        samples["data.pad_fraction"].append(1.0 - float(batch.speech_lens.sum()) / frames)

    def length_ratio(args, result):
        samples["shrink.length_ratio"].append(result[3])

    def checkpoint_bytes(args, result):
        samples["train.checkpoint_bytes"].append(float(os.path.getsize(args[0])))

    def probe_failures(args, weights):
        step = args[0]
        tracer.counts["scheduler.probe_failures"] += sum(
            1 for s, _ in weights.warnings if s == step)

    p.replace(m["autograd"].Tensor, "__init__", tensor_counters(tracer))
    p.replace(m["autograd"].Tensor, "backward", spanned(tracer, "autograd.backward"))
    for owner in (m["data"], m["train"], m["analysis"]):
        p.replace(owner, "make_batch", spanned(tracer, "data.make_batch", pad_fraction))
    for owner in (m["losses"], m["train"], m["analysis"]):
        p.replace(owner, "ctc_loss", spanned(tracer, "losses.ctc_loss"))
        p.replace(owner, "ce_loss", spanned(tracer, "losses.ce_loss"))
    Model = m["model"].Model
    p.replace(Model, "a_enc_forward", spanned(tracer, "model.a_enc_forward"))
    p.replace(Model, "t_enc_forward", spanned(tracer, "model.t_enc_forward"))
    p.replace(Model, "decoder_forward", spanned(tracer, "model.decoder_forward"))
    p.replace(m["shrink"], "shrink_batch", spanned(tracer, "shrink.shrink_batch", length_ratio))
    p.replace(m["shrink"], "shrink_sequence", counted(tracer, "shrink.shrink_sequence"))
    p.replace(m["optim"].Adam, "step", spanned(tracer, "optim.adam_step"))
    p.replace(m["scheduler"], "schedule_step",
              spanned(tracer, "scheduler.schedule_step", probe_failures))
    p.replace(m["scheduler"], "task_impact", spanned(tracer, "scheduler.task_impact"))
    p.replace(m["analysis"], "capture_gradients", spanned(tracer, "analysis.capture_gradients"))
    p.replace(m["train"], "compute_losses", spanned(tracer, "train.compute_losses"))
    p.replace(m["train"], "greedy_st_accuracy", spanned(tracer, "train.eval"))
    p.replace(m["train"], "save_checkpoint",
              spanned(tracer, "train.checkpoint", checkpoint_bytes))
    return p
