"""Analysis presets: each writes CSV reports for the model a checkpoint
restores, as it was trained, with the protocols of the analysis module.
The presets are one table: `preset_reports` gives a single-checkpoint
preset's reports as (CSV name, report) rows, and `run_preset` loads the
checkpoint and writes each; over-training walks a run's checkpoints."""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .data import make_batch
from .model import load_checkpoint
from .plots import write_csv


def _probe_pairs(shrunk=True):
    """{pair name: (task pair, probe kwargs of task a, of task b)} for the
    ASR-ST and MT-ST consistency pairs; MT runs under the input noise the
    model carries. The CE-flavored ASR probe shares the whole model, so the
    decoder column exists; the CTC probe would only cover the A-Enc."""
    st = {"use_shrink": shrunk}
    return {"asr_st": (("asr", "st"), {"asr_variant": "ce", **st}, st),
            "mt_st": (("mt", "st"), {}, st)}


PRESETS = ("modules-bar", "per-layer", "asr-variants", "shrink-cl", "shrink-eval",
           "over-training")


def preset_reports(preset: str):
    """A single-checkpoint preset's reports, as (CSV name, report) rows. Each
    report(model, step, n=, repeats=, seed=) returns a CSV header and rows."""
    pairs = _probe_pairs()
    asr_pair, asr_a, asr_b = pairs["asr_st"]
    return {
        # ASR-ST and MT-ST on shrunk speech, per (partition, sublayer kind)
        "modules-bar": [(f"consistency_modules_{name}.csv", consistency_report([(None, *probe)]))
                        for name, probe in pairs.items()],
        # the same pairs, one cosine per T-Enc layer
        "per-layer": [(f"consistency_layers_{name}.csv", consistency_report(
                           [(None, *probe)], partitions=("T-Enc",), per_layer=True))
                      for name, probe in pairs.items()],
        # ASR-ST with the CTC-after-A-Enc and the CE-after-decoder probes
        "asr-variants": [("consistency_asr_variants.csv", consistency_report(
            [(v, asr_pair, {**asr_a, "asr_variant": v}, asr_b) for v in ("ctc", "ce")]))],
        # MT-ST without and with shrinking, and the T-Enc attention entropy
        "shrink-cl": [("consistency_shrink_cl.csv", consistency_report(
                          [("plain", *_probe_pairs(shrunk=False)["mt_st"]),
                           ("shrink", *pairs["mt_st"])])),
                      ("entropy_streams.csv", entropy_report)],
        # the length compression of shrinking
        "shrink-eval": [("shrink_eval.csv", shrink_report)],
    }[preset]


def consistency_report(variants, **layout):
    """The report of `variants`, (label, task pair, probe kwargs of task a, of
    task b) rows probed under `layout`; a label of None writes no variant column."""
    lead = ("variant",) if variants[0][0] is not None else ()

    def report(model, step, *, n, repeats, seed):
        return lead + ("partition", "kind", "layer", "mean", "std"), [
            ((label,) if lead else ()) + (r.partition, r.kind, r.layer, r.mean, r.std)
            for label, pair, kw_a, kw_b in variants
            for r in analysis.consistency_protocol(
                model, pair, n=n, repeats=repeats, seed=seed,
                probe_kwargs_a=kw_a, probe_kwargs_b=kw_b, **layout)]
    return report


def entropy_report(model, step, *, n, repeats, seed):
    """Per-layer T-Enc attention entropy for the text stream and the speech
    stream with and without shrinking, on one batch of `n`."""
    rng = np.random.default_rng((seed, 0xE27))
    batch = make_batch(model.corpus, rng.integers(0, 2**62, size=n))
    mt = {"mt_noise_rngs": [np.random.default_rng((seed, 1))] * n}
    rows = []
    for stream, task, kw in (("mt", "mt", mt), ("st_plain", "st", {"use_shrink": False}),
                             ("st_shrunk", "st", {"use_shrink": True})):
        out = model.forward_task(batch, task, **kw)
        rows += analysis.stream_entropy_report(out.attention_weights, out.tenc_mask, stream)
    return analysis.EntropyRow._fields, rows


def shrink_report(model, step, *, n, repeats, seed):
    """Shrink statistics of the ST pass, one row per batch: `repeats`
    batches of `n`, batch b drawn from (seed, 0x5E, b)."""
    rows = []
    for bi in range(repeats):
        rng = np.random.default_rng((seed, 0x5E, bi))
        batch = make_batch(model.corpus, rng.integers(0, 2**62, size=n))
        out = model.forward_task(batch, "st", use_shrink=True)
        rows.append((step, bi, float(np.mean(batch.speech_lens)),
                     float(np.mean(out.tenc_mask.sum(axis=1))), out.length_ratio))
    return ("step", "batch", "n_mean", "m_mean", "ratio"), rows


def preset_over_training(run_dir, *, n, repeats, seed):
    """Consistency time series across every checkpoint of a run, as
    (CSV name, header, rows) reports: each checkpoint is loaded once and
    probed with both pairs. One that fails to load (OSError or ValueError),
    or whose configs or forward settings differ from the first loaded one's,
    is skipped with one line on stderr; when every one is, it raises."""
    ckpts = sorted((int(m.group(1)), p) for p in Path(run_dir).glob("checkpoint_*.stlab")
                   if (m := re.match(r"checkpoint_(\d+)\.stlab", p.name)))
    if not ckpts:
        raise FileNotFoundError(f"no checkpoints found in {run_dir}")
    pairs = _probe_pairs(shrunk=False)
    rows = {pair_name: [] for pair_name in pairs}
    skipped, first = 0, None
    for step, path in ckpts:
        try:
            model, _, _ = load_checkpoint(path)
            settings = (model.config, model.corpus, model.use_l2g, model.use_lbm, model.mt_noise_p)
            if settings != (first := first or settings):
                raise ValueError(f"checkpoint {path} records other configs or forward "
                                 f"settings than the run's first")
        except (OSError, ValueError) as exc:
            print(f"skipping the step-{step} checkpoint: {exc}", file=sys.stderr)
            skipped += 1
            continue
        for pair_name, (pair, kw_a, kw_b) in pairs.items():
            rows[pair_name] += [
                (step, r.partition, r.kind, r.layer, r.mean)
                for r in analysis.consistency_protocol(
                    model, pair, n=n, repeats=repeats, seed=seed,
                    probe_kwargs_a=kw_a, probe_kwargs_b=kw_b)]
    if skipped == len(ckpts):
        raise ValueError(f"no checkpoint in {run_dir} loads")
    return [(f"consistency_over_training_{pair_name}.csv",
             ("step", "partition", "kind", "layer", "mean"), pair_rows)
            for pair_name, pair_rows in rows.items()]


def run_preset(preset: str, target, out_dir, *, n, repeats, seed=0):
    """Run `preset` on the checkpoint `target` (for over-training, the run
    directory whose checkpoints it walks). Every report is computed before
    `out_dir` is made, so a checkpoint that fails to load leaves no report
    directory behind."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    if preset == "over-training":
        reports = preset_over_training(target, n=n, repeats=repeats, seed=seed)
    else:
        model, meta, _ = load_checkpoint(target)
        reports = [(name, *report(model, meta.get("step", 0), n=n, repeats=repeats, seed=seed))
                   for name, report in preset_reports(preset)]
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return [write_csv(Path(out_dir) / name, header, rows) for name, header, rows in reports]
