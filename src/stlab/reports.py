"""Analysis presets: each writes CSV reports for the models checkpoints
restore, as they were trained, with the protocols of the analysis module.
The presets are one table, `PRESET_REPORTS`: each preset's reports as
(CSV name, report) rows. `run_preset` loads the checkpoint a preset reads
once (for over-training, every checkpoint of a run directory) and computes
each report of its row on it."""

from __future__ import annotations

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


def consistency_report(variants, **layout):
    """The report of `variants`, (label, task pair, probe kwargs of task a, of
    task b) rows probed under `layout`; a label of None writes no variant column."""
    lead = ("variant",) if variants[0][0] is not None else ()

    def report(model, step, *, n, repeats, seed):
        return lead + analysis.ConsistencyRow._fields, [
            ((label,) if lead else ()) + r for label, pair, kw_a, kw_b in variants
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


def _preset_table():
    """Each preset's reports, as (CSV name, report) rows. A report(model,
    step, n=, repeats=, seed=) returns a CSV header and rows."""
    pairs, unshrunk = _probe_pairs(), _probe_pairs(shrunk=False)
    asr_pair, asr_a, asr_b = pairs["asr_st"]

    def each_pair(tag, probes, **layout):  # one report per pair, without a variant column
        return [(f"consistency_{tag}_{name}.csv", consistency_report([(None, *probe)], **layout))
                for name, probe in probes.items()]
    return {
        # ASR-ST and MT-ST on shrunk speech, per (partition, sublayer kind)
        "modules-bar": each_pair("modules", pairs),
        # the same pairs, one cosine per T-Enc layer
        "per-layer": each_pair("layers", pairs, partitions=("T-Enc",), per_layer=True),
        # ASR-ST with the CTC-after-A-Enc and the CE-after-decoder probes
        "asr-variants": [("consistency_asr_variants.csv", consistency_report(
            [(v, asr_pair, {**asr_a, "asr_variant": v}, asr_b) for v in ("ctc", "ce")]))],
        # MT-ST without and with shrinking, and the T-Enc attention entropy
        "shrink-cl": [("consistency_shrink_cl.csv", consistency_report(
                          [("plain", *unshrunk["mt_st"]), ("shrink", *pairs["mt_st"])])),
                      ("entropy_streams.csv", entropy_report)],
        # the length compression of shrinking
        "shrink-eval": [("shrink_eval.csv", shrink_report)],
        # both pairs on unshrunk speech at every checkpoint of a run: a series over steps
        "over-training": each_pair("over_training", unshrunk),
    }


PRESET_REPORTS = _preset_table()
PRESETS = tuple(PRESET_REPORTS)


def _load_run(run_dir):
    """(model, meta) of every checkpoint in `run_dir` that loads, ordered by
    the step its header records. One that fails to load (OSError or
    ValueError), or whose configs or forward settings differ from the first
    loaded one's, is skipped with one line on stderr; when every one is, it
    raises."""
    paths = sorted(Path(run_dir).glob("checkpoint_*.stlab"))
    if not paths:
        raise FileNotFoundError(f"no checkpoints found in {run_dir}")
    loaded, first = [], None
    for path in paths:
        try:
            model, meta, _ = load_checkpoint(path)
            settings = (model.config, model.corpus, model.use_l2g, model.use_lbm, model.mt_noise_p)
            if settings != (first := first or settings):
                raise ValueError(f"checkpoint {path} records other configs or forward "
                                 f"settings than the run's first")
        except (OSError, ValueError) as exc:
            print(f"skipping a checkpoint: {exc}", file=sys.stderr)
            continue
        loaded.append((model, meta))
    if not loaded:
        raise ValueError(f"no checkpoint in {run_dir} loads")
    return sorted(loaded, key=lambda model_meta: model_meta[1].get("step", 0))


def run_preset(preset: str, target, out_dir, *, n, repeats, seed=0):
    """Run `preset` on the checkpoint `target`, or for over-training on every
    checkpoint of the run directory `target`, whose rows lead with the step
    and drop the std. Every report is computed before `out_dir` is made, so a
    checkpoint that fails to load leaves no report directory behind."""
    if preset not in PRESET_REPORTS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    series = preset == "over-training"
    loaded = _load_run(target) if series else [load_checkpoint(target)[:2]]
    reports = []
    for name, report in PRESET_REPORTS[preset]:
        rows = []
        for model, meta in loaded:
            step = meta.get("step", 0)
            header, step_rows = report(model, step, n=n, repeats=repeats, seed=seed)
            rows += [(step, *row[:-1]) for row in step_rows] if series else step_rows
        reports.append((name, ("step", *header[:-1]) if series else header, rows))
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return [write_csv(Path(out_dir) / name, header, rows) for name, header, rows in reports]
