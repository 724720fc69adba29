"""Analysis presets: each writes one or more CSV reports for a trained
checkpoint, mirroring the measurement protocols of the analysis module.
The presets are one table: `preset_reports` gives a preset's consistency
reports as (CSV name, variants, consistency_protocol layout) rows, and
`run_preset` writes each. shrink-cl also writes the attention-entropy
report; over-training walks the checkpoints of a run in its own loop."""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import RunConfig
from .data import make_batch
from .plots import write_csv
from .train import load_run_checkpoint


def _probe_pairs(shrunk=True):
    """{pair name: (task pair, probe kwargs of task a, of task b)} for the
    ASR-ST and MT-ST consistency pairs; MT runs under the input noise the
    model carries. The CE-flavored ASR probe shares the whole model, so the
    decoder column exists; the CTC probe would only cover the A-Enc."""
    st = {"use_shrink": shrunk}
    return {"asr_st": (("asr", "st"), {"asr_variant": "ce", **st}, st),
            "mt_st": (("mt", "st"), {}, st)}


PRESETS = ("modules-bar", "per-layer", "asr-variants", "shrink-cl", "over-training")


def preset_reports(preset: str):
    """The consistency reports of a single-checkpoint preset, as
    (CSV name, variants, consistency_protocol layout) rows."""
    pairs = _probe_pairs()
    asr_pair, asr_a, asr_b = pairs["asr_st"]
    per_layer = {"partitions": ("T-Enc",), "per_layer": True}
    return {
        # ASR-ST and MT-ST on shrunk speech, per (partition, sublayer kind)
        "modules-bar": [(f"consistency_modules_{name}.csv", [(None, *probe)], {})
                        for name, probe in pairs.items()],
        # the same pairs, one cosine per T-Enc layer
        "per-layer": [(f"consistency_layers_{name}.csv", [(None, *probe)], per_layer)
                      for name, probe in pairs.items()],
        # ASR-ST with the CTC-after-A-Enc and the CE-after-decoder probes
        "asr-variants": [("consistency_asr_variants.csv",
                          [(v, asr_pair, {**asr_a, "asr_variant": v}, asr_b)
                           for v in ("ctc", "ce")], {})],
        # MT-ST without and with shrinking
        "shrink-cl": [("consistency_shrink_cl.csv",
                       [("plain", *_probe_pairs(shrunk=False)["mt_st"]),
                        ("shrink", *pairs["mt_st"])], {})],
    }[preset]


def write_entropy_report(model, config: RunConfig, path, *, n, seed):
    """Per-layer T-Enc attention entropy for the text stream and the speech
    stream with and without shrinking."""
    rng = np.random.default_rng((seed, 0xE27))
    batch = make_batch(config.corpus, rng.integers(0, 2**62, size=n))
    mt = {"mt_noise_rngs": [np.random.default_rng((seed, 1))] * n}
    rows = []
    for stream, task, kw in (("mt", "mt", mt), ("st_plain", "st", {"use_shrink": False}),
                             ("st_shrunk", "st", {"use_shrink": True})):
        out = model.forward_task(batch, task, **kw)
        rows += analysis.stream_entropy_report(out.attention_weights, out.tenc_mask, stream)
    return write_csv(path, analysis.EntropyRow._fields, rows)


def preset_over_training(config: RunConfig, run_dir, out_dir, *, n, repeats, seed):
    """Consistency time series across every checkpoint of a run: each
    checkpoint is loaded once and probed with both pairs. One that fails to
    load (OSError or ValueError) is skipped with one line on stderr; when
    every one fails, it raises and writes nothing."""
    ckpts = sorted((int(m.group(1)), p) for p in Path(run_dir).glob("checkpoint_*.stlab")
                   if (m := re.match(r"checkpoint_(\d+)\.stlab", p.name)))
    if not ckpts:
        raise FileNotFoundError(f"no checkpoints found in {run_dir}")
    pairs = _probe_pairs(shrunk=False)
    rows = {pair_name: [] for pair_name in pairs}
    skipped = 0
    for step, path in ckpts:
        try:
            model, _, _ = load_run_checkpoint(path, config)
        except (OSError, ValueError) as exc:
            print(f"skipping the step-{step} checkpoint: {exc}", file=sys.stderr)
            skipped += 1
            continue
        for pair_name, (pair, kw_a, kw_b) in pairs.items():
            rows[pair_name] += [
                (step, r.partition, r.kind, r.layer, r.mean)
                for r in analysis.consistency_protocol(
                    model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
                    probe_kwargs_a=kw_a, probe_kwargs_b=kw_b)]
    if skipped == len(ckpts):
        raise ValueError(f"no checkpoint in {run_dir} loads")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return [write_csv(Path(out_dir) / f"consistency_over_training_{pair_name}.csv",
                      ("step", "partition", "kind", "layer", "mean"), pair_rows)
            for pair_name, pair_rows in rows.items()]


def shrink_eval(config: RunConfig, checkpoint, out_path, *, batches=4,
                batch_size=16, seed=0):
    """Per-batch shrink statistics CSV: step,batch,n_mean,m_mean,ratio.
    The checkpoint loads before `out_path`'s directory is made."""
    model, meta, _ = load_run_checkpoint(checkpoint, config)
    step = meta.get("step", 0)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for bi in range(batches):
        rng = np.random.default_rng((seed, 0x5E, bi))
        batch = make_batch(config.corpus, rng.integers(0, 2**62, size=batch_size))
        out = model.forward_task(batch, "st", use_shrink=True)
        rows.append((step, bi, float(np.mean(batch.speech_lens)),
                     float(np.mean(out.tenc_mask.sum(axis=1))), out.length_ratio))
    return write_csv(out_path, ("step", "batch", "n_mean", "m_mean", "ratio"), rows)


def run_preset(preset: str, config: RunConfig, target, out_dir, *, n, repeats, seed=0):
    """Run `preset` on a checkpoint (a run directory for over-training).
    The checkpoint loads before `out_dir` is made, so one that fails to
    load leaves no report directory behind."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    if preset == "over-training":  # it makes out_dir once it finds a checkpoint
        return preset_over_training(config, target, out_dir, n=n, repeats=repeats, seed=seed)
    model, _, _ = load_run_checkpoint(target, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, variants, layout in preset_reports(preset):
        labelled = variants[0][0] is not None  # else no variant column
        rows = [((label,) if labelled else ()) + (r.partition, r.kind, r.layer, r.mean, r.std)
                for label, pair, kw_a, kw_b in variants
                for r in analysis.consistency_protocol(
                    model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
                    probe_kwargs_a=kw_a, probe_kwargs_b=kw_b, **layout)]
        header = (("variant",) if labelled else ()) + ("partition", "kind", "layer", "mean", "std")
        paths.append(write_csv(out_dir / name, header, rows))
    if preset == "shrink-cl":
        paths.append(write_entropy_report(model, config, out_dir / "entropy_streams.csv",
                                          n=n, seed=seed))
    return paths
