"""Analysis presets: each writes one or more CSV reports for a trained
checkpoint, mirroring the measurement protocols of the analysis module."""

from __future__ import annotations

import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import RunConfig
from .data import make_batch
from .plots import write_csv
from .train import load_run_checkpoint

CONSISTENCY_HEADER = ("partition", "kind", "layer", "mean", "std")


def _write_variants(model, config: RunConfig, variants, path, *, n, repeats, seed,
                    **layout):
    """Run consistency_protocol for each (label, task pair, probe kwargs of
    task a, of task b) row and write all rows to one CSV, led by a variant
    column unless the labels are None."""
    labelled = variants[0][0] is not None
    rows = [((label,) if labelled else ()) + (r.partition, r.kind, r.layer, r.mean, r.std)
            for label, pair, kw_a, kw_b in variants
            for r in analysis.consistency_protocol(
                model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
                probe_kwargs_a=kw_a, probe_kwargs_b=kw_b, **layout)]
    return write_csv(path, (("variant",) if labelled else ()) + CONSISTENCY_HEADER, rows)


def _probe_pairs(config: RunConfig, shrunk=True):
    """{pair name: (task pair, probe kwargs of task a, of task b)} for the
    ASR-ST and MT-ST consistency pairs; MT runs under the run's input
    noise. The CE-flavored ASR probe shares the whole model, so the decoder
    column exists; the CTC probe would only cover the A-Enc."""
    st = {"use_shrink": shrunk}
    return {"asr_st": (("asr", "st"), {"asr_variant": "ce", **st}, st),
            "mt_st": (("mt", "st"), {"mt_noise_p": config.toggles.mt_noise()}, st)}


# preset -> (CSV name prefix, consistency_protocol layout)
_PAIR_LAYOUTS = {
    "modules-bar": ("consistency_modules", {}),
    "per-layer": ("consistency_layers", {"partitions": ("T-Enc",), "per_layer": True}),
}


def preset_pairs(preset: str, config: RunConfig, model, out_dir, *, n=32,
                 repeats=5, seed=0):
    """ASR-ST and MT-ST consistency on shrunk speech: one cosine per
    (partition, sublayer kind) for modules-bar, per T-Enc layer for
    per-layer."""
    prefix, layout = _PAIR_LAYOUTS[preset]
    return [_write_variants(model, config, [(None, *probe)],
                            Path(out_dir) / f"{prefix}_{pair_name}.csv",
                            n=n, repeats=repeats, seed=seed, **layout)
            for pair_name, probe in _probe_pairs(config).items()]


def preset_asr_variants(config: RunConfig, model, out_dir, *, n=32, repeats=5,
                        seed=0):
    """ASR-ST consistency with the CTC-after-A-Enc vs CE-after-decoder probes."""
    pair, kw_a, kw_b = _probe_pairs(config)["asr_st"]
    variants = [(v, pair, {**kw_a, "asr_variant": v}, kw_b) for v in ("ctc", "ce")]
    return [_write_variants(model, config, variants,
                            Path(out_dir) / "consistency_asr_variants.csv",
                            n=n, repeats=repeats, seed=seed)]


def preset_shrink_cl(config: RunConfig, model, out_dir, *, n=32, repeats=5,
                     seed=0):
    """MT-ST consistency with and without shrinking, plus the per-stream
    attention-entropy report."""
    out_dir = Path(out_dir)
    variants = [(variant, *_probe_pairs(config, shrunk)["mt_st"])
                for variant, shrunk in (("plain", False), ("shrink", True))]
    cons_path = _write_variants(model, config, variants, out_dir / "consistency_shrink_cl.csv",
                                n=n, repeats=repeats, seed=seed)
    ent_path = out_dir / "entropy_streams.csv"
    write_entropy_report(model, config, ent_path, n=n, seed=seed)
    return [cons_path, ent_path]


def write_entropy_report(model, config: RunConfig, path, *, n=32, seed=0):
    """Per-layer T-Enc attention entropy for the text stream and the speech
    stream with and without shrinking."""
    rng = np.random.default_rng((seed, 0xE27), )
    batch = make_batch(config.corpus, rng.integers(0, 2**62, size=n))
    rows = []
    mt_out = model.forward_task(batch, "mt",
                                mt_noise_rngs=[np.random.default_rng((seed, 1))] * n,
                                mt_noise_p=config.toggles.mt_noise())
    rows += analysis.stream_entropy_report(mt_out.attention_weights, mt_out.tenc_mask, "mt")
    for name, shrunk in (("st_plain", False), ("st_shrunk", True)):
        st_out = model.forward_task(batch, "st", use_shrink=shrunk)
        rows += analysis.stream_entropy_report(st_out.attention_weights,
                                               st_out.tenc_mask, name)
    return write_csv(path, ("layer", "stream", "entropy_bits"),
                     [(r.layer, r.stream, r.entropy_bits) for r in rows])


def find_checkpoints(run_dir):
    """(step, path) pairs for every checkpoint in a run directory."""
    out = []
    for p in sorted(Path(run_dir).glob("checkpoint_*.stlab")):
        m = re.match(r"checkpoint_(\d+)\.stlab", p.name)
        if m:
            out.append((int(m.group(1)), p))
    return out


def preset_over_training(config: RunConfig, run_dir, out_dir, *, n=32, repeats=3,
                         seed=0):
    """Consistency time series across every checkpoint of a run: each
    checkpoint is loaded once and probed with both pairs. One that fails to
    load (OSError or ValueError) is skipped with one line on stderr."""
    ckpts = find_checkpoints(run_dir)
    if not ckpts:
        raise FileNotFoundError(f"no checkpoints found in {run_dir}")
    pairs = _probe_pairs(config, shrunk=False)
    rows = {pair_name: [] for pair_name in pairs}
    for step, path in sorted(ckpts):
        try:
            model, _, _ = load_run_checkpoint(path, config)
        except (OSError, ValueError) as exc:
            print(f"skipping the step-{step} checkpoint: {exc}", file=sys.stderr)
            continue
        for pair_name, (pair, kw_a, kw_b) in pairs.items():
            rows[pair_name] += [
                (step, r.partition, r.kind, r.layer, r.mean)
                for r in analysis.consistency_protocol(
                    model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
                    probe_kwargs_a=kw_a, probe_kwargs_b=kw_b)]
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


_PRESET_FNS = {
    "modules-bar": functools.partial(preset_pairs, "modules-bar"),
    "per-layer": functools.partial(preset_pairs, "per-layer"),
    "asr-variants": preset_asr_variants,
    "shrink-cl": preset_shrink_cl,
    "over-training": preset_over_training,
}
PRESETS = tuple(_PRESET_FNS)


def run_preset(preset: str, config: RunConfig, target, out_dir, **kwargs):
    """Run `preset` on a checkpoint (a run directory for over-training).
    The checkpoint loads before `out_dir` is made, so one that fails to
    load leaves no report directory behind."""
    if preset not in _PRESET_FNS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    out_dir = Path(out_dir)
    if preset != "over-training":  # over-training makes out_dir once it finds one
        target, _, _ = load_run_checkpoint(target, config)
        out_dir.mkdir(parents=True, exist_ok=True)
    return _PRESET_FNS[preset](config, target, out_dir, **kwargs)
