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
from .model import load_checkpoint

CONSISTENCY_HEADER = "partition,kind,layer,mean,std\n"


def _write_consistency(rows, path, extra_col=None):
    with open(path, "w") as fh:
        if extra_col:
            fh.write("variant," + CONSISTENCY_HEADER)
        else:
            fh.write(CONSISTENCY_HEADER)
        for item in rows:
            if extra_col:
                variant, r = item
                fh.write(f"{variant},{r.partition},{r.kind},{r.layer},"
                         f"{r.mean:.17g},{r.std:.17g}\n")
            else:
                fh.write(f"{item.partition},{item.kind},{item.layer},"
                         f"{item.mean:.17g},{item.std:.17g}\n")


def _load(checkpoint, config: RunConfig):
    """A checkpoint's model under the run's toggles, and its meta."""
    model, meta, _ = load_checkpoint(checkpoint)
    return model.apply_toggles(config.toggles), meta


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


def preset_pairs(preset: str, config: RunConfig, checkpoint, out_dir, *, n=32,
                 repeats=5, seed=0):
    """ASR-ST and MT-ST consistency on shrunk speech: one cosine per
    (partition, sublayer kind) for modules-bar, per T-Enc layer for
    per-layer."""
    model, _ = _load(checkpoint, config)
    prefix, layout = _PAIR_LAYOUTS[preset]
    paths = []
    for pair_name, (pair, kw_a, kw_b) in _probe_pairs(config).items():
        rows = analysis.consistency_protocol(
            model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
            probe_kwargs_a=kw_a, probe_kwargs_b=kw_b, **layout)
        path = Path(out_dir) / f"{prefix}_{pair_name}.csv"
        _write_consistency(rows, path)
        paths.append(path)
    return paths


def preset_asr_variants(config: RunConfig, checkpoint, out_dir, *, n=32, repeats=5,
                        seed=0):
    """ASR-ST consistency with the CTC-after-A-Enc vs CE-after-decoder probes."""
    model, _ = _load(checkpoint, config)
    pair, kw_a, kw_b = _probe_pairs(config)["asr_st"]
    rows = []
    for variant in ("ctc", "ce"):
        for r in analysis.consistency_protocol(
                model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
                probe_kwargs_a={**kw_a, "asr_variant": variant}, probe_kwargs_b=kw_b):
            rows.append((variant, r))
    path = Path(out_dir) / "consistency_asr_variants.csv"
    _write_consistency(rows, path, extra_col=True)
    return [path]


def preset_shrink_cl(config: RunConfig, checkpoint, out_dir, *, n=32, repeats=5,
                     seed=0):
    """MT-ST consistency with and without shrinking, plus the per-stream
    attention-entropy report."""
    model, _ = _load(checkpoint, config)
    out_dir = Path(out_dir)
    rows = []
    for variant, shrunk in (("plain", False), ("shrink", True)):
        pair, kw_a, kw_b = _probe_pairs(config, shrunk)["mt_st"]
        for r in analysis.consistency_protocol(
                model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
                probe_kwargs_a=kw_a, probe_kwargs_b=kw_b):
            rows.append((variant, r))
    cons_path = out_dir / "consistency_shrink_cl.csv"
    _write_consistency(rows, cons_path, extra_col=True)

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
                                mt_noise_rng=np.random.default_rng((seed, 1)),
                                mt_noise_p=config.toggles.mt_noise())
    rows += analysis.stream_entropy_report(mt_out.attention_weights, mt_out.tenc_mask, "mt")
    for name, shrunk in (("st_plain", False), ("st_shrunk", True)):
        st_out = model.forward_task(batch, "st", use_shrink=shrunk)
        rows += analysis.stream_entropy_report(st_out.attention_weights,
                                               st_out.tenc_mask, name)
    with open(path, "w") as fh:
        fh.write("layer,stream,entropy_bits\n")
        for r in rows:
            fh.write(f"{r.layer},{r.stream},{r.entropy_bits:.17g}\n")
    return path


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
    """Consistency time series across every checkpoint of a run."""
    ckpts = find_checkpoints(run_dir)
    if not ckpts:
        raise FileNotFoundError(f"no checkpoints found in {run_dir}")
    paths, warnings = [], {}
    out_dir = Path(out_dir)
    for pair_name, (pair, kw_a, kw_b) in _probe_pairs(config, shrunk=False).items():
        series, pair_warnings = analysis.consistency_over_training(
            ckpts, config.corpus, pair, lambda p: _load(p, config)[0], n=n,
            repeats=repeats, seed=seed, probe_kwargs_a=kw_a, probe_kwargs_b=kw_b)
        path = out_dir / f"consistency_over_training_{pair_name}.csv"
        with open(path, "w") as fh:
            fh.write("step,partition,kind,layer,mean\n")
            for step, part, kind, layer, mean_v in series:
                fh.write(f"{step},{part},{kind},{layer},{mean_v:.17g}\n")
        paths.append(path)
        warnings.update(dict.fromkeys(pair_warnings))
    for message in warnings:  # each pair meets the same unloadable checkpoints
        print(message, file=sys.stderr)
    return paths


def shrink_eval(config: RunConfig, checkpoint, out_path, *, batches=4,
                batch_size=16, seed=0):
    """Per-batch shrink statistics CSV: step,batch,n_mean,m_mean,ratio."""
    model, meta = _load(checkpoint, config)
    step = meta.get("step", 0)
    with open(out_path, "w") as fh:
        fh.write("step,batch,n_mean,m_mean,ratio\n")
        for bi in range(batches):
            rng = np.random.default_rng((seed, 0x5E, bi))
            batch = make_batch(config.corpus, rng.integers(0, 2**62, size=batch_size))
            out = model.forward_task(batch, "st", use_shrink=True)
            n_mean = float(np.mean(batch.speech_lens))
            m_mean = float(np.mean([s.m for s in out.shrunk]))
            fh.write(f"{step},{bi},{n_mean:.17g},{m_mean:.17g},"
                     f"{out.length_ratio:.17g}\n")
    return out_path


_PRESET_FNS = {
    "modules-bar": functools.partial(preset_pairs, "modules-bar"),
    "per-layer": functools.partial(preset_pairs, "per-layer"),
    "asr-variants": preset_asr_variants,
    "shrink-cl": preset_shrink_cl,
    "over-training": preset_over_training,
}
PRESETS = tuple(_PRESET_FNS)


def run_preset(preset: str, config: RunConfig, target, out_dir, **kwargs):
    if preset not in _PRESET_FNS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _PRESET_FNS[preset](config, target, out_dir, **kwargs)
