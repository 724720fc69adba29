"""Analysis presets: each writes one or more CSV reports for a trained
checkpoint, mirroring the measurement protocols of the analysis module."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from . import analysis
from .config import RunConfig
from .data import make_batch
from .model import load_checkpoint

PRESETS = ("modules-bar", "per-layer", "asr-variants", "shrink-cl", "over-training")

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
    model, _, _ = load_checkpoint(checkpoint)
    model.use_l2g = config.toggles.use_l2g
    return model


def preset_modules_bar(config: RunConfig, checkpoint, out_dir, *, n=32, repeats=5,
                       seed=0, shrunk=True, asr_variant="ce"):
    """One cosine per (partition, sublayer kind) for ASR-ST and MT-ST.

    The CE-flavored ASR probe shares the whole model, so the decoder column
    exists; the CTC probe would only cover the A-Enc.
    """
    model = _load(checkpoint, config)
    out_dir = Path(out_dir)
    paths = []
    for pair_name, pair, kw_a in (
            ("asr_st", ("asr", "st"), {"asr_variant": asr_variant,
                                       "use_shrink": shrunk,
                                       "use_lbm": config.toggles.use_lbm}),
            ("mt_st", ("mt", "st"), {})):
        rows = analysis.consistency_protocol(
            model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
            probe_kwargs_a=kw_a,
            probe_kwargs_b={"use_shrink": shrunk, "use_lbm": config.toggles.use_lbm})
        path = out_dir / f"consistency_modules_{pair_name}.csv"
        _write_consistency(rows, path)
        paths.append(path)
    return paths


def preset_per_layer(config: RunConfig, checkpoint, out_dir, *, n=32, repeats=5,
                     seed=0, shrunk=True):
    """Per-layer T-Enc consistency for ASR-ST and MT-ST (CE-flavored ASR)."""
    model = _load(checkpoint, config)
    out_dir = Path(out_dir)
    paths = []
    for pair_name, pair, kw_a in (
            ("asr_st", ("asr", "st"), {"asr_variant": "ce", "use_shrink": shrunk,
                                       "use_lbm": config.toggles.use_lbm}),
            ("mt_st", ("mt", "st"), {})):
        rows = analysis.consistency_protocol(
            model, config.corpus, pair, n=n, repeats=repeats, seed=seed,
            partitions=("T-Enc",), per_layer=True,
            probe_kwargs_a=kw_a,
            probe_kwargs_b={"use_shrink": shrunk, "use_lbm": config.toggles.use_lbm})
        path = out_dir / f"consistency_layers_{pair_name}.csv"
        _write_consistency(rows, path)
        paths.append(path)
    return paths


def preset_asr_variants(config: RunConfig, checkpoint, out_dir, *, n=32, repeats=5,
                        seed=0, shrunk=True):
    """ASR-ST consistency with the CTC-after-A-Enc vs CE-after-decoder probes."""
    model = _load(checkpoint, config)
    out_dir = Path(out_dir)
    rows = []
    for variant in ("ctc", "ce"):
        kw = {"asr_variant": variant}
        if variant == "ce":
            kw.update(use_shrink=shrunk, use_lbm=config.toggles.use_lbm)
        for r in analysis.consistency_protocol(
                model, config.corpus, ("asr", "st"), n=n, repeats=repeats, seed=seed,
                probe_kwargs_a=kw,
                probe_kwargs_b={"use_shrink": shrunk,
                                "use_lbm": config.toggles.use_lbm}):
            rows.append((variant, r))
    path = Path(out_dir) / "consistency_asr_variants.csv"
    _write_consistency(rows, path, extra_col=True)
    return [path]


def preset_shrink_cl(config: RunConfig, checkpoint, out_dir, *, n=32, repeats=5,
                     seed=0):
    """MT-ST consistency with and without shrinking, plus the per-stream
    attention-entropy report."""
    model = _load(checkpoint, config)
    out_dir = Path(out_dir)
    rows = []
    for variant, shrunk in (("plain", False), ("shrink", True)):
        for r in analysis.consistency_protocol(
                model, config.corpus, ("mt", "st"), n=n, repeats=repeats, seed=seed,
                probe_kwargs_b={"use_shrink": shrunk,
                                "use_lbm": config.toggles.use_lbm}):
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
                                mt_noise_p=config.toggles.mt_noise_p)
    rows += analysis.stream_entropy_report(mt_out.attention_weights, mt_out.tenc_mask, "mt")
    for name, shrunk in (("st_plain", False), ("st_shrunk", True)):
        st_out = model.forward_task(batch, "st", use_shrink=shrunk,
                                    use_lbm=config.toggles.use_lbm)
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
    paths = []
    out_dir = Path(out_dir)
    for pair_name, pair, kw_a in (
            ("asr_st", ("asr", "st"), {"asr_variant": "ce"}),
            ("mt_st", ("mt", "st"), {})):
        series, warnings = analysis.consistency_over_training(
            ckpts, config.corpus, pair, n=n, repeats=repeats, seed=seed,
            probe_kwargs_a=kw_a)
        path = out_dir / f"consistency_over_training_{pair_name}.csv"
        with open(path, "w") as fh:
            fh.write("step,partition,kind,layer,mean\n")
            for step, part, kind, layer, mean_v in series:
                fh.write(f"{step},{part},{kind},{layer},{mean_v:.17g}\n")
        paths.append(path)
    return paths


def shrink_eval(config: RunConfig, checkpoint, out_path, *, batches=4,
                batch_size=16, seed=0):
    """Per-batch shrink statistics CSV: step,batch,n_mean,m_mean,ratio."""
    model, meta, _ = load_checkpoint(checkpoint)
    step = meta.get("step", 0)
    with open(out_path, "w") as fh:
        fh.write("step,batch,n_mean,m_mean,ratio\n")
        for bi in range(batches):
            rng = np.random.default_rng((seed, 0x5E, bi))
            batch = make_batch(config.corpus, rng.integers(0, 2**62, size=batch_size))
            out = model.forward_task(batch, "st", use_shrink=True,
                                     use_lbm=config.toggles.use_lbm)
            n_mean = float(np.mean(batch.speech_lens))
            m_mean = float(np.mean([s.m for s in out.shrunk]))
            fh.write(f"{step},{bi},{n_mean:.17g},{m_mean:.17g},"
                     f"{out.length_ratio:.17g}\n")
    return out_path


def run_preset(preset: str, config: RunConfig, target, out_dir, **kwargs):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if preset == "modules-bar":
        return preset_modules_bar(config, target, out_dir, **kwargs)
    if preset == "per-layer":
        return preset_per_layer(config, target, out_dir, **kwargs)
    if preset == "asr-variants":
        return preset_asr_variants(config, target, out_dir, **kwargs)
    if preset == "shrink-cl":
        return preset_shrink_cl(config, target, out_dir, **kwargs)
    if preset == "over-training":
        return preset_over_training(config, target, out_dir, **kwargs)
    raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
