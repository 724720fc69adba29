"""Analysis presets probe a checkpoint under its run's toggles."""

import dataclasses
import hashlib
import re
from collections import Counter

import pytest

import stlab.model as model_mod
import stlab.reports as reports_mod
import stlab.shrink as shrink_mod
from stlab import cli
from stlab.config import RunConfig, Toggles
from stlab.data import CorpusConfig
from stlab.model import Model, ModelConfig, save_checkpoint
from stlab.plots import CHARTS, export_plot, read_csv, write_csv
from stlab.reports import PRESETS, run_preset
from stlab.train import build_model

from test_model import HEADER_DAMAGE, damage_header


def ablation_config():
    corpus = CorpusConfig(vocab_size=5, max_src_len=3, seed=3)
    model = ModelConfig(d_model=16, n_heads=2, ffn_dim=24, seed=3)
    return RunConfig(corpus=corpus, model=model,
                     toggles=Toggles(use_l2g=False, use_lbm=False))


def other_corpus(cfg):
    return dataclasses.replace(cfg.corpus, seed=cfg.corpus.seed + 1)


def test_every_load_applies_the_run_toggles(tmp_path, monkeypatch):
    """A use_l2g=False, use_lbm=False run's checkpoint is analysed by every
    preset without extractors, without look-back, and with MT on clean
    text, as it was trained: the checkpoint records those settings."""
    cfg = ablation_config()
    run = tmp_path / "run"
    run.mkdir()
    ckpt = run / "checkpoint_000001.stlab"
    save_checkpoint(ckpt, build_model(cfg), extra_meta={"step": 1})

    seen = set()
    t_enc_forward = Model.t_enc_forward
    shrink_batch = shrink_mod.shrink_batch
    noise_inject = model_mod.noise_inject

    def recording_t_enc(self, *args, **kw):
        seen.add(("use_l2g", self.use_l2g))
        return t_enc_forward(self, *args, **kw)

    def recording_shrink(*args, **kw):
        seen.add(("use_lbm", kw["use_lbm"]))
        return shrink_batch(*args, **kw)

    def recording_noise(tokens, p, rng):
        seen.add(("mt_noise_p", p))
        return noise_inject(tokens, p, rng)

    monkeypatch.setattr(Model, "t_enc_forward", recording_t_enc)
    monkeypatch.setattr(shrink_mod, "shrink_batch", recording_shrink)
    monkeypatch.setattr(model_mod, "noise_inject", recording_noise)
    trained_as = {("use_l2g", False), ("use_lbm", False), ("mt_noise_p", 0.0)}
    for preset in PRESETS:
        target = run if preset == "over-training" else ckpt
        run_preset(preset, target, tmp_path / "rep", n=2, repeats=1)
        assert ("use_l2g", False) in seen and seen <= trained_as, (preset, seen)
        seen.clear()


def test_over_training_names_an_unloadable_checkpoint_once(tmp_path, capsys):
    """A truncated checkpoint is left out of the series and reported once on
    stderr."""
    cfg = ablation_config()
    run = tmp_path / "run"
    run.mkdir()
    for step in (1, 2):
        save_checkpoint(run / f"checkpoint_{step:06d}.stlab", Model(cfg.model, cfg.corpus),
                        extra_meta={"step": step})
    torn = run / "checkpoint_000002.stlab"
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
    paths = run_preset("over-training", run, tmp_path / "rep", n=2, repeats=1)
    assert len(paths) == 2
    for path in paths:
        rows = path.read_text().splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {"1"}
    err = capsys.readouterr().err
    assert err.count(str(torn)) == 1


@pytest.mark.parametrize("damage", ["cut to 16 bytes", "4 trailing bytes", *HEADER_DAMAGE,
                                    "another corpus", "other forward settings"])
def test_over_training_skips_a_cut_or_padded_checkpoint(tmp_path, capsys, damage):
    """A checkpoint cut inside its header length, with bytes after its last
    buffer, with a malformed header, or that differs from the run's first
    checkpoint in its corpus or its forward settings, is skipped with one
    stderr line instead of crashing the preset or loading silently."""
    cfg = ablation_config()
    run = tmp_path / "run"
    run.mkdir()
    for step in (1, 2):
        save_checkpoint(run / f"checkpoint_{step:06d}.stlab", Model(cfg.model, cfg.corpus),
                        extra_meta={"step": step})
    bad = run / "checkpoint_000002.stlab"
    blob = bad.read_bytes()
    if damage in HEADER_DAMAGE:
        damage_header(bad, damage)
    elif damage == "another corpus":
        save_checkpoint(bad, Model(cfg.model, other_corpus(cfg)), extra_meta={"step": 2})
    elif damage == "other forward settings":
        save_checkpoint(bad, build_model(cfg), extra_meta={"step": 2})
    else:
        bad.write_bytes(blob[:16] if damage == "cut to 16 bytes" else blob + b"\0\0\0\0")
    paths = run_preset("over-training", run, tmp_path / "rep", n=2, repeats=1)
    for path in paths:
        rows = path.read_text().splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {"1"}
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line]
    assert len(err_lines) == 1 and str(bad) in err_lines[0]


def test_over_training_refuses_a_run_whose_every_checkpoint_is_skipped(tmp_path, capsys):
    """When no checkpoint of the run loads (here one written before headers
    recorded the forward settings and a torn one), over-training exits 2
    naming the run directory after one stderr line per skipped file, and
    writes no report, as it does for a run directory without checkpoints."""
    cfg = ablation_config()
    run = tmp_path / "run"
    run.mkdir()
    old, torn = run / "checkpoint_000001.stlab", run / "checkpoint_000002.stlab"
    for step, path in enumerate((old, torn), 1):
        save_checkpoint(path, build_model(cfg), extra_meta={"step": step})
    damage_header(old, "no forward settings")
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
    rc = cli.main(["analyze", "--preset", "over-training",
                   "--checkpoint", str(run), "--samples", "2", "--repeats", "1",
                   "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 3 and str(run) in err[-1], err
    assert not (tmp_path / "rep").exists()


def test_over_training_loads_each_checkpoint_once(tmp_path, monkeypatch):
    """Both probe pairs run on one load of each checkpoint."""
    cfg = ablation_config()
    run = tmp_path / "run"
    run.mkdir()
    for step in (1, 2):
        save_checkpoint(run / f"checkpoint_{step:06d}.stlab", Model(cfg.model, cfg.corpus),
                        extra_meta={"step": step})
    loads = Counter()
    load_checkpoint = reports_mod.load_checkpoint

    def counting_load(path):
        loads[path.name] += 1
        return load_checkpoint(path)

    monkeypatch.setattr(reports_mod, "load_checkpoint", counting_load)
    paths = run_preset("over-training", run, tmp_path / "rep", n=2, repeats=1)
    assert len(paths) == 2
    assert loads == {"checkpoint_000001.stlab": 1, "checkpoint_000002.stlab": 1}


def test_over_training_takes_each_step_from_the_checkpoint_header(tmp_path):
    """A series point carries the step its checkpoint's header records, not
    the one in its file name, and the rows are ordered by that step."""
    cfg = ablation_config()
    run = tmp_path / "run"
    run.mkdir()
    for name_step, step in ((1, 30), (2, 20)):
        save_checkpoint(run / f"checkpoint_{name_step:06d}.stlab", Model(cfg.model, cfg.corpus),
                        extra_meta={"step": step})
    for path in run_preset("over-training", run, tmp_path / "rep", n=2, repeats=1):
        steps = [row.split(",")[0] for row in path.read_text().splitlines()[1:]]
        assert steps == sorted(steps) and set(steps) == {"20", "30"}, path


def test_analysis_refuses_a_checkpoint_without_forward_settings(tmp_path, capsys):
    """Every single-checkpoint preset raises ValueError naming a checkpoint
    whose header lacks the forward settings (as every one written before
    headers recorded them does), which the CLI reports with exit code 2,
    instead of probing it with the default toggles."""
    ckpt = tmp_path / "checkpoint_000001.stlab"
    save_checkpoint(ckpt, build_model(ablation_config()), extra_meta={"step": 1})
    damage_header(ckpt, "no forward settings")
    for preset in PRESETS:
        if preset != "over-training":
            with pytest.raises(ValueError, match=str(ckpt)):
                run_preset(preset, ckpt, tmp_path / "rep", n=2, repeats=1)
            rc = cli.main(["analyze", "--preset", preset,
                           "--checkpoint", str(ckpt), "--out", str(tmp_path / "cli")])
            assert rc == 2 and str(ckpt) in capsys.readouterr().err, preset


def test_a_refused_checkpoint_leaves_no_report_directory(tmp_path, capsys):
    """The checkpoint loads before the output directory is made: a torn one
    leaves no empty report directory, from the presets or the CLI; nor does
    over-training on a run directory without checkpoints."""
    ckpt = tmp_path / "checkpoint_000001.stlab"
    save_checkpoint(ckpt, build_model(ablation_config()), extra_meta={"step": 1})
    ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
    for preset in PRESETS:
        if preset != "over-training":
            with pytest.raises(ValueError, match=str(ckpt)):
                run_preset(preset, ckpt, tmp_path / "rep", n=2, repeats=1)
            rc = cli.main(["analyze", "--preset", preset,
                           "--checkpoint", str(ckpt), "--out", str(tmp_path / "cli")])
            assert rc == 2 and str(ckpt) in capsys.readouterr().err, preset
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError, match="no checkpoints"):
        run_preset("over-training", tmp_path / "empty", tmp_path / "ot", n=2, repeats=1)
    assert not any((tmp_path / name).exists() for name in ("rep", "cli", "ot"))


def test_write_csv_round_trips_through_read_csv(tmp_path):
    """A float cell reads back equal to the float written; None, int and
    str cells read back as their str. Rows are keyed by their line."""
    floats = [0.1, 1 / 3, 1e-300, -2.5e17, 123456789.123456789, 5e-324]
    rows = [(i, "T-Enc", None, x) for i, x in enumerate(floats)]
    path = write_csv(tmp_path / "r.csv", ("step", "partition", "layer", "mean"), rows)
    header, by_line = read_csv(path)
    assert header == ["step", "partition", "layer", "mean"]
    assert list(by_line) == list(range(2, 2 + len(floats)))
    read = list(by_line.values())
    assert [float(r["mean"]) for r in read] == floats
    assert [(r["step"], r["partition"], r["layer"]) for r in read] == \
        [(str(i), "T-Enc", "None") for i in range(len(floats))]


# one small report per chart kind, and the sha256 of the SVG it draws
CHART_CSVS = {
    "weights": "step,task,m,w\n10,asr,0.5,1.0\n10,mt,0.25,0.75\n20,asr,0.5,1.25\n20,mt,0.125,0.5\n",
    "consistency": ("partition,kind,layer,mean,std\nA-Enc,ATTEN,None,-0.25,0.1\n"
                    "A-Enc,FFN,None,0.5,0.1\nDecoder,ATTEN,None,0.75,0.2\nT-Enc,FFN,None,0.125,0.05\n"),
    "variants": ("variant,partition,kind,layer,mean,std\nctc,A-Enc,ATTEN,None,0.25,0.1\n"
                 "ctc,A-Enc,FFN,None,-0.5,0.1\nce,A-Enc,ATTEN,None,0.125,0.1\n"
                 "ce,Decoder,FFN,None,0.875,0.1\n"),
    "entropy": "layer,stream,entropy_bits\n0,mt,2.5\n1,mt,2.25\n0,st_plain,3.5\n1,st_plain,3.0\n",
    "shrink": "step,batch,n_mean,m_mean,ratio\n40,0,13.5,4.0,0.3\n40,1,12.8125,4.5,0.35\n",
    "over-training": ("step,partition,kind,layer,mean\n10,T-Enc,ATTEN,None,0.25\n"
                      "10,T-Enc,FFN,None,0.5\n20,T-Enc,ATTEN,None,0.375\n20,T-Enc,FFN,None,0.25\n"),
}
CHART_SHA256 = {
    "weights": "2b53cc4aace27368d71d294e3b375f1b9c1f97aa1ab19d9a711298d9c47f457c",
    "consistency": "abf3378ba7316ef153cdd3c7a6bf6b896e1f9e2756f2901b0721d4dab71676a7",
    "variants": "8128f07287128b0fd6162d482a52a667a47706183851696ed642280b139eacc2",
    "entropy": "c27837f43730a37c3fcbde82f0e805dc94f65586071ed235d44b270b6a66c8f3",
    "shrink": "dfe353449774664bc0e8b8d34da3facffc4d9dbacc8e0d1f87c483eedbff09cd",
    "over-training": "e49a4a3870ab29357fedab8070dc970c7a597610ec76110639f367494dc0bae6",
}


@pytest.mark.parametrize("kind", CHART_CSVS)
def test_every_chart_kind_draws_pinned_bytes(tmp_path, kind):
    """Identical input draws a byte-identical SVG: each chart kind's bytes
    are pinned by their sha256, and the cases cover every kind."""
    assert len(CHART_CSVS) == len(CHARTS)
    path = tmp_path / f"{kind}.csv"
    path.write_text(CHART_CSVS[kind])
    assert hashlib.sha256(export_plot(path).encode()).hexdigest() == CHART_SHA256[kind]


def test_bars_follow_the_order_the_rows_name_them(tmp_path):
    """Twelve T-Enc layers draw as T-Enc/0 ... T-Enc/11, in numeric order."""
    rows = [("T-Enc", kind, layer, layer / 12, 0.0)
            for kind in ("ATTEN", "FFN") for layer in range(12)]
    path = write_csv(tmp_path / "consistency_layers_mt_st.csv",
                     ("partition", "kind", "layer", "mean", "std"), rows)
    labels = re.findall(r">(T-Enc/\d+)</text>", export_plot(path))
    assert labels == [f"T-Enc/{layer}" for layer in range(12)]
