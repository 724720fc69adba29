"""Config serialization strictness and the command-line surface."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from stlab import cli
from stlab.config import (ConfigError, RunConfig, SchedulerConfig,
                          TrainingConfig, Toggles, config_from_dict,
                          config_to_json, default_config, load_config,
                          save_config, with_seed)
from stlab.data import CorpusConfig, make_batch
from stlab.model import ModelConfig, load_checkpoint, save_checkpoint
from stlab.train import build_model, train


def tiny_run_config(steps=6):
    corpus = CorpusConfig(vocab_size=5, max_src_len=3, seed=4)
    model = ModelConfig(d_model=16, n_heads=2, ffn_dim=24, seed=4)
    return RunConfig(corpus=corpus, model=model,
                     scheduler=SchedulerConfig(update_every=3, k=2),
                     training=TrainingConfig(steps=steps, batch_size=3,
                                             eval_every=3, eval_batch_size=3,
                                             checkpoint_every=3, seed=4),
                     toggles=Toggles(shrink_warmup_fraction=0.5))


# -- config ---------------------------------------------------------------


def test_roundtrip(tmp_path):
    cfg = default_config()
    path = tmp_path / "c.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_json_is_canonical():
    cfg = default_config()
    doc = config_to_json(cfg)
    assert doc.endswith("\n")
    assert json.loads(doc) == json.loads(config_to_json(cfg))
    keys = list(json.loads(doc))
    assert keys == sorted(keys)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"corpsu": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"training": {"stepz": 10}})


def test_old_model_size_keys_rejected():
    """The corpus alone sets the model's sizes, and the model has no
    dropout; a config that still sets them in the model section is
    rejected."""
    for key in ("frame_dim", "vocab_size_src", "vocab_size_tgt", "ctc_classes", "dropout"):
        with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
            config_from_dict({"model": {key: 8}})


def test_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


# a value of every JSON type, with the annotations that take it
JSON_VALUES = [(True, {"bool"}), (3, {"int", "float"}), (0.5, {"float"}), ("x", {"str"}),
               (None, set()), ([], set()), ({}, set())]
SECTION_FIELDS = [(section.name, f) for section in dataclasses.fields(RunConfig)
                  for f in dataclasses.fields(section.default_factory)]


@pytest.mark.parametrize("section,field", SECTION_FIELDS,
                         ids=[f"{s}.{f.name}" for s, f in SECTION_FIELDS])
def test_every_field_rejects_a_wrong_json_type(section, field):
    """A JSON value of a type the field's annotation does not take (a bool
    for a number, a number for a bool or a string, a string for a number, a
    null, an array or an object) is a config error naming the field."""
    for value, takes in JSON_VALUES:
        if field.type not in takes:
            with pytest.raises(ConfigError, match=f"{section}: {field.name} must be of type"):
                config_from_dict({section: {field.name: value}})


def test_toggles_validation():
    with pytest.raises(ConfigError):
        Toggles(asr_variant="lattice")


def test_with_seed_overrides_everywhere():
    cfg = with_seed(default_config(), 99)
    assert cfg.corpus.seed == 99
    assert cfg.model.seed == 99
    assert cfg.training.seed == 99


def test_model_sizes_come_from_the_corpus():
    assert default_config(steps=10).training.steps == 10
    cfg = config_from_dict({"corpus": {"frame_dim": 8, "vocab_size": 7}})
    model = build_model(cfg)
    n_symbols = 7 + 3  # blank + content + pad + bos
    assert model.in_proj.w.shape == (8, cfg.model.d_model)
    assert model.ctc_head.w.shape == (cfg.model.d_model, 7 + 1)
    assert model.src_embed.shape == model.tgt_embed.shape == (n_symbols, cfg.model.d_model)
    assert model.out_proj.w.shape == (cfg.model.d_model, n_symbols)
    batch = make_batch(cfg.corpus, [1, 2])
    logits = model.forward_task(batch, "st").logits
    assert logits.shape == batch.tgt_tokens.shape + (n_symbols,)


# -- CLI --------------------------------------------------------------------


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "tiny.json"
    save_config(tiny_run_config(), path)
    return path


def test_cli_train_and_outputs(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "metrics.jsonl").exists()
    assert (out / "weight_history.csv").exists()
    assert (out / "config.json").exists()
    assert "st greedy accuracy" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    """A bad key or value is a config error naming the field, raised when the
    config loads, before any step runs; a count option below 1 is one naming
    the flag, raised before anything is written."""
    bad = tmp_path / "bad.json"
    cases = [({"training": {"bogus": 1}}, "bogus"),
             ({"scheduler": {"exponent_mode": "absolute"}}, "exponent_mode"),
             ({"corpus": {"translation_rule": "fixed-permutation"}}, "translation_rule")]
    cases += [({"scheduler": {name: 0}}, name) for name in ("s_asr", "update_every", "k")]
    cases += [({"training": {name: 0}}, name)
              for name in ("steps", "batch_size", "eval_batch_size", "log_every",
                           "eval_every", "checkpoint_every")]
    cases += [({"scheduler": {"s_mt": -5}}, "s_mt"),
              ({"training": {"learning_rate": -1e-3}}, "learning_rate")]
    cases += [({"toggles": {"mt_noise_p": p}}, "mt_noise_p") for p in (1.0, -0.1)]
    cases += [({"training": {"beta1": 1.0}}, "beta1"), ({"training": {"beta2": 1.0}}, "beta2"),
              ({"training": {"beta1": -0.1}}, "beta1")]
    cases += [({section: {name: v}}, name)
              for section, name in (("training", "warmup_fraction"),
                                    ("toggles", "shrink_warmup_fraction"))
              for v in (float("nan"), -5, float("inf"))]
    cases += [({"toggles": {"asr_variant": "ctc+ce"}}, "asr_variant")]
    # an integer field takes neither a float nor a bool
    cases += [({"training": {"steps": 3.0}}, "steps"), ({"training": {"steps": True}}, "steps"),
              ({"training": {"batch_size": 4.0}}, "batch_size"),
              ({"model": {"n_heads": 2.0}}, "n_heads")]
    # a wrong type in any field, or a value that would fail only once the run
    # is under way
    cases += [({"toggles": {"use_asr": "no"}}, "use_asr"),
              ({"training": {"learning_rate": True}}, "learning_rate"),
              ({"corpus": {"frame_noise_std": True}}, "frame_noise_std"),
              ({"model": {"n_heads": 0}}, "n_heads"),
              ({"model": {"t_enc_layers": 0}}, "t_enc_layers"),
              ({"model": {"a_enc_layers": 0}}, "a_enc_layers"),
              ({"model": {"dec_layers": 0}}, "dec_layers"),
              ({"corpus": {"vocab_size": 0}}, "vocab_size"),
              ({"training": {"seed": -1}}, "seed"),
              ({"scheduler": {"prune_threshold": "x", "update_every": 1}}, "prune_threshold")]
    for doc, field in cases:
        bad.write_text(json.dumps(doc))
        rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and "config error" in err and field in err, doc
        assert not (tmp_path / "o").exists(), doc
    rc = cli.main(["train", "--seed", "-1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1 and "config error" in err and "seed" in err
    assert not (tmp_path / "o").exists()
    # a count option below 1, on a config and checkpoint that would run
    cfg = tmp_path / "tiny.json"
    save_config(tiny_run_config(), cfg)
    ckpt = tmp_path / "checkpoint.stlab"
    save_checkpoint(ckpt, build_model(tiny_run_config()), extra_meta={"step": 0})
    for argv, flag in [(["export-corpus", "--count", "-3"], "--count")] + [
            (["analyze", "--preset", preset, "--checkpoint", str(ckpt), flag, "0"], flag)
            for preset in ("modules-bar", "shrink-eval") for flag in ("--samples", "--repeats")]:
        rc = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and "config error" in err and flag in err, argv
        assert not (tmp_path / "o").exists(), argv


def test_cli_config_error_on_an_overflowing_warmup(tmp_path, capsys):
    """A finite fraction whose product with steps overflows is a config error
    naming the field, before the run directory or config.json is written."""
    bad = tmp_path / "bad.json"
    for doc, field in (({"training": {"warmup_fraction": 1e308, "steps": 2}}, "warmup_fraction"),
                       ({"training": {"steps": 2}, "toggles": {"shrink_warmup_fraction": 1e308}},
                        "shrink_warmup_fraction")):
        bad.write_text(json.dumps(doc))
        rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and "config error" in err and field in err, doc
        assert not (tmp_path / "o").exists(), doc


def test_cli_runtime_error_exit_code(cfg_path, tmp_path, capsys):
    rc = cli.main(["analyze", "--preset", "shrink-eval", "--config", str(cfg_path),
                   "--checkpoint", str(tmp_path / "missing.stlab"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_full_pipeline(cfg_path, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    ckpt = sorted(out.glob("checkpoint_*.stlab"))[-1]
    rep = tmp_path / "rep"
    assert cli.main(["analyze", "--config", str(cfg_path), "--preset",
                     "modules-bar", "--checkpoint", str(ckpt), "--out", str(rep),
                     "--samples", "3", "--repeats", "2"]) == 0
    csvs = list(rep.glob("*.csv"))
    assert csvs
    header = csvs[0].read_text().splitlines()[0]
    assert header == "partition,kind,layer,mean,std"
    series = "step,partition,kind,layer,mean"
    for preset, headers in (
            ("per-layer", {"consistency_layers_asr_st.csv": header,
                           "consistency_layers_mt_st.csv": header}),
            ("asr-variants", {"consistency_asr_variants.csv": "variant," + header}),
            ("shrink-cl", {"consistency_shrink_cl.csv": "variant," + header,
                           "entropy_streams.csv": "layer,stream,entropy_bits"}),
            ("shrink-eval", {"shrink_eval.csv": "step,batch,n_mean,m_mean,ratio"}),
            ("over-training", {"consistency_over_training_asr_st.csv": series,
                               "consistency_over_training_mt_st.csv": series})):
        target = out if preset == "over-training" else ckpt
        assert cli.main(["analyze", "--config", str(cfg_path), "--preset", preset,
                         "--checkpoint", str(target), "--out", str(rep),
                         "--samples", "3", "--repeats", "2"]) == 0, preset
        for name, want in headers.items():
            lines = (rep / name).read_text().splitlines()
            assert lines[0] == want and len(lines) > 1, name
    assert cli.main(["export-corpus", "--config", str(cfg_path),
                     "--out", str(rep), "--count", "5"]) == 0
    assert len((rep / "corpus.jsonl").read_text().splitlines()) == 5
    plots = tmp_path / "plots"
    args = ["export-plots", "--out", str(plots)]
    args += [str(p) for p in rep.glob("*.csv")]
    args.append(str(out / "weight_history.csv"))
    assert cli.main(args) == 0
    for svg in plots.glob("*.svg"):
        text = svg.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_cli_analyze_requires_checkpoint(cfg_path, tmp_path):
    rc = cli.main(["analyze", "--config", str(cfg_path), "--preset",
                   "modules-bar", "--out", str(tmp_path / "rep")])
    assert rc == 1


def test_cli_over_training_refuses_a_checkpoint_file(cfg_path, tmp_path, capsys):
    """over-training's --checkpoint names a run directory: given a checkpoint
    file, it finds no checkpoints in it, exits 2 and writes nothing."""
    ckpt = tmp_path / "checkpoint_000001.stlab"
    save_checkpoint(ckpt, build_model(load_config(cfg_path)), extra_meta={"step": 1})
    rc = cli.main(["analyze", "--config", str(cfg_path), "--preset", "over-training",
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "rep")])
    assert rc == 2 and "no checkpoints found" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_cli_seed_override_changes_run(cfg_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out2),
                     "--seed", "123"]) == 0
    assert (out1 / "metrics.jsonl").read_text() != (out2 / "metrics.jsonl").read_text()


def test_cli_export_plots_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "weird.csv"
    bad.write_text("who,knows\n1,2\n")
    rc = cli.main(["export-plots", "--out", str(tmp_path / "p"), str(bad)])
    assert rc == 2
    assert "unrecognized" in capsys.readouterr().err
    # a row its chart cannot read: a missing column, or a layer that is no
    # number, named by its line, blank lines counted
    for name, text, line in (("no_w.csv", "step,task\n1,asr\n", 2),
                             ("no_mean.csv", "partition,kind,layer\nT-Enc,ATTEN,0\n", 2),
                             ("layer_x.csv", "layer,stream,entropy_bits\nx,mt,1.0\n", 2),
                             ("blank.csv", "layer,stream,entropy_bits\n\nx,mt,1.0\n", 3)):
        bad = tmp_path / name
        bad.write_text(text)
        rc = cli.main(["export-plots", "--out", str(tmp_path / "p"), str(bad)])
        assert rc == 2 and f"{bad}:{line}:" in capsys.readouterr().err, name


def test_cli_export_plots_writes_nothing_when_a_csv_is_bad(tmp_path):
    """Every chart is drawn before --out is made: a CSV it cannot read, here
    the first of two, leaves no directory behind."""
    bad, good = tmp_path / "weird.csv", tmp_path / "weight_history.csv"
    bad.write_text("who,knows\n1,2\n")
    good.write_text("step,task,m,w\n10,asr,0.5,1.0\n")
    out = tmp_path / "plots"
    assert cli.main(["export-plots", "--out", str(out), str(bad), str(good)]) == 2
    assert not out.exists()


def test_cli_export_plots_refuses_two_inputs_with_one_stem(tmp_path, capsys):
    """Two CSVs that would write one SVG are a config error that names both;
    nothing is written."""
    paths = []
    for run in ("r1", "r2"):
        (tmp_path / run).mkdir()
        paths.append(tmp_path / run / "weight_history.csv")
        paths[-1].write_text("step,task,m,w\n10,asr,0.5,1.0\n")
    out = tmp_path / "plots"
    assert cli.main(["export-plots", "--out", str(out), *map(str, paths)]) == 1
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not out.exists()


def test_cli_resume_refuses_a_checkpoint_with_per_tensor_adam_buffers(tmp_path, capsys):
    """A checkpoint written before Adam's flat buffers (a `param_shapes`
    header list, one opt_m_XXXX and opt_v_XXXX buffer per parameter) holds
    no opt_m: --resume exits 2 with one line naming the file and the
    buffer, before the run directory is made, while the analyze presets
    still read the file."""
    cfg = tmp_path / "tiny.json"
    save_config(tiny_run_config(), cfg)
    model = build_model(tiny_run_config())
    ckpt = tmp_path / "old.stlab"
    save_checkpoint(ckpt, model, extra_meta={"step": 3}, extra_buffers={
        "opt_t": np.array([3.0]),
        **{f"opt_{k}_{i:04d}": np.zeros(p.data.shape)
           for k in "mv" for i, p in enumerate(model.parameters())}})
    # the header of such a checkpoint also listed every parameter's shape
    blob = ckpt.read_bytes()[:-hashlib.sha256().digest_size]
    start = len(b"STLAB-CKPT-v1\n") + 8
    end = start + int.from_bytes(blob[start - 8:start], "little")
    header = json.loads(blob[start:end])
    header["param_shapes"] = [list(p.data.shape) for p in model.parameters()]
    text = json.dumps(header, sort_keys=True).encode()
    blob = blob[:start - 8] + len(text).to_bytes(8, "little") + text + blob[end:]
    ckpt.write_bytes(blob + hashlib.sha256(blob).digest())

    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                   "--resume", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and str(ckpt) in err and "opt_m" in err, err
    assert not (tmp_path / "run").exists()
    for argv in (["analyze", "--preset", "modules-bar", "--checkpoint", str(ckpt),
                  "--samples", "2", "--repeats", "1"],
                 ["analyze", "--preset", "shrink-eval", "--checkpoint", str(ckpt),
                  "--samples", "2", "--repeats", "1"]):
        assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0


def _trained_tiny_checkpoint(tmp_path, **toggles):
    """A tiny run of 3 steps under `toggles`; its last checkpoint."""
    config = tiny_run_config(steps=3)
    config = dataclasses.replace(config, toggles=dataclasses.replace(config.toggles, **toggles))
    train(config, tmp_path / "trained")
    return tmp_path / "trained" / "checkpoint_000003.stlab"


@pytest.mark.parametrize("missing", ["step", "task_weights", "opt_t", "opt_t of two entries"])
def test_cli_resume_refuses_a_checkpoint_without_training_state(tmp_path, capsys, missing):
    """A checkpoint without the step (as save_checkpoint(path, model) writes
    one), the task weights or Adam's step count, or with a step count of
    two entries, cannot resume: --resume exits 2 with one line naming the
    file and the field, before the run directory is made."""
    cfg = tmp_path / "tiny.json"
    save_config(tiny_run_config(), cfg)
    ckpt = _trained_tiny_checkpoint(tmp_path)
    model, meta, extra = load_checkpoint(ckpt)
    if missing == "step":
        save_checkpoint(ckpt, model)
    elif missing == "task_weights":
        del meta["task_weights"]
        save_checkpoint(ckpt, model, extra_meta=meta, extra_buffers=extra)
    else:
        extra["opt_t"] = np.array([3.0, 3.0])
        if missing == "opt_t":
            del extra["opt_t"]
        save_checkpoint(ckpt, model, extra_meta=meta, extra_buffers=extra)
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                   "--resume", str(ckpt)])
    err = capsys.readouterr().err
    field = missing.split()[0]
    assert rc == 2 and err.count("\n") == 1 and str(ckpt) in err and field in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("trained_mt", [True, False])
def test_cli_resume_refuses_other_auxiliary_tasks(tmp_path, capsys, trained_mt):
    """A resume trains the auxiliary tasks its checkpoint's task weights
    name: a config that drops MT (which crashed the step worker's hand-off)
    or adds it (which trained without MT under a config saying use_mt) is a
    config error, raised before the run directory is made."""
    ckpt = _trained_tiny_checkpoint(tmp_path, use_mt=trained_mt)
    config = tiny_run_config()
    cfg = tmp_path / "tiny.json"
    save_config(dataclasses.replace(
        config, toggles=dataclasses.replace(config.toggles, use_mt=not trained_mt)), cfg)
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                   "--resume", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1 and str(ckpt) in err, err
    assert not (tmp_path / "run").exists()
