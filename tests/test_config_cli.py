"""Config serialization strictness and the command-line surface."""

import json

import pytest

from stlab import cli
from stlab.config import (ConfigError, RunConfig, SchedulerConfig,
                          TrainingConfig, Toggles, config_from_dict,
                          config_to_json, default_config, load_config,
                          save_config, with_seed)
from stlab.data import CorpusConfig, make_batch
from stlab.model import ModelConfig
from stlab.train import build_model


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
    config loads, before any step runs."""
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
    for doc, field in cases:
        bad.write_text(json.dumps(doc))
        rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and "config error" in err and field in err, doc
        assert not (tmp_path / "o").exists(), doc


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
    rc = cli.main(["shrink-eval", "--config", str(cfg_path),
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
            ("over-training", {"consistency_over_training_asr_st.csv": series,
                               "consistency_over_training_mt_st.csv": series})):
        target = (["--run-dir", str(out)] if preset == "over-training"
                  else ["--checkpoint", str(ckpt)])
        assert cli.main(["analyze", "--config", str(cfg_path), "--preset", preset,
                         *target, "--out", str(rep),
                         "--samples", "3", "--repeats", "2"]) == 0, preset
        for name, want in headers.items():
            lines = (rep / name).read_text().splitlines()
            assert lines[0] == want and len(lines) > 1, name
    assert cli.main(["shrink-eval", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--out", str(rep),
                     "--batches", "2", "--batch-size", "3"]) == 0
    assert (rep / "shrink_eval.csv").read_text().splitlines()[0] == \
        "step,batch,n_mean,m_mean,ratio"
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


def test_cli_over_training_reads_only_run_dir(cfg_path, tmp_path, capsys):
    """over-training takes its run directory from --run-dir alone."""
    rc = cli.main(["analyze", "--config", str(cfg_path), "--preset", "over-training",
                   "--checkpoint", str(tmp_path), "--out", str(tmp_path / "rep")])
    assert rc == 1 and "--run-dir" in capsys.readouterr().err


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
