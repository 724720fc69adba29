"""Analysis presets probe a checkpoint under its run's toggles."""

import stlab.model as model_mod
import stlab.shrink as shrink_mod
from stlab.config import RunConfig, Toggles
from stlab.data import CorpusConfig
from stlab.model import Model, ModelConfig, save_checkpoint
from stlab.reports import PRESETS, run_preset, shrink_eval


def ablation_config():
    corpus = CorpusConfig(vocab_size=5, max_src_len=3, seed=3)
    model = ModelConfig(d_model=16, n_heads=2, ffn_dim=24,
                        frame_dim=corpus.frame_dim,
                        vocab_size_src=corpus.n_symbols,
                        vocab_size_tgt=corpus.n_symbols,
                        ctc_classes=corpus.vocab_size + 1, seed=3)
    return RunConfig(corpus=corpus, model=model,
                     toggles=Toggles(use_l2g=False, use_lbm=False))


def test_every_load_applies_the_run_toggles(tmp_path, monkeypatch):
    """A use_l2g=False, use_lbm=False run is analysed without extractors,
    without look-back, and with MT on clean text, as it was trained."""
    cfg = ablation_config()
    run = tmp_path / "run"
    run.mkdir()
    ckpt = run / "checkpoint_000001.stlab"
    save_checkpoint(ckpt, Model(cfg.model), extra_meta={"step": 1})

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
        run_preset(preset, cfg, target, tmp_path / "rep", n=2, repeats=1)
        assert ("use_l2g", False) in seen and seen <= trained_as, (preset, seen)
        seen.clear()
    shrink_eval(cfg, ckpt, tmp_path / "shrink_eval.csv", batches=1, batch_size=2)
    assert seen == {("use_l2g", False), ("use_lbm", False)}


def test_over_training_names_an_unloadable_checkpoint_once(tmp_path, capsys):
    """A truncated checkpoint is left out of the series and reported once on
    stderr, though both probe pairs meet it."""
    cfg = ablation_config()
    run = tmp_path / "run"
    run.mkdir()
    for step in (1, 2):
        save_checkpoint(run / f"checkpoint_{step:06d}.stlab", Model(cfg.model),
                        extra_meta={"step": step})
    torn = run / "checkpoint_000002.stlab"
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
    paths = run_preset("over-training", cfg, run, tmp_path / "rep", n=2, repeats=1)
    assert len(paths) == 2
    for path in paths:
        rows = path.read_text().splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {"1"}
    err = capsys.readouterr().err
    assert err.count(str(torn)) == 1
