"""Gradient-consistency and attention-entropy analysis on a briefly trained
model: which modules do the tasks agree in, and how concentrated is the
attention on each stream?

Run:  python demos/05_consistency_analysis.py   (about a minute)
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from stlab import analysis
from stlab.config import (CorpusConfig, ModelConfig, RunConfig, SchedulerConfig,
                          TrainingConfig, Toggles)
from stlab.data import make_batch
from stlab.model import load_checkpoint
from stlab.train import train

corpus = CorpusConfig(vocab_size=10, max_src_len=5, seed=2)
config = RunConfig(
    corpus=corpus,
    model=ModelConfig(seed=2),  # its sizes come from the corpus
    scheduler=SchedulerConfig(update_every=10_000),  # keep both tasks alive
    training=TrainingConfig(steps=400, batch_size=16, eval_every=200,
                            eval_batch_size=8, checkpoint_every=400, seed=2),
    toggles=Toggles(shrink_warmup_fraction=0.25),
)

with tempfile.TemporaryDirectory() as out:
    result = train(config, out)
    model, _, _ = load_checkpoint(result.final_checkpoint)

print("gradient consistency (cosine of flattened gradients, same batch):")
for pair, kwargs in (("asr-st", {"probe_kwargs_a": {"asr_variant": "ce",
                                                    "use_shrink": True},
                                 "probe_kwargs_b": {"use_shrink": True}}),
                     ("mt-st", {"probe_kwargs_b": {"use_shrink": True}})):
    rows = analysis.consistency_protocol(model, tuple(pair.split("-")),
                                         n=16, repeats=3, seed=0, **kwargs)
    for r in rows:
        print(f"  {pair:6} {r.partition:8} {r.kind:6} "
              f"mean {r.mean:+.3f}  std {r.std:.3f}")

print("\nattention entropy (bits) per T-Enc layer:")
batch = make_batch(corpus, np.arange(16))
model.apply_toggles(dataclasses.replace(config.toggles, mt_noise_p=0.0))  # clean text
mt = model.forward_task(batch, "mt")
st_plain = model.forward_task(batch, "st")
st_shrunk = model.forward_task(batch, "st", use_shrink=True)
for name, out in (("mt", mt), ("st raw", st_plain), ("st shrunk", st_shrunk)):
    rows = analysis.stream_entropy_report(out.attention_weights, out.tenc_mask, name)
    vals = "  ".join(f"layer {r.layer}: {r.entropy_bits:.2f}" for r in rows)
    print(f"  {name:10} {vals}")
print("\nlower entropy = more concentrated, more text-like attention;")
print("shrinking moves the speech stream toward the text stream.")
