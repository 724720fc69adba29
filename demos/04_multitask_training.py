"""A short multi-task training run: watch the weighted losses, the impact
schedule pruning the auxiliary tasks, and the shrink ratio settling.

Run:  python demos/04_multitask_training.py   (about a minute)
"""

import json
import tempfile
from pathlib import Path

from stlab.config import (CorpusConfig, ModelConfig, RunConfig, SchedulerConfig,
                          TrainingConfig, Toggles)
from stlab.train import train

corpus = CorpusConfig(vocab_size=10, max_src_len=5, seed=1)
config = RunConfig(
    corpus=corpus,
    model=ModelConfig(seed=1),  # its sizes come from the corpus
    scheduler=SchedulerConfig(update_every=100, k=8),
    training=TrainingConfig(steps=600, batch_size=16, eval_every=100,
                            eval_batch_size=16, checkpoint_every=300, seed=1),
    toggles=Toggles(shrink_warmup_fraction=0.25),
)

with tempfile.TemporaryDirectory() as out:
    result = train(config, out)
    rows = [json.loads(ln) for ln in Path(result.metrics_path).read_text().splitlines()]
    print(f"{'step':>5} {'total':>8} {'st':>7} {'weights':>24} {'ratio':>7} {'acc':>6}")
    for r in rows[::100] + [rows[-1]]:
        w = ",".join(f"{t}={v:.2f}" for t, v in r["task_weights"].items()
                     if v is not None)
        ratio = f"{r['length_ratio']:.3f}" if r["length_ratio"] else "-"
        acc = f"{r['st_greedy_accuracy']:.3f}" if r["st_greedy_accuracy"] is not None else "-"
        print(f"{r['step']:>5} {r['losses']['total']:>8.3f} "
              f"{r['losses']['st']:>7.3f} {w:>24} {ratio:>7} {acc:>6}")
    print(f"\npruned tasks: {rows[-1]['pruned']}")
    print(f"final greedy accuracy {result.final_accuracy:.3f} "
          f"(copy baseline {result.copy_baseline:.3f})")
    print("\nweight schedule history:")
    print(Path(result.weight_history_path).read_text())
