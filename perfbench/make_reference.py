"""Write the outputs every benchmark operation is checked against.

    python3 perfbench/make_reference.py FIRST_SEED LAST_SEED

For each seed it records the final-step losses and eval accuracy of one
train() call per training workload, and the per-task impacts of each of the
PROBE_POINTS probe steps. Seeds already in reference.json are kept unless
recomputed. The seeds in the file are the config seeds every benchmark run
draws from (``run.config_seeds``). Regenerate only when a change is meant to move these numbers,
and say why in that change.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import run

TOLERANCES = {
    # after TRAIN_STEPS Adam steps, reordered float sums differ by far less
    "loss_rtol": 1e-6,
    # one eval token is about 0.014 of the 16-sentence eval batch
    "accuracy_atol": 0.02,
    "impact_rtol": 1e-6,
}


def outcomes(mods, seed: int) -> dict:
    out = {}
    for workload in ("train-multitask", "train-st-only"):
        cfg = run.workload_config(mods, workload, seed)
        _, row = run.train_op(mods, cfg, SimpleNamespace(cuts=[]))
        out[workload] = run.train_outcome(row)
    cfg = run.workload_config(mods, "impact-probe", seed)
    model = mods["train"].build_model(cfg)
    out["impact-probe"] = [run.probe_op(mods, cfg, model, i)[1]
                           for i in range(1, run.PROBE_POINTS + 1)]
    return out


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    path = run.HERE / "reference.json"
    try:
        with open(path) as fh:
            seeds = json.load(fh)["seeds"]
    except FileNotFoundError:
        seeds = {}
    mods = run.import_stlab()
    run.WORK.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        seeds[str(seed)] = outcomes(mods, seed)
        print(f"seed {seed} done", file=sys.stderr)
    head = {"train_steps": run.TRAIN_STEPS, "probe_points": run.PROBE_POINTS,
            "tolerances": TOLERANCES}
    rows = [f" {json.dumps(seed)}: {json.dumps(seeds[seed], sort_keys=True)}"
            for seed in sorted(seeds, key=int)]
    with open(path, "w") as fh:  # one line per seed
        fh.write(json.dumps(head)[:-1] + ', "seeds": {\n' + ",\n".join(rows) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
