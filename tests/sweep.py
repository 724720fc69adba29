"""The seed sweep: training runs of `default_config(seed=s)` (the training
seed only, so seed 7 is the toy run's config), one child process per run,
summarised per seed in the layout of `SWEEP_30.json` (`what`, `command`,
`commits`, `seeds`).

Reference mode trains this checkout's `src/` tree at each seed:

    python tests/sweep.py --seeds 0 4 7 --out SWEEP.json

Parent-against-change mode also trains a second `src/` tree (for example a
`git archive` of the parent commit, extracted outside the repository), and
reports per seed whether every eval, pruned set and length ratio is equal at
every step, the largest total-loss gap and the first step whose losses
differ:

    python tests/sweep.py --seeds 0 4 7 --parent-src ../parent/src --out SWEEP.json

Each run has its tree alone on PYTHONPATH and BLAS on one thread, and runs
go one at a time. `--steps` shortens every run (4000 steps take about 2
minutes on a 2-CPU machine). The script itself imports numpy only, never
stlab, so the trees need share only `default_config(**training_fields)`,
`train(config, out_dir)` and the run directory's `config.json` and
`metrics.jsonl`.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CHANGE_SRC = ROOT / "src"
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
# run in the child, under one tree: argv[1] the training fields, argv[2] the run directory
CHILD = """import json, sys
from stlab.config import default_config
from stlab.train import train
train(default_config(**json.loads(sys.argv[1])), sys.argv[2])
"""


def train_run(src, seed, steps, out_dir):
    """Train `seed` under the tree `src` into `out_dir` in a child process;
    returns (metrics rows, the run's eval_every, wall seconds)."""
    fields = {"seed": seed, **({"steps": steps} if steps else {})}
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(Path(src).resolve())}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(fields), str(out_dir)],
                   env=env, cwd=out_dir.parent, check=True)
    wall_s = time.perf_counter() - t0
    rows = [json.loads(line) for line in (out_dir / "metrics.jsonl").read_text().splitlines()]
    eval_every = json.loads((out_dir / "config.json").read_text())["training"]["eval_every"]
    return rows, eval_every, wall_s


def evals(rows, eval_every):
    """The eval of each step that runs one: every eval_every-th and the last."""
    last = rows[-1]["step"]
    return [r["st_greedy_accuracy"] for r in rows
            if r["step"] % eval_every == 0 or r["step"] == last]


def summary(rows, eval_every, wall_s):
    """One run's entry: its final eval, last 10 evals and how many of them
    read below 0.90, its final total loss and length ratio, the first step
    at which each task is pruned, and its wall time."""
    last, tail = rows[-1], evals(rows, eval_every)[-10:]
    prune_steps = {}
    for r in rows:
        for task in r["pruned"]:
            prune_steps.setdefault(task, r["step"])
    step = last["step"]
    return {f"eval_{step}": tail[-1], "last10_evals": tail,
            "last10_below_0.90": sum(e < 0.90 for e in tail),
            f"total_loss_{step}": last["losses"]["total"],
            f"length_ratio_{step}": last["length_ratio"],
            "prune_steps": prune_steps, "wall_s": round(wall_s, 1)}


def _max_gap(pairs):
    return max((abs(a - b) for a, b in pairs if a is not None and b is not None), default=0)


def compare(parent, change, eval_every):
    """How two runs' metrics rows differ, over every logged step."""
    pairs = list(zip(parent, change, strict=True))
    if any(p["step"] != c["step"] for p, c in pairs):
        raise ValueError("the two runs logged different steps")
    weights = [(p["task_weights"][t], c["task_weights"].get(t))
               for p, c in pairs for t in p["task_weights"]]
    return {
        "n_evals": len(evals(parent, eval_every)),
        "all_evals_equal": evals(parent, eval_every) == evals(change, eval_every),
        "pruned_equal": all(p["pruned"] == c["pruned"] for p, c in pairs),
        "length_ratio_equal": all(p["length_ratio"] == c["length_ratio"] for p, c in pairs),
        "length_ratio_max_abs_gap": _max_gap((p["length_ratio"], c["length_ratio"])
                                             for p, c in pairs),
        "total_loss_max_abs_gap": _max_gap((p["losses"]["total"], c["losses"]["total"])
                                           for p, c in pairs),
        "task_weight_max_rel_gap": max((abs(a - b) / abs(a) for a, b in weights
                                        if a and b is not None), default=0),
        "first_step_losses_differ": next((p["step"] for p, c in pairs
                                          if p["losses"] != c["losses"]), None),
    }


def commit(src):
    """The commit of the checkout that holds `src` (with "+dirty" when its
    files differ from it), or None when `src` is not in a checkout's root."""
    root = Path(src).resolve().parent
    if not (root / ".git").exists():
        return None
    git = ["git", "-C", str(root)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    dirty = subprocess.run([*git, "status", "--porcelain", "--", str(src)],
                           capture_output=True, text=True, check=True).stdout.strip()
    return head + ("+dirty" if dirty else "")


def sweep(seeds, steps, parent_src, work):
    """{seed: entry} for every seed: the change tree's summary, or with a
    parent tree both summaries and their comparison."""
    entries = {}
    for seed in seeds:
        runs = {}
        for side, src in (("parent", parent_src), ("change", CHANGE_SRC)):
            if src is not None:
                out_dir = Path(work) / f"{side}_{seed}"
                runs[side] = train_run(src, seed, steps, out_dir)
                print(f"seed {seed} {side}: {runs[side][2]:.1f} s", file=sys.stderr)
        if parent_src is None:
            entries[str(seed)] = summary(*runs["change"])
        else:
            (p_rows, eval_every, _), (c_rows, _, _) = runs["parent"], runs["change"]
            entries[str(seed)] = {"parent": summary(*runs["parent"]),
                                  "change": summary(*runs["change"]),
                                  **compare(p_rows, c_rows, eval_every)}
    return entries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 4, 7])
    parser.add_argument("--steps", type=int, default=None,
                        help="training steps of every run (default: the config's)")
    parser.add_argument("--parent-src", type=Path, default=None,
                        help="a second src/ tree to compare this checkout's against")
    parser.add_argument("--out", type=Path, required=True, help="the JSON to write")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        seeds = sweep(args.seeds, args.steps, args.parent_src, work)
    sides = "the parent tree and this checkout" if args.parent_src else "this checkout"
    steps = f", steps={args.steps}" if args.steps else ""
    what = (f"Training runs of default_config(seed=s{steps}) at seeds "
            f"{', '.join(map(str, args.seeds))}, on {sides}, one child process per run, "
            f"BLAS on 1 thread, one run at a time, on {platform.machine()} with "
            f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy "
            f"{np.__version__}. wall_s is one run each and is not a speed claim.")
    commits = {"change": commit(CHANGE_SRC)}
    if args.parent_src:
        commits = {"parent": commit(args.parent_src), **commits}
    args.out.write_text(json.dumps(
        {"what": what, "command": " ".join(["python", "tests/sweep.py", *(argv or sys.argv[1:])]),
         "commits": commits, "seeds": seeds}, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
