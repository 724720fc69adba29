"""The seed sweep script (tests/sweep.py) in both of its modes, on 3-step
runs at two seeds."""

import json
import shutil

import pytest

import sweep

# appended to the parent tree's train.py: the run, then its step-2 metrics
# row with the total loss moved, as a change that moves one row would
MOVE_ROW_2 = '''

_train = train


def train(config, out_dir, resume_from=None):
    result = _train(config, out_dir, resume_from)
    rows = result.metrics_path.read_text().splitlines()
    row = json.loads(rows[1])
    row["losses"]["total"] += 0.5
    rows[1] = json.dumps(row, sort_keys=True)
    result.metrics_path.write_text("\\n".join(rows) + "\\n")
    return result
'''


def test_the_sweep_names_a_changed_metrics_row_as_the_first_differing_step(tmp_path):
    """Reference mode writes one summary per seed; against a parent tree
    whose step-2 row differs, each seed reports step 2 as the first whose
    losses differ, the loss gap, and every eval, pruned set and length
    ratio equal. The change side summarises as the reference run did."""
    argv = ["--seeds", "1", "2", "--steps", "3"]
    sweep.main([*argv, "--out", str(tmp_path / "ref.json")])
    ref = json.loads((tmp_path / "ref.json").read_text())
    assert set(ref) == {"what", "command", "commits", "seeds"}
    assert ref["command"].startswith("python tests/sweep.py --seeds 1 2")
    assert set(ref["seeds"]) == {"1", "2"}
    for entry in ref["seeds"].values():
        assert set(entry) == {"eval_3", "last10_evals", "last10_below_0.90", "total_loss_3",
                              "length_ratio_3", "prune_steps", "wall_s"}
        assert entry["last10_evals"] == [entry["eval_3"]]

    parent = tmp_path / "parent" / "src"
    shutil.copytree(sweep.CHANGE_SRC / "stlab", parent / "stlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(parent / "stlab" / "train.py", "a") as fh:
        fh.write(MOVE_ROW_2)
    sweep.main([*argv, "--parent-src", str(parent), "--out", str(tmp_path / "ab.json")])
    ab = json.loads((tmp_path / "ab.json").read_text())
    assert ab["commits"]["parent"] is None  # a tree outside any checkout
    for seed, entry in ab["seeds"].items():
        assert entry["first_step_losses_differ"] == 2, seed
        assert entry["total_loss_max_abs_gap"] == pytest.approx(0.5)
        assert entry["all_evals_equal"] and entry["n_evals"] == 1
        assert entry["pruned_equal"] and entry["length_ratio_equal"]
        strip = [{k: v for k, v in e.items() if k != "wall_s"}
                 for e in (entry["change"], ref["seeds"][seed])]
        assert strip[0] == strip[1]
