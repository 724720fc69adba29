"""Tests of the benchmark itself: span arithmetic, the printed result of a
tiny run of every workload, and how failed operations are counted.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer as tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0], ["b", 11.0, 12.0, -1]]
    summary = tracing.summarise(spans)
    assert summary["a"] == (1, pytest.approx(3.0))
    assert summary["b"] == (2, pytest.approx(3.0))
    assert summary["c"] == (1, pytest.approx(1.0))
    assert summary["d"] == (1, pytest.approx(4.0))


def test_tracer_nests_spans_and_restores_patches():
    def inner():
        return 1

    owner = SimpleNamespace(inner=inner)
    tr = tracing.Tracer()
    patches = tracing.Patches()
    patches.replace(owner, "inner", tracing.spanned(tr, "inner"))
    idx = tr.open("outer")
    assert owner.inner() == 1
    tr.close(idx)
    patches.restore()
    assert owner.inner is inner
    assert [(name, parent) for name, _, _, parent in tr.spans] == [("outer", -1), ("inner", 0)]


def test_train_times_normalise_each_piece_by_the_speed_next_to_it(monkeypatch):
    monkeypatch.setattr(run, "SPEED_NOMINAL_MS", 2.0)
    # call [0, 10]; speed probes [1, 2] at 2 ms, [4, 5] at 4 ms, [7, 8] at 2 ms
    cuts = [(1.0, 2.0, 2.0), (4.0, 5.0, 4.0), (7.0, 8.0, 2.0)]
    times = run.train_times(0.0, 10.0, cuts)
    assert times.wall_s == pytest.approx(1 + 2 + 2 + 2)
    # pieces between probes take the mean of their two readings (3 ms)
    assert times.steps == [(pytest.approx(2.0), pytest.approx(4 / 3)),
                           (pytest.approx(2.0), pytest.approx(4 / 3))]
    assert times.norm_wall_s == pytest.approx(1 * 2 / 2 + 2 * 2 / 3 + 2 * 2 / 3 + 2 * 2 / 2)
    assert run.train_times(0.0, 3.0, []) == run.TrainTimes(3.0, 3.0, [])


def result_of(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_without_failures(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace and workload == "train-multitask":
        assert result["metrics"]["model.a_enc_forward_calls"]["value"] == pytest.approx(2, abs=0.1)
        assert result["metrics"]["losses.ctc_loss_calls"]["value"] == 32
    if trace and workload == "train-st-only":
        assert result["metrics"]["model.a_enc_forward_calls"]["value"] == pytest.approx(1, abs=0.1)
        assert result["metrics"]["losses.ctc_loss_calls"]["value"] == 0


@pytest.fixture(scope="module")
def mods():
    return run.import_stlab()


def test_raising_probe_counts_as_failed_operation(mods, monkeypatch):
    loop = run.Loop(mods, "impact-probe", 7)

    def make_probe_fn(*args):
        def probe():
            raise RuntimeError("probe broke")
        return probe

    monkeypatch.setattr(mods["train"], "make_probe_fn", make_probe_fn)
    loop.op()
    assert (loop.attempted, loop.failed) == (1, 1)
    assert loop.op_ms == []


def test_output_off_reference_fails_the_check():
    ref = {"losses": {"st": 3.0, "asr": None, "total": 4.0}, "st_greedy_accuracy": 0.5}
    tol = {"loss_rtol": 1e-6, "accuracy_atol": 0.02}
    run.check_train({"losses": {"st": 3.0, "asr": None, "total": 4.0},
                     "st_greedy_accuracy": 0.51}, ref, tol)
    for bad in ({"st": 3.001, "asr": None, "total": 4.0},
                {"st": float("nan"), "asr": None, "total": 4.0},
                {"st": 3.0, "asr": 1.0, "total": 4.0}):
        with pytest.raises(run.Failure):
            run.check_train({"losses": bad, "st_greedy_accuracy": 0.5}, ref, tol)
    with pytest.raises(run.Failure):
        run.check_probe({"asr": 0.5, "mt": 0.7}, {"asr": 0.5, "mt": 0.71}, {"impact_rtol": 1e-6})


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "impact-probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
