"""The stlab names the benchmark harness looks up.

perfbench/run.py calls a few stlab functions directly, and its tracer
(perfbench/tracer.py) replaces functions and methods by name. A rename or
deletion of any of them breaks the benchmark, so this checks that the
tracer attaches to this tree and detaches again, and that the directly
called names exist.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# the stlab modules perfbench/run.py loads, by the short names it uses
MODULES = ("autograd", "data", "losses", "model", "optim", "shrink",
           "scheduler", "analysis", "train", "config")
CALLED = {"train": ("train", "batch_for_step", "make_probe_fn", "make_task_weights",
                    "build_model", "eval_batch"),
          "scheduler": ("schedule_step",),
          "config": ("with_seed", "default_config")}


@pytest.fixture()
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_on_stlab(tracing):
    mods = {name: importlib.import_module(f"stlab.{name}") for name in MODULES}
    owners = [mods["autograd"].Tensor, mods["model"].Model, mods["optim"].Adam, *mods.values()]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, mods)
    try:
        mods["autograd"].Tensor([1.0])
        assert tracer.counts["autograd.tensors"] == 1
        assert any(dict(vars(o)) != b for o, b in zip(owners, before))
    finally:
        patches.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_names_the_benchmark_calls_exist():
    missing = [f"{module}.{name}" for module, names in CALLED.items() for name in names
               if not callable(getattr(importlib.import_module(f"stlab.{module}"), name, None))]
    assert not missing
