"""The quick demos run to completion against the package in src/, and every
demo imports only names the package has."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ("01_autodiff_basics.py", "02_synthetic_corpus.py",
               "03_ctc_and_shrinking.py")


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_quick_demo_exits_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_demo_import_from_stlab_resolves():
    """Every name a demo imports from stlab, and every attribute it reads off
    an imported stlab module, exists; the slow demos are parsed, not run."""
    missing = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(demo.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "stlab":
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(owner, alias.name):
                        missing.append(f"{demo.name}: {node.module}.{alias.name}")
                    elif inspect.ismodule(getattr(owner, alias.name)):
                        modules[alias.asname or alias.name] = getattr(owner, alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)):
                missing.append(f"{demo.name}: {node.value.id}.{node.attr}")
    assert not missing
