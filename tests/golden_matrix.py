"""The golden-artifact matrix: small runs, every analysis report and chart,
and the toy run, whose bytes pin what stlab writes. `tests/golden/
manifest.json` records the sha256 of each artifact and the platform that
wrote them; for a JSON-lines file it also records a short digest per row,
so a mismatch names the first row that differs.

A change that alters an artifact on purpose regenerates the manifest:

    PYTHONPATH=src python tests/golden_matrix.py

which builds the matrix and trains the 4000-step toy run (about 2 minutes
on one BLAS thread), then rewrites the manifest.
"""

import os

# one BLAS thread, as tests/conftest.py pins for Tier-1; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import hashlib
import json
import platform
import shutil
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from stlab import cli
from stlab.config import default_config, with_seed
from stlab.reports import PRESETS
from stlab.train import train

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"


def platform_info():
    """The Python, numpy and BLAS that write the artifacts."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas['name']} {blas['version']}", "machine": platform.machine(),
            "numpy": np.__version__, "python": platform.python_version()}


def build_matrix(root):
    """Train the matrix's runs and write every report and chart under
    `root`. Returns {artifact name: path} for every file written but the
    wall-clock timings.

    The runs: a 40-step seed-7 run with four probes, evals and checkpoints;
    the same run resumed in place from step 20; and 12-step runs with the
    `ce` ASR, without the L2G extractors, and with every toggle off, each
    with its weight-history chart. The reports: every analyze preset on the
    step-40 checkpoint (over-training on the run), each CSV with its chart,
    and export-corpus."""
    root = Path(root)
    cfg = with_seed(default_config(steps=40, eval_every=10, checkpoint_every=10), 7)
    cfg = dataclasses.replace(cfg, scheduler=dataclasses.replace(
        cfg.scheduler, update_every=10, k=2, prune_threshold=0.9))
    main = root / "main"
    train(cfg, main)
    shutil.copytree(main, root / "resumed")
    train(cfg, root / "resumed", resume_from=root / "resumed" / "checkpoint_000020.stlab")
    short = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, steps=12))
    off = {f.name: False for f in dataclasses.fields(cfg.toggles) if f.name.startswith("use_")}
    for name, toggles in (("ce", {"asr_variant": "ce"}), ("no_l2g", {"use_l2g": False}),
                          ("all_off", {**off, "shrink_warmup_fraction": 1.0})):
        train(dataclasses.replace(short, toggles=dataclasses.replace(cfg.toggles, **toggles)),
              root / name)

    reports = root / "reports"
    commands = [["analyze", "--preset", preset, "--samples", "4", "--repeats", "2",
                 "--checkpoint", str(main if preset == "over-training"
                                     else main / "checkpoint_000040.stlab"),
                 "--out", str(reports)] for preset in PRESETS]
    commands.append(["export-corpus", "--config", str(main / "config.json"),
                     "--out", str(reports)])
    with redirect_stdout(StringIO()):  # each command prints the files it wrote
        for argv in commands:
            if cli.main(argv) != 0:
                raise RuntimeError(f"stlab {' '.join(argv)} failed")
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "timings.jsonl"}


def toy_artifacts(result):
    """The toy run's artifacts, from its TrainResult."""
    return {"toy/metrics.jsonl": result.metrics_path,
            "toy/weight_history.csv": result.weight_history_path}


def digest(path):
    """The sha256 of a file and, for JSON lines, an 8-hex digest per row."""
    data = Path(path).read_bytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if str(path).endswith(".jsonl"):
        entry["rows"] = " ".join(hashlib.sha256(row).hexdigest()[:8]
                                 for row in data.splitlines())
    return entry


def mismatches(recorded, paths):
    """One line per artifact that differs from `recorded` ({name: digest}),
    is missing, or is not recorded; a JSON-lines file also names its first
    differing row and prints it."""
    lines = []
    for name in sorted(recorded.keys() | paths.keys()):
        if name not in paths or name not in recorded:
            lines.append(f"{name}: {'missing' if name not in paths else 'not in the manifest'}")
            continue
        now, then = digest(paths[name]), recorded[name]
        if now["sha256"] == then["sha256"]:
            continue
        line = f"{name}: sha256 {now['sha256'][:16]}, recorded {then['sha256'][:16]}"
        if "rows" in now:
            rows_now, rows_then = now["rows"].split(), then["rows"].split()
            i = next((i for i, (a, b) in enumerate(zip(rows_now, rows_then)) if a != b),
                     min(len(rows_now), len(rows_then)))
            text = Path(paths[name]).read_text().splitlines()
            line += (f"; first differing row {i + 1} of {len(rows_now)} "
                     f"(recorded {len(rows_then)}): {text[i] if i < len(text) else '(none)'}")
        lines.append(line)
    return lines


def write_manifest():
    with tempfile.TemporaryDirectory() as tmp:
        paths = build_matrix(Path(tmp) / "matrix")
        paths.update(toy_artifacts(train(default_config(), Path(tmp) / "toy")))
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps(
            {"platform": platform_info(),
             "artifacts": {name: digest(path) for name, path in paths.items()}},
            indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}: {len(paths)} artifacts")


if __name__ == "__main__":
    write_manifest()
