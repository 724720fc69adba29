"""Tier-1 runs BLAS on one thread per process, as the benchmark does
(`perfbench/run.py`): the trainer and its step worker share two CPUs, which
BLAS's own threads would oversubscribe. The setting must be made before
numpy is imported; pytest and hypothesis do not import it."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

import pytest

from stlab.config import default_config
from stlab.train import train


@pytest.fixture(scope="session")
def toy_run(tmp_path_factory):
    """The end-to-end training run of the default config shared by the
    acceptance criteria 7, 8 and 9 and the golden-artifact check."""
    out = tmp_path_factory.mktemp("toy_run")
    config = default_config()
    t0 = time.perf_counter()
    result = train(config, out)
    elapsed = time.perf_counter() - t0
    return config, result, elapsed
