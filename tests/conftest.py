"""Tier-1 runs BLAS on one thread per process, as the benchmark does
(`perfbench/run.py`): the trainer and its step worker share two CPUs, which
BLAS's own threads would oversubscribe. The setting must be made before
numpy is imported; pytest and hypothesis do not import it."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
