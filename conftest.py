"""Pytest set-up shared by `tests` and `perfbench`: one BLAS thread, as
`perfbench/run.py` runs, set before numpy loads unless the environment
names another count. Process CPU time then counts this process's work only,
and the timing tests can bound it by the wall time."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
