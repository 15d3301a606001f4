"""What BENCHMARK.json declares, and the environment every workload runs in.

It imports no numpy, so that run.py can pin the environment before numpy
loads OpenBLAS.
"""
from __future__ import annotations

import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# BLAS threads and the convergence sweep's worker processes, all set to 1
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FRACCAPUTO_JOBS")
