"""The machine block recorded with every result."""
from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

from spec import PINNED_ENV


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Size of each cache level cpu0 sees, as the kernel reports it."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def _openblas() -> list:
    """Version string and live thread count of each OpenBLAS numpy and scipy load."""
    found = []
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "lib": os.path.basename(path)}
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    if config is not None and threads is not None:
                        config.restype, config.argtypes = ctypes.c_char_p, []
                        threads.restype, threads.argtypes = ctypes.c_int, []
                        entry["config"] = config().decode()
                        entry["threads"] = threads()
            found.append(entry)
    return found


def machine_block() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }
