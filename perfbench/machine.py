"""Facts about the machine a result was measured on, recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

# Names under which OpenBLAS builds export their thread-count query.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

LIMITS = {
    "hardware_counters": "not read; no cycle, cache or bandwidth counts are reported",
    "bytes": "evolution.values_bytes_computed is computed from array sizes (16 B per complex sample), not measured",
    "memory": "peak_rss_mb is ru_maxrss of each command process from wait4",
    "load": "the machine may be shared; times include any contention from other tenants",
}


def _build_dependency(name: str) -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"][name]
    except (TypeError, KeyError):  # numpy builds without the dict form of show_config
        return {}
    return {"name": info.get("name"), "version": info.get("version")}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _build_dependency("blas"),
        "lapack": _build_dependency("lapack"),
        "blas_threads": _blas_threads(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "limits": LIMITS,
    }
