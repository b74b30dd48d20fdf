"""The machine record printed with every result."""

from __future__ import annotations

import os
import platform
import sys


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, entry)
        level, kind = _read(f"{d}/level"), _read(f"{d}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(f"{d}/size")
    return out


def _blas() -> str:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_record(blas_threads: int, thread_vars) -> dict:
    import numpy as np
    import scipy
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "caches_cpu0": _caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "thread_env": {v: os.environ.get(v, "") for v in thread_vars},
    }
