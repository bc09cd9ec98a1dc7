"""Machine stamp recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

# symbol names of OpenBLAS's thread query in the builds numpy ships with
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(d, "level")).strip()
        kind = _read(os.path.join(d, "type")).strip()
        size = _read(os.path.join(d, "size")).strip()
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _mem_total_mb():
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return round(int(line.split()[1]) / 1024.0, 1)
    return None


def _blas():
    import numpy as np

    info = {"library": None, "version": None, "threads": None}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info["library"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError):
        pass
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1] if len(line.split()) >= 6 else ""
        if "openblas" not in path.lower():
            continue
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                break
        break
    info["env"] = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return info


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def stamp(root, seed, source_digest) -> dict:
    """nproc, CPU, caches, memory, library versions, BLAS threads, code, seed."""
    import numpy as np
    import scipy

    nproc = os.cpu_count()
    blas = _blas()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total_mb": _mem_total_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_within_nproc": (
            None if blas["threads"] is None else blas["threads"] <= nproc
        ),
        "git_commit": _git_commit(root),
        "source_digest": source_digest,
        "seed": seed,
    }
