"""BLAS thread pinning and the environment record of a benchmark result.

``pin_blas_threads`` must run before numpy is first imported; this module
imports numpy only inside :func:`environment`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREADS = 1  # one single-threaded process, at most nproc BLAS threads
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _blas_threads_in_force():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under src."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*.py") if p.is_file()):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = _blas_threads_in_force()
    except OSError:
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "blas_threads_in_force": blas,
        "seed": seed,
        "commit": _commit(root),
        "source_sha256": source_digest(root / "src"),
    }
