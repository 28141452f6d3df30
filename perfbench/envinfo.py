"""The environment block every result file carries."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess


def _blas_threads():
    """OpenBLAS thread count, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _cpu():
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as fl, open(os.path.join(d, "size")) as fs:
                level, size = fl.read().strip(), fs.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"l{level}"] = size
    return model, caches.get("l2"), caches.get("l3")


def _git(root):
    """Commit and dirty flag, only when ``root`` itself is a git checkout."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None, None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def collect(root: str, seed: int) -> dict:
    import numpy
    import sharp_ineq

    backend = getattr(sharp_ineq, "backend", None)
    if callable(backend):
        backend = backend()
    model, l2, l3 = _cpu()
    commit, dirty = _git(root)
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend or "numpy",
        "blas_threads": _blas_threads(),
        "nproc": affinity or os.cpu_count(),
        "cpu_model": model,
        "l2_cache": l2,
        "l3_cache": l3,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }
