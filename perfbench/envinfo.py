"""The environment recorded with every result."""

import ctypes
import glob
import os
import platform

import numpy as np

_BLAS_THREAD_FUNCS = ("scipy_openblas_get_num_threads64_",
                      "openblas_get_num_threads64_",
                      "openblas_get_num_threads")
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int | None:
    """Threads the OpenBLAS that NumPy loaded will use, if it is OpenBLAS."""
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                            "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_FUNCS:
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def git_commit(checkout: str) -> str | None:
    """HEAD of the checkout read from .git, or None outside a work tree."""
    git = os.path.join(checkout, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_lines(checkout: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def collect(checkout: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in _THREAD_ENV
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": _cpu_model(),
        "git_commit": git_commit(checkout),
        "src_lines": src_lines(checkout),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None
