"""Best-effort thread-count control for the loaded OpenBLAS libraries.

The rigorous solver's diffusion propagators are BLAS matrix products,
and OpenBLAS spins up one thread per core by default.  Inside a fork
pool that multiplies: N workers x N BLAS threads on N cores.  Pool
workers therefore pin BLAS to one thread (see :mod:`repro.runtime.pool`)
the same way they pin ``scipy.fft``.

There is no portable API for this, so :func:`set_blas_threads` finds
every OpenBLAS shared object mapped into the process (numpy and scipy
each bundle their own) and calls its ``openblas_set_num_threads``
entry point through :mod:`ctypes`, whatever prefix/suffix the build
gave it (``scipy_openblas_set_num_threads64_`` for numpy's ILP64
build).  When no such library or symbol is found — another BLAS
vendor, a platform without ``/proc/self/maps`` — it does nothing.

BLAS threading does not change numerics here: OpenBLAS splits a GEMM
over output blocks, so each element's reduction order is the same for
any thread count (``tests/litho/test_peb_kernels.py`` pins this).
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["set_blas_threads", "blas_threads"]

#: symbol spellings across OpenBLAS builds: plain, ILP64 ``64_`` suffix,
#: and the ``scipy_`` prefix of the scipy-openblas wheels
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")


def _openblas_libraries() -> list[ctypes.CDLL]:
    """Handles on every OpenBLAS shared object mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        if not os.path.isfile(path):
            continue
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libraries


def _symbol(library: ctypes.CDLL, verb: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                return getattr(library, f"{prefix}openblas_{verb}_num_threads{suffix}")
            except AttributeError:
                continue
    return None


def set_blas_threads(count: int) -> int:
    """Set every loaded OpenBLAS to ``count`` threads.

    Returns how many libraries were pinned (0 when none was found).
    """
    pinned = 0
    for library in _openblas_libraries():
        setter = _symbol(library, "set")
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(int(count))
            pinned += 1
    return pinned


def blas_threads() -> list[int]:
    """Thread count reported by each loaded OpenBLAS (empty when none)."""
    counts = []
    for library in _openblas_libraries():
        getter = _symbol(library, "get")
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            counts.append(int(getter()))
    return counts
