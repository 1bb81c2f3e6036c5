"""Performance layer: process pools, FFT threading and operator caches.

``repro.runtime`` centralizes the knobs that decide how fast the
reproduction runs on a given machine without changing any numerics:

* :mod:`repro.runtime.pool` — a fork-based worker pool for
  embarrassingly parallel stages (rigorous dataset generation), with a
  deterministic serial fallback;
* :mod:`repro.runtime.fft` — the thread count handed to ``scipy.fft``
  (S4D global convolution);
* :mod:`repro.runtime.blas` — best-effort OpenBLAS thread pinning (the
  diffusion propagators are BLAS matrix products); pool workers use it
  to run single-threaded;
* :mod:`repro.runtime.cache` — LRU caches for the PEB propagators,
  whose construction is dominated by ``expm`` / eigenvalue setup and is
  repeated verbatim across solver instances, benches and pool workers;
* :mod:`repro.runtime.sync` — lock factories whose products turn into
  instrumented wrappers under ``REPRO_SANITIZE=1``, recording lock
  acquisition order (inversion detection), fork-time safety and
  per-lock contention.

Environment variables: ``REPRO_WORKERS`` (process count for dataset
generation) and ``REPRO_FFT_WORKERS`` (scipy.fft thread count); see
``docs/performance.md``.
"""

from .pool import resolve_workers, fork_available, parallel_map
from .fft import fft_workers, set_fft_workers
from .blas import set_blas_threads, blas_threads
from .cache import (
    cached_lateral_propagator, cached_z_propagator,
    clear_propagator_caches, propagator_cache_info,
)
from .sync import (
    make_lock, make_rlock, make_condition, sanitize_locks,
    lock_sanitizer_enabled, check_fork_safety, sync_violations,
    sync_report, reset_sync_state, held_locks,
    LockSanitizerError, LockOrderError, ForkSafetyError, SyncViolation,
)

__all__ = [
    "resolve_workers", "fork_available", "parallel_map",
    "fft_workers", "set_fft_workers", "set_blas_threads", "blas_threads",
    "cached_lateral_propagator", "cached_z_propagator",
    "clear_propagator_caches", "propagator_cache_info",
    "make_lock", "make_rlock", "make_condition", "sanitize_locks",
    "lock_sanitizer_enabled", "check_fork_safety", "sync_violations",
    "sync_report", "reset_sync_state", "held_locks",
    "LockSanitizerError", "LockOrderError", "ForkSafetyError", "SyncViolation",
]
