"""Process-pool execution policy for embarrassingly parallel stages.

The rigorous ``[A] -> [I]`` flow is one independent solver run per
seeded clip, so it parallelizes trivially — *provided* the results come
back in a deterministic order and each task derives all of its
randomness from its own seed (which :func:`repro.litho.generate_clip`
guarantees).  :func:`parallel_map` fans tasks out across ``fork``ed
processes and reassembles results in submission order; on platforms
without ``fork`` (or with ``workers=1``) it degrades to a plain serial
loop that is bit-for-bit the historical code path.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Iterable, Sequence

from repro.obs import capture_context, counter, span, trace_enabled, use_context

__all__ = ["resolve_workers", "fork_available", "parallel_map"]


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_WORKERS`` > cpu count.

    Always at least 1; a non-positive or unparsable request raises so a
    typo'd environment variable fails loudly instead of silently running
    serial.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ValueError(f"REPRO_WORKERS={env!r} is not an integer") from exc
        else:
            workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def fork_available() -> bool:
    """Whether the ``fork`` start method exists (it does not on Windows,
    and ``spawn`` would re-import the world per task, so we fall back to
    serial instead)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _limit_worker_threads() -> None:
    """Pool-worker initializer: each process runs its tasks single-
    threaded so N workers never oversubscribe N cores with FFT or BLAS
    threads."""
    from repro.runtime.blas import set_blas_threads
    from repro.runtime.fft import set_fft_workers

    set_fft_workers(1)
    set_blas_threads(1)


class _TracedTask:
    """Pickle-friendly wrapper giving each pool task a worker-side span.

    Only substituted for the raw ``fn`` when tracing is already enabled
    in the parent (forked children inherit the enabled flag and the
    ``O_APPEND`` sink descriptor), so untraced runs dispatch the exact
    historical callable.  The constructor snapshots the dispatching
    thread's trace context (request id + the enclosing span's uid), so
    worker-side spans attach to the dispatch point of the request's
    span tree — span ids are ``pid``-qualified, making the cross-process
    ``parent`` pointer unambiguous.
    """

    __slots__ = ("fn", "ctx")

    def __init__(self, fn: Callable):
        self.fn = fn
        self.ctx = capture_context()

    def __call__(self, task):
        with use_context(self.ctx), span("pool.worker_task"):
            return self.fn(task)


def parallel_map(fn: Callable, items: Iterable, workers: int | None = None) -> list:
    """``[fn(item) for item in items]`` across a fork-based process pool.

    Results are returned in input order regardless of completion order.
    Runs serially (in-process, no pool, identical numerics) when the
    resolved worker count is 1, there are fewer than two items, ``fork``
    is unavailable, or pool creation fails (e.g. a sandbox forbidding
    new processes).

    ``fn`` must be picklable (a module-level function) and must derive
    any randomness from its argument, not from global state.
    """
    tasks: Sequence = list(items)
    workers = resolve_workers(workers)
    counter("pool.dispatches").inc()
    counter("pool.tasks").inc(len(tasks))
    if workers == 1 or len(tasks) < 2 or not fork_available():
        counter("pool.serial_runs").inc()
        with span("pool.dispatch", mode="serial", workers=1, tasks=len(tasks)):
            return [fn(task) for task in tasks]
    from repro.runtime.sync import check_fork_safety

    # surface held-lock / live-thread hazards deterministically at the
    # dispatch site (the at-fork hook alone cannot raise into user code)
    check_fork_safety()
    context = multiprocessing.get_context("fork")
    try:
        with span("pool.dispatch", mode="fork",
                  workers=min(workers, len(tasks)), tasks=len(tasks)):
            # capture inside the dispatch span so worker-side spans hang
            # off it (and inherit the request context, if any)
            task_fn = _TracedTask(fn) if trace_enabled() else fn
            with context.Pool(processes=min(workers, len(tasks)),
                              initializer=_limit_worker_threads) as pool:
                return pool.map(task_fn, tasks)
    except OSError:
        counter("pool.serial_fallbacks").inc()
        with span("pool.dispatch", mode="serial_fallback", workers=1, tasks=len(tasks)):
            return [fn(task) for task in tasks]
