"""Worker-count resolution, the process pool, and the propagator caches."""

import numpy as np
import pytest

from repro.config import GridConfig
from repro.runtime import (
    blas_threads, cached_lateral_propagator, cached_z_propagator,
    clear_propagator_caches, fft_workers, parallel_map, propagator_cache_info,
    resolve_workers, set_blas_threads, set_fft_workers,
)
from repro.runtime import pool as pool_module


def _double(x):
    """Module-level so it pickles into pool workers."""
    return 2 * x


def _blas_threads_seen(_):
    return blas_threads()


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_variable_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 6)
        assert resolve_workers() == 6

    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    def test_bad_env_raises(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError):
            resolve_workers()

    def test_nonpositive_argument_raises(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestParallelMap:
    def test_results_in_input_order(self):
        items = list(range(20))
        assert parallel_map(_double, items, workers=3) == [2 * i for i in items]

    def test_serial_matches_parallel(self):
        items = [1.5, -2.0, 7.25]
        assert parallel_map(_double, items, workers=1) == \
            parallel_map(_double, items, workers=3)

    def test_workers_one_never_spawns(self, monkeypatch):
        def forbid(*args, **kwargs):
            raise AssertionError("workers=1 must not create a pool")

        monkeypatch.setattr(pool_module.multiprocessing, "get_context", forbid)
        assert parallel_map(_double, [1, 2, 3], workers=1) == [2, 4, 6]

    def test_single_item_never_spawns(self, monkeypatch):
        def forbid(*args, **kwargs):
            raise AssertionError("a single task must not create a pool")

        monkeypatch.setattr(pool_module.multiprocessing, "get_context", forbid)
        assert parallel_map(_double, [21], workers=8) == [42]

    def test_fork_unavailable_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        assert parallel_map(_double, [1, 2, 3], workers=4) == [2, 4, 6]

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        class BrokenContext:
            def Pool(self, *args, **kwargs):
                raise OSError("no processes in this sandbox")

        monkeypatch.setattr(pool_module.multiprocessing, "get_context",
                            lambda method: BrokenContext())
        assert parallel_map(_double, [1, 2, 3], workers=4) == [2, 4, 6]


class TestFFTWorkers:
    def test_override_round_trip(self):
        set_fft_workers(3)
        try:
            assert fft_workers() == 3
        finally:
            set_fft_workers(None)

    def test_env_variable(self, monkeypatch):
        set_fft_workers(None)
        monkeypatch.setenv("REPRO_FFT_WORKERS", "2")
        assert fft_workers() == 2

    def test_nonpositive_override_raises(self):
        with pytest.raises(ValueError):
            set_fft_workers(0)

    def test_reset_restores_policy(self, monkeypatch):
        monkeypatch.delenv("REPRO_FFT_WORKERS", raising=False)
        set_fft_workers(None)
        assert fft_workers() >= 1


class TestBlasThreads:
    def test_pool_workers_run_blas_single_threaded(self):
        """N workers x N BLAS threads would oversubscribe N cores."""
        before = blas_threads()
        if not before:
            pytest.skip("no OpenBLAS get/set_num_threads symbol in this process")
        try:
            set_blas_threads(2)  # the parent's count must not leak into workers
            assert blas_threads() == [2] * len(before)
            seen = parallel_map(_blas_threads_seen, [0, 1], workers=2)
        finally:
            set_blas_threads(max(before))
        assert seen == [[1] * len(before)] * 2

    def test_set_returns_number_of_libraries_pinned(self):
        before = blas_threads()
        try:
            assert set_blas_threads(1) == len(before)
        finally:
            if before:
                set_blas_threads(max(before))


class TestPropagatorCache:
    def test_same_key_returns_same_object(self):
        clear_propagator_caches()
        grid = GridConfig(size_um=1.0, nx=8, ny=8, nz=2)
        first = cached_lateral_propagator(grid, 1e4, 0.5)
        second = cached_lateral_propagator(grid, 1e4, 0.5)
        assert first is second
        info = propagator_cache_info()["lateral"]
        assert info["hits"] == 1 and info["misses"] == 1

    def test_different_key_is_a_miss(self):
        clear_propagator_caches()
        grid = GridConfig(size_um=1.0, nx=8, ny=8, nz=2)
        a = cached_z_propagator(grid, 1e4, 5.0, 1.0, 0.5)
        b = cached_z_propagator(grid, 1e4, 5.0, 1.0, 0.25)
        assert a is not b
        assert propagator_cache_info()["z"]["misses"] == 2

    def test_cached_operator_matches_fresh(self):
        clear_propagator_caches()
        from repro.litho.dct import LateralDiffusionPropagator

        grid = GridConfig(size_um=1.0, nx=8, ny=8, nz=2)
        rng = np.random.default_rng(3)
        volume = rng.random(grid.shape)
        cached = cached_lateral_propagator(grid, 2e4, 0.25)
        fresh = LateralDiffusionPropagator(grid, 2e4, 0.25)
        assert np.array_equal(cached.apply(volume), fresh.apply(volume))
