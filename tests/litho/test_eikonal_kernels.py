"""The active-set fast-iterative Eikonal solve, bitwise against a whole-grid oracle.

The oracle below is the straightforward formulation the solver must
reproduce: every sweep recomputes every cell, neighbour minima come from
shifted whole-grid copies and the three upwind values are ordered with
``argsort``.  The active-set solve recomputes only cells next to a
change, gathers neighbours from a padded array and orders them with a
compare-swap network; none of that may change a single output bit.
"""

import numpy as np
import pytest

from repro.config import DevelopConfig, GridConfig, LithoConfig
from repro.litho import eikonal
from repro.litho.develop import development_rate
from repro.litho.exposure import initial_photoacid
from repro.litho.ilt import GaussianPEBBackend
from repro.litho.mask import generate_clip
from repro.litho.optics import aerial_image_stack


def _axis_minima_oracle(times):
    minima = np.empty((3,) + times.shape, dtype=np.float64)
    for axis in range(3):
        forward = np.full_like(times, np.inf)
        backward = np.full_like(times, np.inf)
        front = [slice(None)] * 3
        back = [slice(None)] * 3
        front[axis] = slice(1, None)
        back[axis] = slice(None, -1)
        forward[tuple(back)] = times[tuple(front)]
        backward[tuple(front)] = times[tuple(back)]
        minima[axis] = np.minimum(forward, backward)
    return minima


def _godunov_oracle(axis_minima, spacings, slowness):
    h = np.broadcast_to(spacings.reshape(3, *([1] * (axis_minima.ndim - 1))), axis_minima.shape)
    order = np.argsort(axis_minima, axis=0)
    a = np.take_along_axis(axis_minima, order, axis=0)
    h = np.take_along_axis(h, order, axis=0)
    with np.errstate(invalid="ignore"):
        solution = a[0] + slowness * h[0]
        inv_h2 = np.zeros_like(a)
        np.divide(1.0, h ** 2, out=inv_h2, where=np.isfinite(a))
        alpha = inv_h2[0].copy()
        beta = np.where(np.isfinite(a[0]), -2.0 * a[0] * inv_h2[0], 0.0)
        gamma = np.where(np.isfinite(a[0]), a[0] ** 2 * inv_h2[0], 0.0) - slowness ** 2
        for m in (1, 2):
            use = np.isfinite(a[m]) & (solution > a[m])
            alpha = alpha + np.where(use, inv_h2[m], 0.0)
            beta = beta + np.where(use, -2.0 * a[m] * inv_h2[m], 0.0)
            gamma = gamma + np.where(use, a[m] ** 2 * inv_h2[m], 0.0)
            disc = beta ** 2 - 4.0 * alpha * gamma
            valid = use & (disc >= 0.0)
            candidate = np.where(valid, (-beta + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * alpha),
                                 np.inf)
            improved = valid & (candidate >= a[m])
            solution = np.where(improved, candidate, solution)
            rollback = use & ~improved
            alpha = alpha - np.where(rollback, inv_h2[m], 0.0)
            beta = beta - np.where(rollback, -2.0 * a[m] * inv_h2[m], 0.0)
            gamma = gamma - np.where(rollback, a[m] ** 2 * inv_h2[m], 0.0)
    return solution


def fast_iterative_oracle(slowness, spacing, tolerance=1e-9, max_iterations=None):
    """Whole-grid Jacobi sweeps until no finite arrival time moves."""
    times = eikonal.initial_arrival(slowness, spacing)
    spacings = np.asarray(spacing, dtype=np.float64)
    if max_iterations is None:
        max_iterations = 4 * sum(slowness.shape)
    for _ in range(max_iterations):
        updated = _godunov_oracle(_axis_minima_oracle(times), spacings, slowness)
        new_times = np.minimum(times, updated)
        with np.errstate(invalid="ignore"):
            change = times - new_times
        finite_change = change[np.isfinite(change)]
        times = new_times
        if finite_change.size == 0 or finite_change.max() < tolerance:
            if not np.any(np.isinf(new_times)):
                break
    return times


def assert_bitwise(actual, expected):
    """Equal down to the bit pattern (tells -0.0 from 0.0, NaN payloads)."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(np.ascontiguousarray(actual).view(np.uint64),
                          np.ascontiguousarray(expected).view(np.uint64))


def assert_matches_oracle(slowness, spacing, **kwargs):
    before = slowness.copy()
    times = eikonal.fast_iterative(slowness, spacing, **kwargs)
    assert_bitwise(slowness, before)
    assert_bitwise(times, fast_iterative_oracle(slowness, spacing, **kwargs))
    return times


def opc_forward_slowness(grid, seed):
    """Slowness of the gradient-OPC forward: optics, Dill, Gaussian PEB."""
    config = LithoConfig(grid=grid)
    clip = generate_clip(seed, grid=grid)
    acid = initial_photoacid(aerial_image_stack(clip.pattern, grid, config.optics),
                             config.exposure)
    inhibitor = GaussianPEBBackend(config).inhibitor(acid)
    return 1.0 / development_rate(inhibitor, DevelopConfig())


def media(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "lognormal":
        return rng.lognormal(0.0, 1.0, size=shape)
    if kind == "high_contrast":
        return np.where(rng.random(shape) < 0.5, 100.0, 0.01)
    if kind == "ties":
        return rng.choice(np.array([0.5, 1.0, 2.0]), size=shape)
    raise ValueError(kind)


KINDS = ("lognormal", "high_contrast", "ties")


class TestAgainstWholeGridOracle:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_gaussian_opc_forward(self, seed):
        grid = GridConfig(size_um=1.0, nx=32, ny=32, nz=4)
        times = assert_matches_oracle(opc_forward_slowness(grid, seed),
                                      (grid.dz_nm, grid.dy_nm, grid.dx_nm))
        assert np.isfinite(times).all()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_media(self, kind, seed):
        assert_matches_oracle(media(kind, (5, 9, 7), seed), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spacing", [(2.0, 1.0, 1.5), (3.0, 2.0, 1.0)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_anisotropic_spacing(self, kind, spacing, seed):
        """Tied upwind values on axes of unequal spacing pin the sort's tie order."""
        assert_matches_oracle(media(kind, (6, 8, 8), seed), spacing)

    @pytest.mark.parametrize("shape", [(1, 7, 6), (6, 1, 7), (6, 7, 1), (1, 1, 5), (4, 1, 1),
                                       (1, 1, 1)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_dimensions(self, kind, shape):
        assert_matches_oracle(media(kind, shape, 5), (2.0, 1.0, 1.5))

    @pytest.mark.parametrize("max_iterations", [1, 2, 5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_truncated_iterations(self, kind, max_iterations):
        assert_matches_oracle(media(kind, (5, 8, 8), 2), (1.0, 1.0, 1.0),
                              max_iterations=max_iterations)

    @pytest.mark.parametrize("tolerance", [0.0, 1e-3])
    def test_tolerance(self, tolerance):
        """A zero tolerance never accepts the exact-zero change of a settled cell."""
        assert_matches_oracle(media("lognormal", (4, 6, 6), 8), (1.0, 1.0, 1.0),
                              tolerance=tolerance, max_iterations=40)

    def test_nan_and_infinite_slowness(self):
        """NaN sorts last among the upwind values, as it does under argsort."""
        slowness = media("lognormal", (5, 8, 8), 9)
        rng = np.random.default_rng(9)
        slowness[rng.random(slowness.shape) < 0.15] = np.nan
        slowness[rng.random(slowness.shape) < 0.05] = np.inf
        assert_matches_oracle(slowness, (1.0, 1.0, 1.0), max_iterations=30)
