"""The rigorous solver's per-step kernels against reference formulations.

* the dense separable lateral propagator against an explicit
  ``dctn -> x factor -> idctn`` round trip (the operator it precomputes);
* the in-place reaction kernels bitwise against the straightforward
  array formulas they replaced, on a recorded trajectory and on the
  edge cases their masks and clip exist for;
* a full solve bitwise independent of the BLAS thread count.
"""

import numpy as np
import pytest
from scipy import fft as spfft

from repro.config import GridConfig, LithoConfig, PEBConfig, paper_scale_config
from repro.litho import peb
from repro.litho.dct import LateralDiffusionPropagator, neumann_laplacian_eigenvalues
from repro.litho.exposure import initial_photoacid
from repro.litho.mask import generate_clip
from repro.litho.optics import aerial_image_stack
from repro.runtime import blas_threads, set_blas_threads

RATE = PEBConfig().neutralization_rate
CATALYSIS = PEBConfig().catalysis_rate


def dct_oracle(field, grid, diffusivity, dt):
    """Lateral diffusion as one orthonormal DCT-II round trip."""
    lam_y = neumann_laplacian_eigenvalues(grid.ny, grid.dy_nm)
    lam_x = neumann_laplacian_eigenvalues(grid.nx, grid.dx_nm)
    factor = np.exp(dt * diffusivity * (lam_y[:, None] + lam_x[None, :]))
    coefficients = spfft.dctn(field, axes=(1, 2), type=2, norm="ortho")
    coefficients *= factor[None, :, :]
    return spfft.idctn(coefficients, axes=(1, 2), type=2, norm="ortho")


def catalysis_oracle(inhibitor, acid, rate, dt):
    return inhibitor * np.exp(-rate * acid * dt)


def neutralization_oracle(acid, base, rate, dt):
    diff = acid - base
    small = np.abs(diff) < 1e-10
    degenerate = acid < 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(degenerate, 0.0, base / np.where(degenerate, 1.0, acid))
        decay = np.exp(np.clip(-rate * diff * dt, -700.0, 700.0))
        general = diff / (1.0 - ratio * decay)
        limit = acid / (1.0 + rate * acid * dt)
    acid_new = np.where(small, limit, general)
    acid_new = np.where(degenerate, 0.0, acid_new)
    acid_new = np.clip(acid_new, 0.0, None)
    base_new = np.clip(acid_new - diff, 0.0, None)
    return acid_new, base_new


def assert_bitwise(actual, expected):
    """Equal down to the bit pattern (tells -0.0 from 0.0, NaN payloads)."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(np.ascontiguousarray(actual).view(np.uint64),
                          np.ascontiguousarray(expected).view(np.uint64))


def clip_acid(grid, seed=0):
    config = LithoConfig(grid=grid)
    clip = generate_clip(seed, grid=grid)
    return initial_photoacid(aerial_image_stack(clip.pattern, grid, config.optics),
                             config.exposure)


class TestDenseLateralPropagator:
    @pytest.mark.parametrize("grid", [
        GridConfig(size_um=1.0, nx=16, ny=16, nz=4),
        GridConfig(nx=64, ny=64, nz=8),
        GridConfig(nx=40, ny=24, nz=3),
        GridConfig(nx=32, ny=32, nz=1),
    ], ids=["16x16x4", "64x64x8", "ny!=nx", "nz=1"])
    def test_matches_dct_round_trip(self, grid):
        diffusivity = PEBConfig().diffusivity("acid", "lateral")
        field = np.random.default_rng(grid.nx + grid.nz).random(grid.shape)
        propagator = LateralDiffusionPropagator(grid, diffusivity, 0.25)
        out = propagator.apply(field)
        assert out.shape == grid.shape
        assert np.max(np.abs(out - dct_oracle(field, grid, diffusivity, 0.25))) <= 1e-14

    @pytest.mark.slow
    def test_matches_dct_round_trip_at_paper_scale(self):
        grid = paper_scale_config().grid
        for species in ("acid", "base"):
            diffusivity = PEBConfig().diffusivity(species, "lateral")
            field = np.random.default_rng(7).random(grid.shape)
            out = LateralDiffusionPropagator(grid, diffusivity, 0.25).apply(field)
            assert np.max(np.abs(out - dct_oracle(field, grid, diffusivity, 0.25))) <= 1e-14

    def test_does_not_mutate_input(self):
        grid = GridConfig(size_um=1.0, nx=16, ny=16, nz=4)
        field = np.random.default_rng(1).random(grid.shape)
        before = field.copy()
        LateralDiffusionPropagator(grid, 2e4, 0.25).apply(field)
        assert_bitwise(field, before)


class TestZPropagator:
    def test_matches_per_column_matrix_product(self):
        grid = GridConfig(size_um=1.0, nx=16, ny=12, nz=4)
        physics = PEBConfig()
        propagator = peb._ZPropagator(grid, physics.diffusivity("acid", "normal"),
                                      physics.transfer_coefficient_acid,
                                      physics.acid_saturation, 0.25)
        field = np.random.default_rng(2).random(grid.shape)
        before = field.copy()
        expected = (np.einsum("ij,jyx->iyx", propagator.step_matrix, field)
                    + propagator.affine[:, None, None])
        assert np.allclose(propagator.apply(field), expected, rtol=0, atol=1e-14)
        assert_bitwise(field, before)


def trajectory_states():
    """(acid, base, inhibitor) at every sixth step of a real Strang solve."""
    grid = GridConfig(size_um=1.0, nx=16, ny=16, nz=4)
    solver = peb.RigorousPEBSolver(grid, PEBConfig(), splitting="strang", time_step_s=1.0)
    result = solver.solve(clip_acid(grid), record_every=1)
    return [(frame["acid"], frame["base"], frame["inhibitor"])
            for frame in result.trajectory[::6]]


def edge_states():
    """Named (acid, base) pairs hitting every mask and the exponent clip."""
    rng = np.random.default_rng(5)
    acid = rng.random((2, 8, 8))
    base = rng.random((2, 8, 8))
    mixed_acid, mixed_base = acid.copy(), base.copy()
    mixed_acid[0, 0, :4] = 0.0                       # no acid
    mixed_acid[0, 1, :4] = 1e-310                    # acid < 1e-300
    mixed_base[0, 2, :4] = mixed_acid[0, 2, :4] + 1e-12   # |A - B| < 1e-10
    mixed_base[0, 3, :4] = 0.0                       # no base
    return {
        "random": (acid, base),
        "mixed": (mixed_acid, mixed_base),
        "acid_zero": (np.zeros_like(acid), base),
        "acid_subnormal": (np.full_like(acid, 1e-310), base),
        "difference_tiny": (acid, acid + 1e-12),
        "difference_zero": (acid, acid.copy()),
        "base_zero": (acid, np.zeros_like(base)),
    }


class TestReactionKernels:
    @pytest.mark.parametrize("dt", [0.05, 0.125, 0.3, 1.0])
    def test_trajectory_bitwise(self, dt):
        for acid, base, inhibitor in trajectory_states():
            assert_bitwise(peb.catalysis_step(inhibitor, acid, CATALYSIS, dt),
                           catalysis_oracle(inhibitor, acid, CATALYSIS, dt))
            for got, want in zip(peb.neutralization_step(acid, base, RATE, dt),
                                 neutralization_oracle(acid, base, RATE, dt)):
                assert_bitwise(got, want)

    @pytest.mark.parametrize("name", sorted(edge_states()))
    @pytest.mark.parametrize("dt", [0.1, 0.25, 1e6])
    def test_edge_cases_bitwise(self, name, dt):
        acid, base = edge_states()[name]
        inhibitor = np.random.default_rng(9).random(acid.shape)
        assert_bitwise(peb.catalysis_step(inhibitor, acid, CATALYSIS, dt),
                       catalysis_oracle(inhibitor, acid, CATALYSIS, dt))
        for got, want in zip(peb.neutralization_step(acid, base, RATE, dt),
                             neutralization_oracle(acid, base, RATE, dt)):
            assert_bitwise(got, want)

    def test_large_dt_hits_exponent_clip(self):
        acid, base = edge_states()["random"]
        exponent = -RATE * (acid - base) * 1e6
        assert exponent.max() > 700.0 and exponent.min() < -700.0

    def test_inputs_not_mutated(self):
        for acid, base in edge_states().values():
            inhibitor = np.random.default_rng(9).random(acid.shape)
            saved = [array.copy() for array in (acid, base, inhibitor)]
            peb.catalysis_step(inhibitor, acid, CATALYSIS, 0.25)
            peb.neutralization_step(acid, base, RATE, 0.25)
            for array, before in zip((acid, base, inhibitor), saved):
                assert_bitwise(array, before)


class TestBlasThreadInvariance:
    def test_serial_solve_bitwise_at_one_and_two_threads(self):
        before = blas_threads()
        if not before:
            pytest.skip("no OpenBLAS thread control in this process")
        grid = GridConfig()
        solver = peb.RigorousPEBSolver(grid, PEBConfig(), splitting="strang",
                                       time_step_s=0.5)
        acid0 = clip_acid(grid, seed=3)
        try:
            set_blas_threads(1)
            one = solver.solve(acid0)
            set_blas_threads(2)
            two = solver.solve(acid0)
        finally:
            set_blas_threads(max(before))
        for key in ("acid", "base", "inhibitor"):
            assert_bitwise(getattr(two, key), getattr(one, key))
