"""The Abbe forward and its adjoint, bitwise against per-(source, depth) oracles.

The oracles evaluate the defocus phase over the whole frequency grid and
run one 2-D FFT per source point and depth.  The kernels under test
evaluate the phase only inside the shifted pupil and batch their FFTs
over depth; the products outside the pupil are zero either way, so the
intensities and gradients must agree to the bit.

The slow test repeats the comparison, and the Eikonal one, at the
paper-scale grid on one clip through the rigorous PEB chain.
"""

import numpy as np
import pytest

from repro.config import DevelopConfig, GridConfig, OpticsConfig, paper_scale_config
from repro.litho import eikonal
from repro.litho.develop import development_rate
from repro.litho.exposure import initial_photoacid
from repro.litho.ilt import _aerial_vjp
from repro.litho.mask import generate_clip
from repro.litho.optics import (
    _frequency_grids, aerial_image_stack, depth_modulation, depth_positions, pupil_cutoff,
    pupil_phases, source_points,
)
from repro.litho.peb import RigorousPEBSolver

from .test_eikonal_kernels import assert_bitwise, fast_iterative_oracle


def aerial_oracle(pattern, grid, optics):
    fx, fy = _frequency_grids(grid)
    cutoff = pupil_cutoff(optics)
    sx, sy = source_points(optics)
    spectrum = np.fft.fft2(pattern)
    defocus = depth_positions(grid) - optics.focus_offset_nm
    wavelength = optics.wavelength_nm / optics.resist_index
    intensity = np.zeros((grid.nz, grid.ny, grid.nx), dtype=np.float64)
    for shift_x, shift_y in zip(sx, sy):
        f_total_sq = (fx + shift_x) ** 2 + (fy + shift_y) ** 2
        inside = f_total_sq <= cutoff ** 2
        filtered = spectrum * inside
        for k, dz in enumerate(defocus):
            phase = np.exp(-1j * np.pi * wavelength * dz * f_total_sq)
            field = np.fft.ifft2(filtered * phase)
            intensity[k] += np.abs(field) ** 2
    intensity /= len(sx)
    return intensity * depth_modulation(grid, optics)[:, None, None]


def aerial_vjp_oracle(pattern, grad_intensity, grid, optics):
    fx, fy = _frequency_grids(grid)
    cutoff = pupil_cutoff(optics)
    sx, sy = source_points(optics)
    spectrum = np.fft.fft2(pattern)
    defocus = depth_positions(grid) - optics.focus_offset_nm
    wavelength = optics.wavelength_nm / optics.resist_index
    factors = depth_modulation(grid, optics)
    weighted = grad_intensity * factors[:, None, None] * (2.0 / len(sx))
    grad = np.zeros((grid.ny, grid.nx), dtype=np.float64)
    for shift_x, shift_y in zip(sx, sy):
        f_total_sq = (fx + shift_x) ** 2 + (fy + shift_y) ** 2
        inside = f_total_sq <= cutoff ** 2
        filtered = spectrum * inside
        for k, dz in enumerate(defocus):
            phase = np.exp(-1j * np.pi * wavelength * dz * f_total_sq)
            field = np.fft.ifft2(filtered * phase)
            transfer = inside * phase
            grad += np.fft.ifft2(
                np.conj(transfer) * np.fft.fft2(weighted[k] * field)).real
    return grad


GRIDS = [
    GridConfig(size_um=0.5, nx=16, ny=16, nz=2),
    GridConfig(size_um=1.0, nx=32, ny=32, nz=1),
    GridConfig(nx=64, ny=64, nz=8),
    GridConfig(size_um=1.0, nx=48, ny=32, nz=3),
    GridConfig(size_um=1.0, nx=40, ny=56, nz=4),
]
GRID_IDS = ["16x16x2", "32x32x1", "64x64x8", "48x32x3", "40x56x4"]


def random_inputs(grid):
    rng = np.random.default_rng(grid.nx * 7 + grid.ny * 3 + grid.nz)
    return rng.random((grid.ny, grid.nx)), rng.normal(size=grid.shape)


class TestPupilPhases:
    def test_zero_outside_the_pupil(self):
        grid, optics = GRIDS[3], OpticsConfig()
        count = 0
        for inside, phase in pupil_phases(grid, optics):
            count += 1
            assert phase.shape == grid.shape and phase.dtype == np.complex128
            assert not phase[:, ~inside].any()
            assert np.allclose(np.abs(phase[:, inside]), 1.0)
        assert count == optics.source_points


class TestAgainstPerDepthOracle:
    @pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
    def test_aerial_image_stack(self, grid):
        pattern, _ = random_inputs(grid)
        optics = OpticsConfig()
        assert_bitwise(aerial_image_stack(pattern, grid, optics),
                       aerial_oracle(pattern, grid, optics))

    @pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
    def test_aerial_vjp(self, grid):
        pattern, grad_intensity = random_inputs(grid)
        optics = OpticsConfig()
        assert_bitwise(_aerial_vjp(pattern, grad_intensity, grid, optics),
                       aerial_vjp_oracle(pattern, grad_intensity, grid, optics))

    def test_mask_clip_with_defocus_and_no_standing_waves(self):
        grid = GRIDS[3]
        optics = OpticsConfig(focus_offset_nm=-25.0, substrate_reflectivity=0.0,
                              source_points=7)
        pattern = generate_clip(4, grid=grid).pattern
        _, grad_intensity = random_inputs(grid)
        assert_bitwise(aerial_image_stack(pattern, grid, optics),
                       aerial_oracle(pattern, grid, optics))
        assert_bitwise(_aerial_vjp(pattern, grad_intensity, grid, optics),
                       aerial_vjp_oracle(pattern, grad_intensity, grid, optics))


@pytest.mark.slow
def test_paper_scale_rigorous_clip_matches_oracles():
    """128x128x8: optics, adjoint and Eikonal on one rigorous-chain clip."""
    config = paper_scale_config()
    grid = config.grid
    clip = generate_clip(2, grid=grid)
    aerial = aerial_image_stack(clip.pattern, grid, config.optics)
    assert_bitwise(aerial, aerial_oracle(clip.pattern, grid, config.optics))
    grad_intensity = np.random.default_rng(2).normal(size=grid.shape)
    assert_bitwise(_aerial_vjp(clip.pattern, grad_intensity, grid, config.optics),
                   aerial_vjp_oracle(clip.pattern, grad_intensity, grid, config.optics))
    acid = initial_photoacid(aerial, config.exposure)
    inhibitor = RigorousPEBSolver(grid, config.peb, splitting="strang",
                                  time_step_s=0.25).solve(acid).inhibitor
    slowness = 1.0 / development_rate(inhibitor, DevelopConfig())
    spacing = (grid.dz_nm, grid.dy_nm, grid.dx_nm)
    assert_bitwise(eikonal.fast_iterative(slowness, spacing),
                   fast_iterative_oracle(slowness, spacing))
