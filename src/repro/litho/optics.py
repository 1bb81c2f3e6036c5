"""Partially coherent optical exposure simulation (Abbe formulation).

Produces the 3D aerial image inside the resist for a mask clip: the
annular source is sampled into discrete source points; each source
point contributes a coherent image through the shifted pupil with a
depth-dependent paraxial defocus term, and intensities add
incoherently.  Beer-Lambert absorption attenuates the image with depth.

This stands in for the S-Litho exposure engine (λ = 193 nm, NA = 1.35
per Section IV); the output feeds the Dill model in
:mod:`repro.litho.exposure`.
"""

from __future__ import annotations

import numpy as np

from repro.config import GridConfig, OpticsConfig


def pupil_cutoff(optics: OpticsConfig) -> float:
    """Pupil cutoff spatial frequency NA/λ in cycles/nm."""
    return optics.numerical_aperture / optics.wavelength_nm


def source_points(optics: OpticsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sample the annular source into (fx, fy) shift frequencies.

    Points alternate between the inner and outer radius of the annulus
    so both edges of the ring are represented.
    """
    count = optics.source_points
    angles = 2.0 * np.pi * np.arange(count) / count
    radii = np.where(np.arange(count) % 2 == 0, optics.sigma_outer, optics.sigma_inner)
    scale = radii * pupil_cutoff(optics)
    return scale * np.cos(angles), scale * np.sin(angles)


def _frequency_grids(grid: GridConfig) -> tuple[np.ndarray, np.ndarray]:
    fx = np.fft.fftfreq(grid.nx, d=grid.dx_nm)
    fy = np.fft.fftfreq(grid.ny, d=grid.dy_nm)
    return np.meshgrid(fx, fy, indexing="xy")


def depth_positions(grid: GridConfig) -> np.ndarray:
    """z sample positions (nm from the resist top), one per depth layer."""
    return (np.arange(grid.nz) + 0.5) * grid.dz_nm


def pupil_phases(grid: GridConfig, optics: OpticsConfig):
    """Per source point, yield ``(inside, phase)`` for the Abbe sum.

    ``inside`` is the (ny, nx) mask of frequencies the shifted pupil
    passes; ``phase`` is the (nz, ny, nx) complex defocus transfer, one
    layer per depth, zero outside the pupil.  The ``exp`` is evaluated
    only at the frequencies inside the pupil: everywhere else the
    spectrum is multiplied by zero anyway.
    """
    fx, fy = _frequency_grids(grid)
    cutoff = pupil_cutoff(optics)
    sx, sy = source_points(optics)
    # Defocus distance measured from best focus inside the resist;
    # wavelength is reduced by the resist index for in-resist propagation.
    defocus = depth_positions(grid) - optics.focus_offset_nm
    wavelength = optics.wavelength_nm / optics.resist_index
    for shift_x, shift_y in zip(sx, sy):
        f_total_sq = (fx + shift_x) ** 2 + (fy + shift_y) ** 2
        inside = f_total_sq <= cutoff ** 2
        cells = np.flatnonzero(inside)
        f_inside_sq = f_total_sq.reshape(-1)[cells]
        phase = np.zeros((grid.nz, grid.ny * grid.nx), dtype=np.complex128)
        for k, dz in enumerate(defocus):
            phase[k, cells] = np.exp(-1j * np.pi * wavelength * dz * f_inside_sq)
        yield inside, phase.reshape(grid.nz, grid.ny, grid.nx)


def aerial_image_stack(pattern: np.ndarray, grid: GridConfig, optics: OpticsConfig) -> np.ndarray:
    """Compute the (nz, ny, nx) aerial-image intensity inside the resist.

    ``pattern`` is the (ny, nx) mask transmission.  Intensity is
    normalized so an open frame images to 1.0 at zero defocus before
    absorption.
    """
    if pattern.shape != (grid.ny, grid.nx):
        raise ValueError(f"pattern shape {pattern.shape} does not match grid {(grid.ny, grid.nx)}")
    spectrum = np.fft.fft2(pattern)
    intensity = np.zeros((grid.nz, grid.ny, grid.nx), dtype=np.float64)
    for inside, phase in pupil_phases(grid, optics):
        filtered = spectrum * inside
        field = np.fft.ifft2(filtered * phase, axes=(-2, -1))
        intensity += np.abs(field) ** 2
    intensity /= optics.source_points
    factors = depth_modulation(grid, optics)
    return intensity * factors[:, None, None]


def standing_wave_factor(depths: np.ndarray, grid: GridConfig, optics: OpticsConfig) -> np.ndarray:
    """Vertical standing-wave intensity modulation from substrate reflection.

    The incident and substrate-reflected fields interfere with period
    λ/(2n) in z: ``|1 + r exp(2ikn(T - z))|^2``, normalized to unit mean
    so the lateral dose calibration is unaffected.  This is the classic
    standing-wave structure the PEB step is designed to smooth out.
    """
    r = optics.substrate_reflectivity
    if r == 0.0:
        return np.ones_like(depths)
    wavenumber = 2.0 * np.pi * optics.resist_index / optics.wavelength_nm
    phase = 2.0 * wavenumber * (grid.thickness_nm - depths)
    return (1.0 + r ** 2 + 2.0 * r * np.cos(phase)) / (1.0 + r ** 2)


def depth_modulation(grid: GridConfig, optics: OpticsConfig) -> np.ndarray:
    """Combined per-layer intensity factor: absorption x standing waves."""
    depths = depth_positions(grid)
    attenuation = np.exp(-optics.absorption_per_um * depths / 1000.0)
    return attenuation * standing_wave_factor(depths, grid, optics)
