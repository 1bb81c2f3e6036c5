"""Spectral (DCT) and finite-difference lateral diffusion operators.

The PEB reaction-diffusion system uses zero-flux (Neumann) boundary
conditions in x-y (Eq. 4 of the paper).  The Neumann Laplacian is
diagonalized by the type-II discrete cosine transform, so lateral
diffusion over a time step can be integrated *exactly* (at the level of
the spatial discretization) by one DCT round-trip — this is the default
"rigorous" integrator.  The round-trip is separable, so it is
precomputed per axis as a dense ``n × n`` matrix
``P = Cᵀ·diag(e^{D·λ·dt})·C`` (``C`` the orthonormal DCT-II matrix) and
applied as two BLAS matrix products: the same operator in the spatial
basis, cheaper than two transforms at every grid the repo configures.
An explicit-Euler finite-difference step is kept for the solver-mode
ablation bench.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as spfft

from repro.config import GridConfig


def neumann_laplacian_eigenvalues(n: int, spacing: float) -> np.ndarray:
    """Eigenvalues of the 1D Neumann (zero-flux) discrete Laplacian.

    Under DCT-II, the standard 3-point Laplacian with mirrored boundaries
    has eigenvalues ``-4 sin^2(pi k / 2n) / h^2``.
    """
    k = np.arange(n)
    return -4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2 / spacing ** 2


def neumann_propagator_matrix(n: int, spacing: float, diffusivity: float,
                              dt: float) -> np.ndarray:
    """Dense 1D propagator ``Cᵀ·diag(e^{D·λ·dt})·C`` of Neumann diffusion.

    ``C`` is the orthonormal DCT-II matrix, so ``P @ u`` equals
    ``idct(e^{D·λ·dt} · dct(u))`` along that axis.
    """
    basis = spfft.dct(np.eye(n, dtype=np.float64), type=2, norm="ortho", axis=0)
    decay = np.exp(dt * diffusivity * neumann_laplacian_eigenvalues(n, spacing))
    return basis.T @ (decay[:, None] * basis)


class LateralDiffusionPropagator:
    """Exact integrator of lateral diffusion on a (nz, ny, nx) field."""

    def __init__(self, grid: GridConfig, diffusivity: float, dt: float):
        self.grid = grid
        self.diffusivity = diffusivity
        self.dt = dt
        self._py = neumann_propagator_matrix(grid.ny, grid.dy_nm, diffusivity, dt)
        self._px_t = np.ascontiguousarray(
            neumann_propagator_matrix(grid.nx, grid.dx_nm, diffusivity, dt).T)

    def apply(self, field: np.ndarray) -> np.ndarray:
        """Advance the field by one time step (axes (1, 2) are y, x)."""
        nz, ny, nx = field.shape
        along_x = (field.reshape(nz * ny, nx) @ self._px_t).reshape(nz, ny, nx)
        return np.matmul(self._py, along_x)


def lateral_step_fdm(field: np.ndarray, diffusivity: float, dt: float,
                     dx: float, dy: float) -> np.ndarray:
    """One explicit-Euler lateral diffusion step with zero-flux boundaries.

    Stability requires ``dt * D * (1/dx^2 + 1/dy^2) <= 1/2``.
    """
    padded = np.pad(field, ((0, 0), (1, 1), (1, 1)), mode="edge")
    lap = (
        (padded[:, 2:, 1:-1] - 2.0 * field + padded[:, :-2, 1:-1]) / dy ** 2
        + (padded[:, 1:-1, 2:] - 2.0 * field + padded[:, 1:-1, :-2]) / dx ** 2
    )
    return field + dt * diffusivity * lap
