"""Rigorous post-exposure bake solver (the S-Litho ground-truth substitute).

Integrates the paper's reaction-diffusion system (Eqs. 1-4):

    d[I]/dt = -k_c [I][A]
    d[A]/dt = -k_r [A][B] + div(D_A grad [A])
    d[B]/dt = -k_r [A][B] + div(D_B grad [B])

with anisotropic diffusion (lateral vs normal), zero-flux x-y boundary
conditions, a Robin boundary condition for acid at the resist top
surface, and zero-flux at the resist/substrate interface.

The integrator uses operator splitting where every sub-step is *exact*:

* lateral diffusion  — DCT spectral propagator, precomputed as dense
  per-axis matrices (:mod:`repro.litho.dct`);
* normal diffusion + Robin loss — matrix exponential of the small
  (nz × nz) z-operator, including the affine saturation source term;
* reactions — closed-form solutions of the catalysis ODE (frozen acid)
  and the acid-base neutralization ODE (which conserves [A] - [B]).

Lie splitting is first-order in dt; Strang splitting (``splitting=
"strang"``) is second-order.  Because each sub-step is exact, the
solver tolerates time steps well above Table I's baseline 0.1 s, which
is what makes dataset generation tractable on a CPU (the convergence
bench quantifies the residual splitting error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from repro.config import GridConfig, PEBConfig
from repro.obs import span
from repro.runtime.cache import cached_lateral_propagator, cached_z_propagator
from .dct import lateral_step_fdm


@dataclass
class PEBResult:
    """Final state of a PEB simulation (plus optional recorded frames)."""

    acid: np.ndarray
    base: np.ndarray
    inhibitor: np.ndarray
    times: list[float] = field(default_factory=list)
    trajectory: list[dict[str, np.ndarray]] = field(default_factory=list)


def _z_operator(grid: GridConfig, diffusivity: float, transfer: float,
                saturation: float) -> tuple[np.ndarray, np.ndarray]:
    """Build (M, c) with du/dt = M u + c for the z direction.

    Index 0 is the resist top surface.  Finite-volume discretization:
    Robin loss ``-(h/dz)(u_0 - u_sat)`` at the top, zero flux at the
    bottom.
    """
    nz, dz = grid.nz, grid.dz_nm
    main = np.zeros(nz, dtype=np.float64)
    upper = np.full(nz - 1, diffusivity / dz ** 2, dtype=np.float64)
    lower = np.full(nz - 1, diffusivity / dz ** 2, dtype=np.float64)
    main[:] = -2.0 * diffusivity / dz ** 2
    main[0] = -diffusivity / dz ** 2 - transfer / dz
    main[-1] = -diffusivity / dz ** 2
    matrix = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
    source = np.zeros(nz, dtype=np.float64)
    source[0] = transfer / dz * saturation
    return matrix, source


class _ZPropagator:
    """Exact one-step integrator of du/dt = M u + c along z."""

    def __init__(self, grid: GridConfig, diffusivity: float, transfer: float,
                 saturation: float, dt: float):
        matrix, source = _z_operator(grid, diffusivity, transfer, saturation)
        self.step_matrix = expm(dt * matrix)
        if np.any(source):
            # u+ = E u + M^{-1} (E - I) c; M is invertible when transfer > 0.
            self.affine = np.linalg.solve(
                matrix, (self.step_matrix - np.eye(grid.nz, dtype=np.float64)) @ source)
        else:
            self.affine = np.zeros(grid.nz, dtype=np.float64)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Advance a (nz, ny, nx) field one step along z."""
        out = self.step_matrix @ u.reshape(u.shape[0], -1)
        out += self.affine[:, None]
        return out.reshape(u.shape)


def catalysis_step(inhibitor: np.ndarray, acid: np.ndarray, rate: float, dt: float) -> np.ndarray:
    """Exact catalysis update with acid frozen over the step (Eq. 1)."""
    out = np.multiply(acid, -rate)
    out *= dt
    np.exp(out, out=out)
    return np.multiply(inhibitor, out, out=out)


def neutralization_step(acid: np.ndarray, base: np.ndarray, rate: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact acid-base neutralization update (reaction part of Eqs. 2-3).

    The difference d = [A] - [B] is conserved; the ODE dA/dt = -k A(A-d)
    has the closed form  A(t) = d / (1 - (B0/A0) exp(-k d t)).  Two
    masks patch it where it breaks down: ``small`` (|d| ~ 0, use the
    d -> 0 limit A0 / (1 + k A0 t)) and ``degenerate`` (A0 ~ 0, no acid
    left).  The update runs in place on fresh buffers and patches a mask
    only where it is non-empty.
    """
    diff = np.subtract(acid, base)
    ratio = np.abs(diff)
    small = ratio < 1e-10
    degenerate = acid < 1e-300
    any_degenerate = degenerate.any()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(base, acid, out=ratio)
        if any_degenerate:
            ratio[degenerate] = 0.0
        acid_new = np.multiply(diff, -rate)
        acid_new *= dt
        np.clip(acid_new, -700.0, 700.0, out=acid_new)
        np.exp(acid_new, out=acid_new)
        acid_new *= ratio
        np.subtract(1.0, acid_new, out=acid_new)
        np.divide(diff, acid_new, out=acid_new)
        if small.any():
            acid_small = acid[small]
            acid_new[small] = acid_small / (1.0 + rate * acid_small * dt)
    if any_degenerate:
        acid_new[degenerate] = 0.0
    np.clip(acid_new, 0.0, None, out=acid_new)
    base_new = np.subtract(acid_new, diff, out=diff)
    return acid_new, np.clip(base_new, 0.0, None, out=base_new)


class RigorousPEBSolver:
    """Operator-splitting reaction-diffusion solver for the PEB step.

    Parameters
    ----------
    grid, peb:
        Discretization and physics configuration (Table I defaults).
    lateral_mode:
        ``"dct"`` (exact spectral, default) or ``"fdm"`` (explicit
        Euler, kept for the solver-mode ablation).
    splitting:
        ``"lie"`` (first order) or ``"strang"`` (second order).
    time_step_s:
        Override of ``peb.time_step_s``; larger steps trade splitting
        accuracy for speed.
    """

    def __init__(self, grid: GridConfig, peb: PEBConfig, lateral_mode: str = "dct",
                 splitting: str = "lie", time_step_s: float | None = None):
        if lateral_mode not in ("dct", "fdm"):
            raise ValueError(f"unknown lateral_mode {lateral_mode!r}")
        if splitting not in ("lie", "strang"):
            raise ValueError(f"unknown splitting {splitting!r}")
        self.grid = grid
        self.peb = peb
        self.lateral_mode = lateral_mode
        self.splitting = splitting
        self.dt = time_step_s if time_step_s is not None else peb.time_step_s
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        self._steps = int(round(peb.duration_s / self.dt))
        if self._steps < 1:
            raise ValueError("duration shorter than one time step")
        # Propagators are immutable and keyed on (grid, physics, dt), so
        # identical solver configurations share operator instances (the
        # expm / eigenvalue setup is the dominant construction cost).
        if lateral_mode == "dct":
            self._lat_acid = cached_lateral_propagator(grid, peb.diffusivity("acid", "lateral"), self.dt)
            self._lat_base = cached_lateral_propagator(grid, peb.diffusivity("base", "lateral"), self.dt)
        else:
            limit = 0.5 / (peb.diffusivity("acid", "lateral") * (1.0 / grid.dx_nm ** 2 + 1.0 / grid.dy_nm ** 2))
            if self.dt > limit:
                raise ValueError(f"explicit lateral step unstable: dt={self.dt} > {limit:.3f}")
        self._z_acid = cached_z_propagator(grid, peb.diffusivity("acid", "normal"),
                                           peb.transfer_coefficient_acid, peb.acid_saturation, self.dt)
        self._z_base = cached_z_propagator(grid, peb.diffusivity("base", "normal"),
                                           peb.transfer_coefficient_base, peb.base_saturation, self.dt)

    # ------------------------------------------------------------------
    def _diffuse(self, acid: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with span("peb.lateral", mode=self.lateral_mode):
            if self.lateral_mode == "dct":
                acid = self._lat_acid.apply(acid)
                base = self._lat_base.apply(base)
            else:
                acid = lateral_step_fdm(acid, self.peb.diffusivity("acid", "lateral"), self.dt,
                                        self.grid.dx_nm, self.grid.dy_nm)
                base = lateral_step_fdm(base, self.peb.diffusivity("base", "lateral"), self.dt,
                                        self.grid.dx_nm, self.grid.dy_nm)
        with span("peb.z"):
            return self._z_acid.apply(acid), self._z_base.apply(base)

    def _react(self, acid, base, inhibitor, dt):
        with span("peb.react"):
            inhibitor = catalysis_step(inhibitor, acid, self.peb.catalysis_rate, dt)
            acid, base = neutralization_step(acid, base, self.peb.neutralization_rate, dt)
        return acid, base, inhibitor

    def solve(self, acid0: np.ndarray, record_every: int | None = None) -> PEBResult:
        """Run the bake from the initial photoacid latent image.

        ``acid0`` has shape (nz, ny, nx) with index 0 the resist top.
        Initial base and inhibitor are uniform per Table I.
        """
        if acid0.shape != self.grid.shape:
            raise ValueError(f"acid0 shape {acid0.shape} does not match grid {self.grid.shape}")
        acid = np.array(acid0, dtype=np.float64)
        base = np.full_like(acid, self.peb.base_initial)
        inhibitor = np.full_like(acid, self.peb.inhibitor_initial)
        result = PEBResult(acid=acid, base=base, inhibitor=inhibitor)
        with span("peb.solve", steps=self._steps, dt_s=self.dt,
                  splitting=self.splitting, lateral_mode=self.lateral_mode,
                  grid=list(self.grid.shape)):
            for step in range(self._steps):
                if self.splitting == "lie":
                    acid, base, inhibitor = self._react(acid, base, inhibitor, self.dt)
                    acid, base = self._diffuse(acid, base)
                else:
                    acid, base, inhibitor = self._react(acid, base, inhibitor, self.dt / 2.0)
                    acid, base = self._diffuse(acid, base)
                    acid, base, inhibitor = self._react(acid, base, inhibitor, self.dt / 2.0)
                if record_every and (step + 1) % record_every == 0:
                    result.times.append((step + 1) * self.dt)
                    result.trajectory.append({
                        "acid": acid.copy(), "base": base.copy(), "inhibitor": inhibitor.copy(),
                    })
        result.acid, result.base, result.inhibitor = acid, base, inhibitor
        return result
