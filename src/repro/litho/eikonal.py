"""3D Eikonal solvers for development-front propagation.

The resist profile after development is the level set of the arrival
time S solving |∇S| = 1/R (Section II-A of the paper, citing the fast
iterative method of Jeong & Whitaker [31]).  Three solvers are provided:

* :func:`fast_iterative` — vectorized active-set Jacobi iteration; the
  default for CD metrology.
* :func:`fast_marching` — heap-ordered Dijkstra-like solver with the
  Godunov upwind update; the reference.
* :func:`fast_sweeping` — Gauss-Seidel sweeps over the 8 axis
  orderings; simple and kept as an independent cross-check.

All support anisotropic grid spacing (dz differs from dx/dy here).
The development front enters from the resist top surface (z index 0).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

INFINITY = np.inf


def godunov_update(neighbors: list[tuple[float, float]], slowness: float) -> float:
    """Solve the Godunov upwind quadratic at one node.

    ``neighbors`` holds (value, spacing) pairs — the smaller of the two
    axis neighbours per axis (INFINITY if none).  Solves

        sum_i max((u - a_i) / h_i, 0)^2 = f^2

    by adding candidate axes in increasing a_i order.
    """
    terms = sorted((a, h) for a, h in neighbors if np.isfinite(a))
    if not terms:
        return INFINITY
    u = terms[0][0] + slowness * terms[0][1]
    for count in range(2, len(terms) + 1):
        if u <= terms[count - 1][0]:
            break
        # solve sum_{i<count} ((u - a_i)/h_i)^2 = f^2
        inv_h2 = np.array([1.0 / h ** 2 for _, h in terms[:count]])
        a_vals = np.array([a for a, _ in terms[:count]])
        alpha = inv_h2.sum()
        beta = -2.0 * (a_vals * inv_h2).sum()
        gamma = (a_vals ** 2 * inv_h2).sum() - slowness ** 2
        disc = beta ** 2 - 4.0 * alpha * gamma
        if disc < 0:
            break
        candidate = (-beta + np.sqrt(disc)) / (2.0 * alpha)
        if candidate >= terms[count - 1][0]:
            u = candidate
        else:
            break
    return u


def _axis_neighbors(times: np.ndarray, index: tuple[int, int, int],
                    spacing: tuple[float, float, float]) -> list[tuple[float, float]]:
    neighbors = []
    for axis in range(3):
        best = INFINITY
        for delta in (-1, 1):
            probe = list(index)
            probe[axis] += delta
            if 0 <= probe[axis] < times.shape[axis]:
                best = min(best, times[tuple(probe)])
        neighbors.append((best, spacing[axis]))
    return neighbors


def initial_arrival(slowness: np.ndarray, spacing: tuple[float, float, float]) -> np.ndarray:
    """Seed arrival times: the front has traversed the top cell layer."""
    times = np.full(slowness.shape, INFINITY, dtype=np.float64)
    times[0] = slowness[0] * spacing[0]
    return times


def fast_marching(slowness: np.ndarray, spacing: tuple[float, float, float]) -> np.ndarray:
    """Heap-ordered Eikonal solve; returns arrival times (same shape)."""
    if np.any(slowness <= 0):
        raise ValueError("slowness must be strictly positive")
    times = initial_arrival(slowness, spacing)
    nz, ny, nx = slowness.shape
    known = np.zeros(slowness.shape, dtype=bool)
    heap: list[tuple[float, tuple[int, int, int]]] = []
    for iy in range(ny):
        for ix in range(nx):
            heapq.heappush(heap, (times[0, iy, ix], (0, iy, ix)))
    offsets = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    while heap:
        value, index = heapq.heappop(heap)
        if known[index] or value > times[index]:
            continue
        known[index] = True
        for dz, dy, dx in offsets:
            neighbor = (index[0] + dz, index[1] + dy, index[2] + dx)
            if not (0 <= neighbor[0] < nz and 0 <= neighbor[1] < ny and 0 <= neighbor[2] < nx):
                continue
            if known[neighbor]:
                continue
            updated = godunov_update(_axis_neighbors(times, neighbor, spacing), slowness[neighbor])
            if updated < times[neighbor]:
                times[neighbor] = updated
                heapq.heappush(heap, (updated, neighbor))
    return times


def _sort_axes(a: list[np.ndarray], h: list[np.ndarray]) -> None:
    """Order three (value, spacing) rows by value, in place.

    A compare-swap network on pairs (0, 1), (1, 2), (0, 1) that swaps
    only when the first value is strictly greater, NaN counting as
    greater than any number: a stable sort, so tied values keep their
    axis order and NaN goes last, exactly as ``argsort`` orders them.
    """
    for i, j in ((0, 1), (1, 2), (0, 1)):
        swap = ~(a[i] <= a[j]) & ~np.isnan(a[j])
        a[i], a[j] = np.where(swap, a[j], a[i]), np.where(swap, a[i], a[j])
        h[i], h[j] = np.where(swap, h[j], h[i]), np.where(swap, h[i], h[j])


def _godunov_vectorized(a: list[np.ndarray], h: list[np.ndarray],
                        slowness: np.ndarray) -> np.ndarray:
    """Vectorized Godunov update over a set of cells.

    ``a`` holds, per axis, the smaller of the two neighbour arrival
    times at each cell and ``h`` the matching spacing; both lists are
    sorted in place.  Implements the same progressive quadratic as
    :func:`godunov_update` with numpy broadcasting.
    """
    _sort_axes(a, h)
    finite = [np.isfinite(a_m) for a_m in a]
    with np.errstate(invalid="ignore"):
        solution = a[0] + slowness * h[0]
        inv_h2 = [np.where(f_m, 1.0 / h_m ** 2, 0.0) for f_m, h_m in zip(finite, h)]
        alpha = inv_h2[0].copy()
        beta = np.where(finite[0], -2.0 * a[0] * inv_h2[0], 0.0)
        gamma = np.where(finite[0], a[0] ** 2 * inv_h2[0], 0.0) - slowness ** 2
        for m in (1, 2):
            use = finite[m] & (solution > a[m])
            beta_m = -2.0 * a[m] * inv_h2[m]
            gamma_m = a[m] ** 2 * inv_h2[m]
            alpha = alpha + np.where(use, inv_h2[m], 0.0)
            beta = beta + np.where(use, beta_m, 0.0)
            gamma = gamma + np.where(use, gamma_m, 0.0)
            disc = beta ** 2 - 4.0 * alpha * gamma
            valid = use & (disc >= 0.0)
            candidate = np.where(valid, (-beta + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * alpha), np.inf)
            improved = valid & (candidate >= a[m])
            solution = np.where(improved, candidate, solution)
            # roll back coefficients where the extra axis was rejected
            rollback = use & ~improved
            alpha = alpha - np.where(rollback, inv_h2[m], 0.0)
            beta = beta - np.where(rollback, beta_m, 0.0)
            gamma = gamma - np.where(rollback, gamma_m, 0.0)
    return solution


def fast_iterative(slowness: np.ndarray, spacing: tuple[float, float, float],
                   tolerance: float = 1e-9, max_iterations: int | None = None) -> np.ndarray:
    """Vectorized Jacobi fast-iterative Eikonal solve (Jeong & Whitaker style).

    Updates nodes simultaneously from their neighbours' current values
    and iterates to a fixed point.  Converges in roughly the number of
    grid cells the front traverses along its longest causal path.

    After the first sweep only the *active set* is recomputed: cells
    with at least one of their six neighbours changed in the previous
    sweep.  Any other cell would get the same Godunov value as before,
    which ``min(times, value)`` leaves unchanged, so the result is the
    same as sweeping the whole grid every iteration.  Times live in an
    ``inf``-bordered padded array, so each neighbour is one flat-offset
    gather.
    """
    if np.any(slowness <= 0):
        raise ValueError("slowness must be strictly positive")
    if max_iterations is None:
        max_iterations = 4 * sum(slowness.shape)
    padded_shape = tuple(n + 2 for n in slowness.shape)
    padded = np.full(padded_shape, INFINITY, dtype=np.float64)
    inner = (slice(1, -1),) * 3
    padded[inner] = initial_arrival(slowness, spacing)
    times = padded.reshape(-1)
    slow = np.ones(padded_shape, dtype=np.float64)
    slow[inner] = slowness
    slow = slow.reshape(-1)
    interior = np.zeros(padded_shape, dtype=bool)
    interior[inner] = True
    interior = interior.reshape(-1)
    offsets = (padded_shape[1] * padded_shape[2], padded_shape[2], 1)
    spacings = np.asarray(spacing, dtype=np.float64)
    active = np.flatnonzero(interior)
    for _ in range(max_iterations):
        current = times[active]
        minima = [np.minimum(times[active + step], times[active - step]) for step in offsets]
        updated = _godunov_vectorized(minima, list(spacings), slow[active])
        new_times = np.minimum(current, updated)
        times[active] = new_times
        with np.errstate(invalid="ignore"):
            change = current - new_times
        finite_change = change[np.isfinite(change)]
        converged = finite_change.size == 0 or finite_change.max() < tolerance
        if converged and not 0.0 < tolerance:
            # an unchanged finite cell outside the active set has a
            # change of exactly 0, which only a positive tolerance accepts
            converged = (np.count_nonzero(np.isfinite(times[interior]))
                         == np.count_nonzero(np.isfinite(new_times)))
        if converged and not np.any(np.isinf(padded[inner])):
            break
        changed = active[new_times != current]
        if changed.size == 0:
            break
        mark = np.zeros(times.size, dtype=bool)
        for step in offsets:
            mark[changed + step] = True
            mark[changed - step] = True
        active = np.flatnonzero(mark & interior)
    return padded[inner].copy()


def fast_sweeping(slowness: np.ndarray, spacing: tuple[float, float, float],
                  max_iterations: int = 12, tolerance: float = 1e-9) -> np.ndarray:
    """Gauss-Seidel fast sweeping Eikonal solve (cross-check solver).

    Slower in python than fast marching for large grids; intended for
    small-grid validation.
    """
    if np.any(slowness <= 0):
        raise ValueError("slowness must be strictly positive")
    times = initial_arrival(slowness, spacing)
    nz, ny, nx = slowness.shape
    orderings = list(itertools.product((1, -1), repeat=3))
    for _ in range(max_iterations):
        max_change = 0.0
        for dir_z, dir_y, dir_x in orderings:
            z_range = range(nz) if dir_z > 0 else range(nz - 1, -1, -1)
            y_range = range(ny) if dir_y > 0 else range(ny - 1, -1, -1)
            x_range = range(nx) if dir_x > 0 else range(nx - 1, -1, -1)
            for iz in z_range:
                for iy in y_range:
                    for ix in x_range:
                        index = (iz, iy, ix)
                        updated = godunov_update(_axis_neighbors(times, index, spacing),
                                                 slowness[index])
                        current = times[index]
                        if updated < current:
                            times[index] = updated
                            change = current - updated if np.isfinite(current) else INFINITY
                            max_change = max(max_change, change)
        if max_change < tolerance:
            break
    return times
