"""Dataset generation: the (photoacid → inhibitor) pairs that train and
evaluate every surrogate.

Mirrors Section IV of the paper: N seeded mask clips run through the
full rigorous flow (optics → Dill exposure → reaction-diffusion PEB).
Each sample records the inputs, targets, label transform, contact
geometry (for CD evaluation) and the rigorous solver's wall time (for
the runtime comparison).  Samples are cached on disk as ``.npz`` keyed
by a hash of the full configuration, so repeated experiment runs are
cheap.

Clips are mutually independent and every clip derives all of its
randomness from its own seed, so cache misses fan out across a
process pool (:func:`repro.runtime.parallel_map`): the arrays produced
are bit-for-bit identical for any worker count, only the recorded
wall times differ.  ``workers=1`` (or ``REPRO_WORKERS=1``) keeps the
historical in-process serial path; cache hits never touch the pool.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from repro.config import LithoConfig
from repro.core.label import inhibitor_to_label
from repro.litho import (
    MaskClip, Contact, generate_clip, aerial_image_stack, initial_photoacid,
    RigorousPEBSolver,
)
from repro.obs import counter, set_span_attrs, span
from repro.runtime import parallel_map


@dataclass
class PEBSample:
    """One clip's worth of simulation data."""

    seed: int
    acid: np.ndarray          # initial photoacid (nz, ny, nx)
    inhibitor: np.ndarray     # rigorous final inhibitor (nz, ny, nx)
    label: np.ndarray         # Y = -ln(-ln(I)/k_c)
    contacts: tuple[Contact, ...]
    rigorous_seconds: float


@dataclass
class PEBDataset:
    """A list of samples plus the configuration that produced them."""

    config: LithoConfig
    samples: list[PEBSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def inputs(self) -> np.ndarray:
        """(N, nz, ny, nx) stacked photoacid volumes."""
        return np.stack([s.acid for s in self.samples])

    def labels(self) -> np.ndarray:
        """(N, nz, ny, nx) stacked label volumes."""
        return np.stack([s.label for s in self.samples])

    def inhibitors(self) -> np.ndarray:
        """(N, nz, ny, nx) stacked ground-truth inhibitor volumes."""
        return np.stack([s.inhibitor for s in self.samples])

    def split(self, train_fraction: float = 0.8) -> tuple["PEBDataset", "PEBDataset"]:
        """Deterministic leading/trailing split (same split for all methods,
        mirroring the paper's fixed train-test split)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        cut = max(1, min(len(self.samples) - 1, int(round(len(self.samples) * train_fraction))))
        return (PEBDataset(self.config, self.samples[:cut]),
                PEBDataset(self.config, self.samples[cut:]))


def _config_key(config: LithoConfig, time_step_s: float, splitting: str) -> str:
    payload = json.dumps({"config": asdict(config), "dt": time_step_s, "split": splitting},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _contacts_to_array(contacts) -> np.ndarray:
    return np.array([[c.center_x_nm, c.center_y_nm, c.width_nm, c.height_nm]
                     for c in contacts])


def _contacts_from_array(values: np.ndarray) -> tuple[Contact, ...]:
    return tuple(Contact(*row) for row in values)


def simulate_clip(seed: int, config: LithoConfig, time_step_s: float = 0.25,
                  splitting: str = "strang") -> PEBSample:
    """Run the full rigorous flow for one seeded clip."""
    clip: MaskClip = generate_clip(seed, grid=config.grid)
    aerial = aerial_image_stack(clip.pattern, config.grid, config.optics)
    acid = initial_photoacid(aerial, config.exposure)
    solver = RigorousPEBSolver(config.grid, config.peb, splitting=splitting,
                               time_step_s=time_step_s)
    start = time.perf_counter()
    result = solver.solve(acid)
    elapsed = time.perf_counter() - start
    label = inhibitor_to_label(result.inhibitor, config.peb.catalysis_rate)
    return PEBSample(seed=seed, acid=acid, inhibitor=result.inhibitor, label=label,
                     contacts=clip.contacts, rigorous_seconds=elapsed)


def _load_sample(path: Path, seed: int) -> PEBSample:
    with np.load(path) as archive:
        return PEBSample(
            seed=seed, acid=archive["acid"], inhibitor=archive["inhibitor"],
            label=archive["label"],
            contacts=_contacts_from_array(archive["contacts"]),
            rigorous_seconds=float(archive["rigorous_seconds"]),
        )


def _save_sample(path: Path, sample: PEBSample) -> None:
    # Uncompressed: the float64 fields barely compress (~10%) and zlib
    # costs ~50 ms per clip in the parent after the pool returns.
    # ``np.load`` reads both forms, so older compressed entries still hit.
    np.savez(
        path, acid=sample.acid, inhibitor=sample.inhibitor,
        label=sample.label, contacts=_contacts_to_array(sample.contacts),
        rigorous_seconds=sample.rigorous_seconds)


def _simulate_clip_task(task: tuple) -> PEBSample:
    """Pool-worker entry point: one rigorous clip from its task tuple.

    Module-level so it pickles; everything it needs travels in the task
    (seed, config, dt, splitting) — no global state, which is what makes
    serial and parallel runs bitwise-identical.
    """
    seed, config, time_step_s, splitting = task
    return simulate_clip(seed, config, time_step_s, splitting)


def generate_dataset(num_clips: int, config: LithoConfig | None = None,
                     base_seed: int = 0, time_step_s: float = 0.25,
                     splitting: str = "strang", cache_dir: str | Path | None = None,
                     verbose: bool = False, workers: int | None = None) -> PEBDataset:
    """Generate (or load from cache) a dataset of ``num_clips`` samples.

    ``workers`` is the process count used for cache misses (default:
    ``REPRO_WORKERS`` or all cores; see :func:`repro.runtime.resolve_workers`).
    The sample arrays are identical for every worker count; only the
    per-sample ``rigorous_seconds`` wall times vary.
    """
    config = config if config is not None else LithoConfig()
    dataset = PEBDataset(config)
    key = _config_key(config, time_step_s, splitting)
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)

    seeds = [base_seed + i for i in range(num_clips)]
    paths = {seed: cache / f"clip_{key}_{seed}.npz" if cache is not None else None
             for seed in seeds}
    by_seed: dict[int, PEBSample] = {}
    missing: list[int] = []
    with span("dataset.generate", clips=num_clips, cached=cache is not None):
        for seed in seeds:
            path = paths[seed]
            if path is not None and path.exists():
                by_seed[seed] = _load_sample(path, seed)
            else:
                missing.append(seed)
        counter("dataset.cache_hits").inc(num_clips - len(missing))
        counter("dataset.cache_misses").inc(len(missing))
        set_span_attrs(hits=num_clips - len(missing), misses=len(missing))

        if missing:
            # Cache hits never reach the pool; only the misses fan out.
            tasks = [(seed, config, time_step_s, splitting) for seed in missing]
            results = parallel_map(_simulate_clip_task, tasks, workers=workers)
            for seed, sample in zip(missing, results):
                by_seed[seed] = sample
                path = paths[seed]
                if path is not None:
                    _save_sample(path, sample)

    for i, seed in enumerate(seeds):
        sample = by_seed[seed]
        dataset.samples.append(sample)
        if verbose:
            print(f"clip {i + 1}/{num_clips} (seed {seed}): "
                  f"{len(sample.contacts)} contacts, "
                  f"rigorous {sample.rigorous_seconds:.2f}s")
    return dataset
