"""Label generation as a user runs it: ``repro.data.generate_dataset``.

Run by ``labels.py`` as a child process so that set-up (interpreter and
imports) and the memory of the process tree are the program's alone.
Prints ``ready`` once imported, then one JSON line per
``generate_dataset`` call (each into an empty cache directory) until
``--seconds`` have passed, and saves the labels of ``--keep`` seeds for
the parent's reference check.

    python perfbench/labels_child.py --base-seed S --seconds N \
        --clips-per-call K --work DIR [--keep SEED ...] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--base-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--clips-per-call", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--keep", type=int, nargs="*", default=[])
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import numpy as np

    from repro.config import LithoConfig
    from repro.data import generate_dataset

    config = LithoConfig()
    workers = os.cpu_count() or 1
    print("ready", flush=True)
    if args.setup_only:
        return 0
    work = Path(args.work)
    keep = set(args.keep)
    started = time.perf_counter()
    call = 0
    while time.perf_counter() - started < args.seconds:
        base = args.base_seed + call * args.clips_per_call
        cache = work / f"cache-{call}"
        t0 = time.perf_counter()
        dataset = generate_dataset(args.clips_per_call, config, base_seed=base,
                                   cache_dir=cache, workers=workers)
        wall = time.perf_counter() - t0
        clips = []
        for sample in dataset.samples:
            clips.append({
                "seed": sample.seed,
                "rigorous_s": sample.rigorous_seconds,
                "finite": bool(np.all(np.isfinite(sample.label))
                               and np.all(np.isfinite(sample.inhibitor))),
                "inhibitor_min": float(sample.inhibitor.min()),
                "inhibitor_max": float(sample.inhibitor.max()),
                "shape": list(sample.label.shape),
            })
            if sample.seed in keep:
                np.savez(work / f"label-{sample.seed}.npz", label=sample.label,
                         inhibitor=sample.inhibitor)
        print(json.dumps({"wall_s": wall, "clips": clips}), flush=True)
        call += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
