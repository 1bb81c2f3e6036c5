"""The ``labels`` workload: rigorous label generation at 8x64x64.

``labels_child.py`` calls ``generate_dataset`` with the default
``LithoConfig`` (8x64x64), default dt and Strang splitting,
``workers=nproc`` and an empty cache directory per call, so every clip
runs the rigorous solver in a forked pool worker.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import BenchError, RssSampler, fresh_dir, median, percentile, program_env

CHILD = Path(__file__).resolve().parent / "labels_child.py"
BOOTSTRAP = Path(__file__).resolve().parent / "bootstrap.py"
SETUPS = 5
#: two clips per pool worker per call amortizes the pool's fork
CLIPS_PER_CALL = 2 * (os.cpu_count() or 1)
#: the pool worker's label must match a serial simulate_clip this closely
#: (same code path and operation order, so any difference is a defect)
LABEL_ATOL = 1e-10


def _spawn(args: list[str], work: Path, trace_dir: Path | None = None):
    head = [sys.executable, str(CHILD)]
    if trace_dir is not None:
        head = [sys.executable, str(BOOTSTRAP), str(trace_dir), "labels", "--"]
    return subprocess.Popen(head + args, cwd=work, env=program_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)


def _wait_ready(proc) -> None:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"labels child failed to start: {line!r} {err[-2000:]}")


def setup_time(work: Path) -> float:
    started = time.perf_counter()
    proc = _spawn(["--base-seed", "0", "--seconds", "0", "--clips-per-call", "1",
                   "--work", str(work), "--setup-only"], work)
    _wait_ready(proc)
    elapsed = time.perf_counter() - started
    proc.communicate()
    return elapsed


def generate(seed: int, seconds: float, work: Path,
             trace_dir: Path | None = None) -> dict:
    """One child run; returns per-call records and peak RSS."""
    work = fresh_dir(work, "labels")
    base = seed * 100_000
    keep = base + int(np.random.default_rng([seed, 4]).integers(CLIPS_PER_CALL))
    proc = _spawn(["--base-seed", str(base), "--seconds", str(seconds),
                   "--clips-per-call", str(CLIPS_PER_CALL), "--work", str(work),
                   "--keep", str(keep)], work, trace_dir)
    with RssSampler(proc.pid) as rss:
        _wait_ready(proc)
        out, err = proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"labels child exited {proc.returncode}: {err[-2000:]}")
    calls = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not calls:
        raise BenchError("labels child completed no generate_dataset call")
    return {"calls": calls, "rss_mb": rss.peak_mb, "keep": keep, "work": work}


def check(run: dict) -> tuple[int, list[str]]:
    """Range checks on every label, and one label against simulate_clip."""
    from repro.config import LithoConfig
    from repro.data.dataset import simulate_clip
    from repro.runtime.fft import set_fft_workers

    problems, failed = [], 0
    shape = list(LithoConfig().grid.shape)
    for call in run["calls"]:
        for clip in call["clips"]:
            ok = (clip["finite"] and clip["shape"] == shape
                  and -1e-12 <= clip["inhibitor_min"]
                  and clip["inhibitor_max"] <= 1.0 + 1e-12)
            if not ok:
                failed += 1
                problems.append(f"label of seed {clip['seed']} fails range checks: {clip}")
    # the reference runs single-threaded like a pool worker; pocketfft's
    # thread count does not change its results, only its speed here
    set_fft_workers(1)
    reference = simulate_clip(run["keep"], LithoConfig())
    with np.load(run["work"] / f"label-{run['keep']}.npz") as saved:
        for key in ("label", "inhibitor"):
            error = float(np.max(np.abs(saved[key] - getattr(reference, key))))
            if error > LABEL_ATOL:
                failed += 1
                problems.append(f"{key} of seed {run['keep']} differs from "
                                f"simulate_clip by {error:.3g}")
    return failed, problems


def summarize(run: dict) -> dict:
    clips = [clip for call in run["calls"] for clip in call["clips"]]
    solve_ms = [1e3 * clip["rigorous_s"] for clip in clips]
    wall = sum(call["wall_s"] for call in run["calls"])
    return {"clips": len(clips), "clips_per_s": len(clips) / wall,
            "p50_ms": median(solve_ms), "p95_ms": percentile(solve_ms, 95),
            "rss_mb": run["rss_mb"]}


def timed(seed: int, seconds: float, work: Path) -> dict:
    setups = [setup_time(work) for _ in range(SETUPS)]
    run = generate(seed, seconds, work)
    result = summarize(run)
    failed, problems = check(run)
    result.update(setup_s=median(setups), setups_s=setups,
                  attempted=result["clips"], failed=failed, problems=problems)
    return result


def _inside(span: dict, outer: dict) -> bool:
    return outer["start"] <= span["start"] and span["end"] <= outer["end"]


def traced(seed: int, seconds: float, work: Path, bootstrap) -> dict:
    """Per-layer metrics from one untraced and one traced child run."""
    import tracer

    plain = summarize(generate(seed, seconds, work))
    trace_dir = work / "spans"
    run = generate(seed, seconds, work, trace_dir)
    result = summarize(run)
    failed, problems = check(run)
    spans = tracer.load_spans(trace_dir)
    tracer.self_times(spans)
    workers = os.cpu_count() or 1

    def mean(name, scale):
        values = [s["dur"] for s in spans if s["name"] == name]
        return scale * float(np.mean(values)) if values else 0.0

    solves = [s for s in spans if s["name"] == "peb.solve"]
    steps = set()
    for solve in solves:
        lateral = sum(1 for s in spans if s["name"] == "peb.lateral"
                      and s["pid"] == solve["pid"] and s["parent"] == solve["id"])
        steps.add(lateral // 2)  # acid and base each diffuse once per step
    if len(steps) > 1:
        problems.append(f"solver step counts differ between solves: {sorted(steps)}")
    clips = [s for s in spans if s["name"] == "data.clip"]
    calls = [s for s in spans if s["name"] == "data.generate"]
    busy = sum(s["dur"] for s in clips)
    overheads = [call["dur"] - sum(c["dur"] for c in clips if _inside(c, call)) / workers
                 for call in calls]
    layers = {
        "optics.aerial_ms": mean("optics.aerial", 1e3),
        "peb.solve_s": mean("peb.solve", 1.0),
        "peb.lateral_ms": mean("peb.lateral", 1e3),
        "peb.z_ms": mean("peb.z", 1e3),
        "peb.react_ms": mean("peb.react", 1e3),
        "peb.steps": min(steps) if steps else 0,
        "data.clip_s": mean("data.clip", 1.0),
        "runtime.busy_frac": busy / (workers * sum(c["dur"] for c in calls)) if calls else 0.0,
        "runtime.pool_overhead_s": float(np.mean(overheads)) if overheads else 0.0,
        "trace_overhead_pct": 100.0 * (plain["clips_per_s"] / result["clips_per_s"] - 1.0),
    }
    return {"layers": layers, "attempted": result["clips"], "failed": failed,
            "problems": problems, "spans": tracer.summarize(spans)}
