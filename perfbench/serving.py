"""The ``serve_small`` workload.

It runs ``repro serve`` as a child process on SDM-PEB with the plan
engine and a pool of forked workers, and drives it over HTTP from this
process with at most ``nproc`` connections.  ``--max-batch`` is set to that connection count: with one
request in flight per connection no batch can be larger, and warm-up
drives every batch size from 1 to it on every worker so that plan
captures land in set-up, not in the measured window.
"""

from __future__ import annotations

import io
import os
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path

import numpy as np

import loadgen
from common import (
    BenchError, RssSampler, ServerProcess, fresh_dir, median, percentile,
    program_env,
)

CONNECTIONS = os.cpu_count() or 1
ARRIVAL_SEED = 20250
#: served outputs must match the in-process tape forward, and repeats of
#: a clip its first answer, this closely.  Plan replay is bitwise equal
#: to the tape at the same batch shape, but a clip's output moves by
#: ~3e-15 with the batch it is coalesced into (BLAS blocking), so exact
#: equality would fail on correct answers; bitwise misses are counted
#: and reported as ``repeats_not_bitwise``.
OUTPUT_ATOL = 1e-9
OUTPUT_RTOL = 1e-9


@dataclass(frozen=True)
class ServeSpec:
    size_um: float
    nx: int
    nz: int
    workers: int
    #: offered rate of the fixed-rate phase, about 30% of the closed-loop
    #: capacity at the seed commit: at half capacity, queueing amplified
    #: the box's run-to-run speed drift into a 15% spread of the median
    rate: float
    #: share of requests that repeat an earlier clip (response cache)
    repeat_frac: float
    #: rate ladder for max_rps, ascending
    ladder: tuple
    #: p95 latency limit a ladder rung must meet (~4x unloaded p50)
    p95_limit_ms: float
    reference_clips: int
    #: shares of --seconds for the fixed-rate phase (p50) and the
    #: closed-loop phase (capacity); the rate ladder gets the rest
    fixed_share: float
    closed_share: float
    #: launches per run; setup_s is their median
    setups: int


SPECS = {
    "serve_small": ServeSpec(size_um=1.0, nx=16, nz=2, workers=2, rate=25.0,
                             repeat_frac=0.25, ladder=(40.0, 55.0, 70.0),
                             p95_limit_ms=80.0, reference_clips=16,
                             fixed_share=0.45, closed_share=0.45, setups=5),
}


def _npz(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, acid=array)
    return buffer.getvalue()


def _decode(body: bytes) -> np.ndarray:
    with np.load(io.BytesIO(body)) as archive:
        return archive["prediction"]


class Traffic:
    """Seeded clips and arrival schedules, all built before any timing.

    Clip contents and which requests repeat an earlier clip come from
    ``--seed``.  What sets the timing does not: arrival times come from a
    Poisson stream fixed by the phase's rate and length, and with a
    worker pool each new clip is drawn until its content hash routes it
    to the worker named by a fixed uniform stream.  Every seed (and every
    commit) then meets the same bursts and the same worker collisions,
    so runs differ by what the server did, not by what a seed drew.
    """

    def __init__(self, spec: ServeSpec, seed: int, shape: tuple):
        self.spec = spec
        self.shape = shape
        self.rng = np.random.default_rng([seed, 1])
        self.shards = np.random.default_rng([ARRIVAL_SEED, 1])
        self.clips: list[np.ndarray] = []
        self.bodies: list[bytes] = []

    def _new_clip(self) -> int:
        from repro.serve import content_hash
        from repro.serve.router import shard_for

        workers = self.spec.workers
        shard = int(self.shards.integers(workers))
        clip = self.rng.random(self.shape)
        while shard_for(content_hash(clip), workers) != shard:
            clip = self.rng.random(self.shape)
        self.clips.append(clip)
        self.bodies.append(_npz(clip))
        return len(self.clips) - 1

    def closed(self, count: int):
        """(all-zero due times, distinct clips) for a closed-loop phase:
        capacity is the model's, without the response cache."""
        return np.zeros(count), np.array([self._new_clip() for _ in range(count)])

    def phase(self, rate: float, duration_s: float):
        """(due offsets, clip index per request) for one open-loop phase."""
        arrivals = np.random.default_rng(
            [ARRIVAL_SEED, round(rate * 1e3), round(duration_s * 1e3)])
        due = loadgen.poisson_schedule(arrivals, rate, duration_s)
        return due, self._clip_indices(len(due))

    def _clip_indices(self, count: int) -> np.ndarray:
        """Exactly ``repeat_frac`` of the requests (never the first) repeat
        a clip sent earlier in the phase; the rest are new clips."""
        repeats = np.zeros(count, dtype=bool)
        n_repeat = min(count - 1, round(self.spec.repeat_frac * count))
        if n_repeat > 0:
            repeats[1 + self.rng.choice(count - 1, size=n_repeat, replace=False)] = True
        index = np.empty(count, dtype=np.int64)
        for i in range(count):
            if repeats[i]:
                index[i] = index[self.rng.integers(i)]
            else:
                index[i] = self._new_clip()
        return index


def _checkpoint(work: Path, spec: ServeSpec) -> Path:
    from repro import nn
    from repro.config import GridConfig
    from repro.experiments import build_method
    from repro.serve import save_checkpoint

    grid = GridConfig(size_um=spec.size_um, nx=spec.nx, ny=spec.nx, nz=spec.nz)
    nn.init.seed(0)
    model, _ = build_method("SDM-PEB", grid)
    model.set_output_stats(0.5, 1.0)
    path = work / "sdmpeb.npz"
    save_checkpoint(model, path, method="SDM-PEB", grid=grid, name="sdmpeb")
    return path


def server_argv(ckpt: Path, work: Path, bootstrap: list[str] | None = None) -> list[str]:
    """``repro serve`` with CLI defaults except the port, engine, batch
    cap and where it writes its job store and flight dumps (``work``)."""
    head = bootstrap or [sys.executable, "-m", "repro.cli"]
    return head + ["serve", "--ckpt", str(ckpt), "--port", "0",
                   "--engine", "plan", "--max-batch", str(CONNECTIONS),
                   "--jobs-dir", str(work / "jobs"),
                   "--flight-dir", str(work)]


def _shard_stats(server: ServerProcess) -> list[tuple[int, int]]:
    """(batches_run, requests_done) per shard of the served model."""
    queues = server.get_json("/healthz")["queues"]
    (stats,) = queues.values()
    shards = stats["shards"]
    return [(shards[f"s{i}"]["batches_run"], shards[f"s{i}"]["requests_done"])
            for i in range(len(shards))]


def _send_together(port: int, bodies: list[bytes]) -> None:
    barrier = threading.Barrier(len(bodies))
    errors = []

    def one(body):
        conn = HTTPConnection("127.0.0.1", port, timeout=300)
        try:
            barrier.wait()
            conn.request("POST", "/v1/predict", body,
                         {"Content-Type": "application/octet-stream"})
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                errors.append(response.status)
        finally:
            conn.close()

    threads = [threading.Thread(target=one, args=(b,)) for b in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"warm-up requests failed: {errors}")


def warm_up(server: ServerProcess, workers: int, shape: tuple, rng) -> None:
    """Run one batch of every size 1..CONNECTIONS on every shard, using
    at most CONNECTIONS requests at a time."""
    from repro.serve import content_hash
    from repro.serve.router import shard_for

    def clip_for(shard: int) -> bytes:
        while True:
            clip = rng.random(shape)
            if shard_for(content_hash(clip), workers) == shard:
                return _npz(clip)

    for size in range(1, CONNECTIONS + 1):
        per_round = max(1, CONNECTIONS // size)
        for first in range(0, workers, per_round):
            shards = list(range(first, min(first + per_round, workers)))
            for _attempt in range(20):
                before = _shard_stats(server)
                _send_together(server.port, [clip_for(shard) for shard in shards
                                             for _ in range(size)])
                after = _shard_stats(server)
                if all((after[s][0] - before[s][0], after[s][1] - before[s][1])
                       == (1, size) for s in shards):
                    break
            else:
                raise BenchError(f"warm-up never coalesced batches of {size} "
                                 f"on shards {shards}")


def start_server(argv, work: Path, spec: ServeSpec, shape, rng) -> tuple[ServerProcess, float]:
    env = program_env({"REPRO_SERVE_WORKERS": str(spec.workers)})
    started = time.perf_counter()
    server = ServerProcess(argv, work, env)
    try:
        warm_up(server, spec.workers, shape, rng)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _batcher_window(before: dict, after: dict) -> dict:
    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    waits = delta("repro_serve_queue_wait_seconds_count")
    batches = delta("repro_serve_batch_compute_seconds_count")
    hits = delta("repro_serve_cache_hits_total")
    misses = delta("repro_serve_cache_misses_total")
    return {
        "queue_wait_ms": 1e3 * delta("repro_serve_queue_wait_seconds_sum") / max(waits, 1),
        "compute_ms": 1e3 * delta("repro_serve_batch_compute_seconds_sum") / max(batches, 1),
        "batch_size_mean": delta("repro_serve_batch_size_sum") / max(delta("repro_serve_batch_size_count"), 1),
        "cache_hit_frac": hits / max(hits + misses, 1),
        "rejected": delta("repro_serve_rejected_overload_total") + delta("repro_serve_rejected_closed_total"),
        "expired": delta("repro_serve_expired_total"),
    }


def _capacity(outcome: loadgen.Outcome, seconds: float) -> float:
    """Completions per second over the closed-loop phase."""
    return float(np.count_nonzero(outcome.ok & (outcome.done <= seconds))) / seconds


class ServeRun:
    """One launched server plus everything measured against it."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.spec = SPECS[name]
        self.seed = seed
        self.work = work
        self.shape = (self.spec.nz, self.spec.nx, self.spec.nx)
        self.ckpt = _checkpoint(work, self.spec)
        self.traffic = Traffic(self.spec, seed, self.shape)
        self.warm_rng = np.random.default_rng([seed, 2])
        self.problems: list[str] = []
        #: observations that are not failures (reported, not gated)
        self.notes = {"repeats_not_bitwise": 0}
        self.sent: list[tuple[np.ndarray, loadgen.Outcome]] = []

    # -- phases ----------------------------------------------------------
    def launch(self, bootstrap=None) -> tuple[ServerProcess, float]:
        launch_dir = fresh_dir(self.work, "server")
        return start_server(server_argv(self.ckpt, launch_dir, bootstrap),
                            launch_dir, self.spec, self.shape, self.warm_rng)

    def drive(self, server: ServerProcess, due, index,
              stop_after_s: float | None = None) -> loadgen.Outcome:
        outcome = loadgen.run(server.port, due,
                              [self.traffic.bodies[i] for i in index],
                              CONNECTIONS, stop_after_s=stop_after_s)
        self.sent.append((index[outcome.positions], outcome))
        return outcome

    def measure(self, server: ServerProcess, seconds: float) -> dict:
        """Fixed-rate phase, closed-loop capacity, then the rate ladder."""
        spec = self.spec
        fixed_s, closed_s = spec.fixed_share * seconds, spec.closed_share * seconds
        rung_s = (seconds - fixed_s - closed_s) / len(spec.ladder)
        fixed = self.traffic.phase(spec.rate, fixed_s)
        closed = self.traffic.closed(int(4 * spec.ladder[-1] * closed_s) + 8)
        rungs = [self.traffic.phase(rate, rung_s) for rate in spec.ladder]
        metrics0 = server.metrics()
        with RssSampler(server.proc.pid) as rss:
            outcome = self.drive(server, *fixed)
            metrics1 = server.metrics()
            capacity = self.drive(server, *closed, stop_after_s=closed_s)
            ladder = []
            for rate, (due, index) in zip(spec.ladder, rungs):
                ladder.append(self._rung(rate, self.drive(server, due, index)))
                if not ladder[-1]["pass"]:
                    break  # higher rungs only queue deeper
        self._check_window(server.get_json("/healthz"))
        result = self._latency(outcome)
        result["batcher"] = _batcher_window(metrics0, metrics1)
        result["rss_mb"] = rss.peak_mb
        result["capacity_rps"] = _capacity(capacity, closed_s)
        ladder.insert(0, self._rung(spec.rate, outcome))
        passing = 0.0
        for row in ladder:
            if not row["pass"]:
                break
            passing = row["achieved_rps"]
        result["max_rps"] = passing
        result["ladder"] = ladder
        return result

    def _rung(self, rate: float, outcome: loadgen.Outcome) -> dict:
        ok = outcome.ok
        span_s = max(outcome.done.max() - outcome.due.min(), 1e-9)
        p95 = percentile(1e3 * outcome.latency_s, 95) if ok.any() else float("inf")
        final_late_ms = 1e3 * outcome.late_s[-1]
        passed = bool(ok.all() and p95 <= self.spec.p95_limit_ms
                      and final_late_ms <= self.spec.p95_limit_ms)
        return {"rate": rate, "requests": len(ok), "p95_ms": p95,
                "final_late_ms": float(final_late_ms), "pass": passed,
                "achieved_rps": float(ok.sum()) / span_s}

    def _latency(self, outcome: loadgen.Outcome) -> dict:
        lat_ms = 1e3 * outcome.latency_s
        if lat_ms.size == 0:
            raise BenchError("no request succeeded")
        return {"requests": len(outcome.status),
                "p50_ms": median(lat_ms), "p95_ms": percentile(lat_ms, 95),
                "mean_from_send_ms": float(1e3 * (outcome.done - outcome.sent)[outcome.ok].mean()),
                "late_p95_ms": percentile(1e3 * outcome.late_s, 95),
                "lag_mean_ms": float(1e3 * outcome.lag.mean()),
                "lag_p95_ms": percentile(1e3 * outcome.lag, 95)}

    def check_generator(self, result: dict) -> None:
        """The generator, not the server, limited the run if it lagged its
        schedule while a connection was free by more than 5% of the mean
        arrival gap on average, or by more than a quarter of the median
        latency at p95."""
        gap_ms = 1e3 / self.spec.rate
        if (result["lag_mean_ms"] > 0.05 * gap_ms
                or result["lag_p95_ms"] > 0.25 * result["p50_ms"]):
            self.problems.append(
                f"generator lag mean {result['lag_mean_ms']:.2f} ms / p95 "
                f"{result['lag_p95_ms']:.2f} ms: the load generator, not the "
                "server, limited this run")

    def _check_window(self, after: dict) -> None:
        for pool in after["pools"].values():
            if pool["restarts"] or pool["alive"] != pool["workers"]:
                self.problems.append(f"worker pool unhealthy: {pool}")

    # -- output checks ---------------------------------------------------
    def check_outputs(self) -> int:
        """Failed requests, counting wrong outputs; fills ``problems``."""
        from repro.serve import load_checkpoint
        from repro.tensor import Tensor, no_grad

        failed = 0
        first: dict[int, np.ndarray] = {}
        for index, outcome in self.sent:
            for clip, status, body in zip(index, outcome.status, outcome.bodies):
                if status != 200:
                    failed += 1
                    continue
                out = _decode(body)
                if out.shape != self.shape or not np.all(np.isfinite(out)):
                    failed += 1
                    self.problems.append(f"bad output shape/values for clip {clip}")
                elif int(clip) in first and not np.allclose(
                        first[int(clip)], out, atol=OUTPUT_ATOL, rtol=OUTPUT_RTOL):
                    failed += 1
                    self.problems.append(f"repeat of clip {clip} answered differently")
                else:
                    if int(clip) in first and not np.array_equal(first[int(clip)], out):
                        self.notes["repeats_not_bitwise"] += 1
                    first.setdefault(int(clip), out)
        rng = np.random.default_rng([self.seed, 3])
        served = sorted(first)
        picks = rng.choice(served, size=min(self.spec.reference_clips, len(served)),
                           replace=False)
        model, _ = load_checkpoint(self.ckpt)
        model.eval()
        batch = np.stack([self.traffic.clips[i] for i in picks])
        with no_grad():
            reference = model(Tensor(batch)).numpy()
        for row, clip in zip(reference, picks):
            if not np.allclose(first[int(clip)], row, atol=OUTPUT_ATOL, rtol=OUTPUT_RTOL):
                failed += 1
                error = float(np.max(np.abs(first[int(clip)] - row)))
                self.problems.append(f"clip {clip} differs from the tape forward "
                                     f"by {error:.3g}")
        return failed


def timed(name: str, seed: int, seconds: float, work: Path) -> dict:
    run = ServeRun(name, seed, work)
    setups = []
    for _ in range(run.spec.setups - 1):
        server, setup_s = run.launch()
        setups.append(setup_s)
        server.stop()
    server, setup_s = run.launch()
    setups.append(setup_s)
    try:
        result = run.measure(server, seconds)
    finally:
        code = server.stop()
    if code != 0:
        run.problems.append(f"server exited with {code}:\n{server.output()}")
    failed = run.check_outputs()
    attempted = sum(len(outcome.status) for _, outcome in run.sent)
    run.check_generator(result)
    result.update(setup_s=median(setups), setups_s=setups, attempted=attempted,
                  failed=failed, problems=run.problems, notes=run.notes)
    return result


def _mean_ms(spans, name, pids=None) -> float:
    durations = [s["dur"] for s in spans
                 if s["name"] == name and (pids is None or s["pid"] in pids)]
    return 1e3 * float(np.mean(durations)) if durations else 0.0


def traced(name: str, seed: int, seconds: float, work: Path, bootstrap) -> dict:
    """Per-layer metrics: the same fixed-rate phase against an untraced
    and a traced server, plus a tape forward broken down by model part."""
    import tracer
    from layers import MODEL_PARTS, model_breakdown
    from repro.serve import load_checkpoint

    run = ServeRun(name, seed, work)
    phase = run.traffic.phase(run.spec.rate, seconds)
    server, _ = run.launch()
    try:
        untraced = run._latency(run.drive(server, *phase))
    finally:
        server.stop()
    trace_dir = work / "spans"
    server, _ = run.launch(bootstrap(trace_dir, "server"))
    try:
        metrics0 = server.metrics()
        health0 = server.get_json("/healthz")
        window_start = time.perf_counter()
        outcome = run.drive(server, *phase)
        metrics1 = server.metrics()
        health1 = server.get_json("/healthz")
    finally:
        code = server.stop()
    if code != 0:
        run.problems.append(f"traced server exited with {code}:\n{server.output()}")
    run._check_window(health1)
    failed = run.check_outputs()
    traced_lat = run._latency(outcome)
    spans = tracer.load_spans(trace_dir)
    tracer.self_times(spans)
    window = [s for s in spans if s["start"] >= window_start]
    batcher = _batcher_window(metrics0, metrics1)

    out = {"trace_overhead_pct": 100.0 * (traced_lat["p50_ms"] / untraced["p50_ms"] - 1.0)}
    miss_frac = 1.0 - batcher["cache_hit_frac"]
    out["server.frontend_ms"] = traced_lat["mean_from_send_ms"] - miss_frac * (
        batcher["queue_wait_ms"] + batcher["compute_ms"])
    out["server.validate_ms"] = _mean_ms(window, "server.validate")
    for key, value in batcher.items():
        out[f"batcher.{key}"] = value

    replays = [s for s in window if s["name"] == "plan.replay"
               and not s["attrs"].get("fallback")]
    out["plan.replay_ms"] = 1e3 * float(np.mean([s["dur"] for s in replays])) if replays else 0.0
    captures = [s for s in spans if s["name"] == "plan.capture"]
    out["plan.capture_s"] = float(sum(s["dur"] for s in captures))
    out["plan.fallbacks"] = sum(1 for s in window if s["name"] == "plan.replay"
                                and s["attrs"].get("fallback"))
    if any(s["start"] >= window_start for s in captures):
        run.problems.append("a plan was captured inside the measured window")
    by_shape = {}
    for s in captures:
        key = tuple(s["attrs"]["shape"][0])
        by_shape.setdefault(key, set()).add((s["attrs"]["ops"], s["attrs"]["arena_bytes"]))
    for key, values in by_shape.items():
        if len(values) != 1:
            run.problems.append(f"plan for {key} differs between captures: {values}")
    first = sorted(by_shape)
    out["plan.ops"] = min(by_shape[first[0]])[0] if first else 0
    out["plan.arena_bytes"] = sum(min(v)[1] for v in by_shape.values())

    parent = {s["pid"] for s in spans if s["name"] == "batcher.submit"}
    workers = {s["pid"] for s in replays} - parent
    out["pool.forward_ms"] = _mean_ms(window, "pool.forward")
    out["pool.hop_ms"] = (out["pool.forward_ms"] - _mean_ms(window, "plan.replay", workers)
                          if workers else 0.0)
    pools = health1.get("pools", {})
    done0 = [w["batches_done"] for p in health0.get("pools", {}).values() for w in p["per_worker"]]
    done1 = [w["batches_done"] for p in pools.values() for w in p["per_worker"]]
    deltas = [b - a for a, b in zip(done0, done1)]
    out["pool.balance"] = min(deltas) / max(deltas) if deltas and max(deltas) else 0.0
    out["pool.restarts"] = sum(p["restarts"] for p in pools.values())
    out["obs.health_ms"] = _mean_ms(window, "obs.health")

    model, _ = load_checkpoint(run.ckpt)
    model.eval()
    clip = run.traffic.clips[0]
    parts = model_breakdown(model, clip, repeats=3)
    for part in MODEL_PARTS:
        out[f"model.{part}_ms"] = 1e3 * parts[part]
    out["ssm.scan_ms"] = 1e3 * parts["scan"]
    out["tensor.conv3d_ms"] = 1e3 * parts["conv3d"]
    out["model.flops"] = parts["flops"]
    out["model.bytes"] = parts["bytes"]
    if not parts["repeatable"]:
        run.problems.append("model FLOP/byte counts differ between forwards")
    attempted = sum(len(o.status) for _, o in run.sent)
    return {"layers": out, "attempted": attempted, "failed": failed,
            "problems": run.problems, "spans": tracer.summarize(spans)}
