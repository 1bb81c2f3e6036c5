"""The ``opc`` workload: gradient OPC jobs over ``POST /v1/jobs``.

The same ``repro serve`` binary (over the small SDM-PEB checkpoint; the
Gaussian PEB backend does not touch it) runs ``opc_gradient`` jobs at
8x64x64 for 8 iterations, one job in flight at a time.  Clip seeds come
from a fixed set so every run measures the same work; ``--seed`` fixes
the order they are submitted in.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from common import (
    BenchError, RssSampler, ServerProcess, fresh_dir, median, percentile,
    program_env,
)
from serving import SPECS, _checkpoint, server_argv

SETUPS = 5
#: clip seeds whose jobs take similar time (2.7-3.3 s) at the seed commit
CLIP_SEEDS = (4, 6, 9, 10)
JOB_PARAMS = {"size_um": 2.0, "nx": 64, "ny": 64, "nz": 8, "iterations": 8,
              "backend": "gaussian"}
#: a job must end at or below its initial CD-RMSE and under this target
TARGET_RMS_NM = 15.0
POLL_S = 0.01
#: set-up runs one tiny job so the first measured job does not pay the
#: server's first import of the OPC stack
WARM_PARAMS = {"size_um": 0.5, "nx": 16, "ny": 16, "nz": 2, "iterations": 1,
               "seed": 1}


def launch(work: Path, ckpt: Path, bootstrap=None) -> tuple[ServerProcess, float]:
    work = fresh_dir(work, "server")
    started = time.perf_counter()
    server = ServerProcess(server_argv(ckpt, work, bootstrap), work, program_env())
    try:
        warm = run_job(server, WARM_PARAMS)
    except BaseException:
        server.stop()
        raise
    if warm["state"] != "completed":
        server.stop()
        raise BenchError(f"warm-up job ended {warm['state']}: {warm.get('error')}")
    return server, time.perf_counter() - started


def run_job(server: ServerProcess, params: dict) -> dict:
    conn = server.connection()
    try:
        body = json.dumps({"type": "opc_gradient", "params": params})
        started = time.perf_counter()
        conn.request("POST", "/v1/jobs", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        record = json.loads(response.read())
        if response.status != 202:
            raise BenchError(f"job submit -> {response.status}: {record}")
        while record["state"] not in ("completed", "failed", "cancelled"):
            time.sleep(POLL_S)
            conn.request("GET", f"/v1/jobs/{record['id']}")
            record = json.loads(conn.getresponse().read())
        record["job_s"] = time.perf_counter() - started
        return record
    finally:
        conn.close()


def drive(server: ServerProcess, seed: int, seconds: float) -> list[dict]:
    order = np.random.default_rng([seed, 5]).permutation(CLIP_SEEDS)
    jobs = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        clip_seed = int(order[len(jobs) % len(order)])
        jobs.append(run_job(server, dict(JOB_PARAMS, seed=clip_seed)))
    return jobs


def check(jobs: list[dict]) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for job in jobs:
        result = job.get("result") or {}
        if job["state"] != "completed":
            failed += 1
            problems.append(f"job {job['id']} ended {job['state']}: {job.get('error')}")
        elif not (result["final_rms_nm"] <= result["initial_rms_nm"]
                  and result["final_rms_nm"] < TARGET_RMS_NM):
            failed += 1
            problems.append(f"job {job['id']} final CD-RMSE {result['final_rms_nm']:.2f} nm "
                            f"(initial {result['initial_rms_nm']:.2f}, target "
                            f"{TARGET_RMS_NM}) ")
    return failed, problems


def summarize(jobs: list[dict]) -> dict:
    job_ms = [1e3 * job["job_s"] for job in jobs]
    done = [job["result"] for job in jobs if job.get("result")]
    return {"jobs": len(jobs), "p50_ms": median(job_ms),
            "p95_ms": percentile(job_ms, 95),
            "jobs_per_s": len(jobs) / (1e-3 * sum(job_ms)),
            "opc_job_s": median(job_ms) / 1e3,
            "opc_rms_nm": median([r["final_rms_nm"] for r in done]) if done else float("nan"),
            "forward_solves": median([r["forward_solves"] for r in done]) if done else 0}


def timed(seed: int, seconds: float, work: Path) -> dict:
    ckpt = _checkpoint(work, SPECS["serve_small"])
    setups = []
    for _ in range(SETUPS - 1):
        server, setup_s = launch(work, ckpt)
        setups.append(setup_s)
        server.stop()
    server, setup_s = launch(work, ckpt)
    setups.append(setup_s)
    try:
        with RssSampler(server.proc.pid) as rss:
            jobs = drive(server, seed, seconds)
    finally:
        code = server.stop()
    result = summarize(jobs)
    failed, problems = check(jobs)
    if code != 0:
        problems.append(f"server exited with {code}")
    result.update(setup_s=median(setups), setups_s=setups, rss_mb=rss.peak_mb,
                  attempted=len(jobs), failed=failed, problems=problems)
    return result


def traced(seed: int, seconds: float, work: Path, bootstrap) -> dict:
    """Per-layer metrics from one untraced and one traced server."""
    import tracer

    ckpt = _checkpoint(work, SPECS["serve_small"])
    server, _ = launch(work, ckpt)
    try:
        plain = summarize(drive(server, seed, seconds))
    finally:
        server.stop()
    trace_dir = work / "spans"
    server, _ = launch(work, ckpt, bootstrap(trace_dir, "server"))
    try:
        window_start = time.perf_counter()
        jobs = drive(server, seed, seconds)
    finally:
        code = server.stop()
    result = summarize(jobs)
    failed, problems = check(jobs)
    if code != 0:
        problems.append(f"traced server exited with {code}")
    spans = [s for s in tracer.load_spans(trace_dir) if s["start"] >= window_start]
    tracer.self_times(spans)

    def mean(name, scale=1e3):
        values = [s["dur"] for s in spans if s["name"] == name]
        return scale * float(np.mean(values)) if values else 0.0

    ids = {job["id"] for job in jobs}
    submitted = {s["attrs"]["job"]: s["end"] for s in spans
                 if s["name"] == "jobs.submit" and s["attrs"].get("job") in ids}
    running = {}
    for s in sorted(spans, key=lambda s: s["start"]):
        if (s["name"] == "jobs.transition" and s["attrs"].get("state") == "running"
                and s["attrs"].get("job") in submitted):
            running.setdefault(s["attrs"]["job"], s["start"])
    waits = [running[j] - submitted[j] for j in running]
    chunks = [s for s in spans if s["name"] == "jobs.chunk"]
    steps = [s for s in spans if s["name"] == "ilt.step"]
    overhead = [c["dur"] - sum(s["dur"] for s in steps
                               if c["start"] <= s["start"] and s["end"] <= c["end"])
                for c in chunks]
    per_job = {}
    for c in chunks:
        per_job[c["attrs"].get("job")] = per_job.get(c["attrs"].get("job"), 0) + 1
    solves = {job["result"]["forward_solves"] for job in jobs if job.get("result")}
    checkpoint_bytes = {s["attrs"]["bytes"] for s in spans if s["name"] == "jobs.checkpoint"}
    for label, values in (("chunks per job", set(per_job.values())),
                          ("forward solves per job", solves)):
        if len(values) > 1:
            problems.append(f"{label} differ between jobs: {sorted(values)}")
    layers = {
        "ilt.step_ms": mean("ilt.step"),
        "ilt.raster_ms": mean("ilt.raster"),
        "ilt.aerial_ms": mean("ilt.aerial"),
        "ilt.peb_ms": mean("ilt.peb"),
        "ilt.metrology_ms": mean("ilt.metrology"),
        "ilt.forward_solves": min(solves) if solves else 0,
        "tensor.backward_ms": mean("tensor.backward"),
        "jobs.start_wait_ms": 1e3 * float(np.mean(waits)) if waits else 0.0,
        "jobs.chunks": min(per_job.values()) if per_job else 0,
        "jobs.chunk_overhead_ms": 1e3 * float(np.mean(overhead)) if overhead else 0.0,
        "jobs.checkpoint_ms": mean("jobs.checkpoint"),
        "jobs.checkpoint_bytes": max(checkpoint_bytes) if checkpoint_bytes else 0,
        "trace_overhead_pct": 100.0 * (result["opc_job_s"] / plain["opc_job_s"] - 1.0),
    }
    return {"layers": layers, "attempted": len(jobs), "failed": failed,
            "problems": problems, "spans": tracer.summarize(spans)}
