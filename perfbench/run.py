#!/usr/bin/env python3
"""SDM-PEB benchmark: serving, rigorous labels and OPC jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json`` with nothing wrapped; ``--trace 1`` runs
the workload untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  A readable report goes to standard
output first; the last line is the JSON result.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from pathlib import Path

import common
from common import ROOT, BenchError

WORKLOADS = ("serve_small", "labels", "opc")
BOOTSTRAP = Path(__file__).resolve().parent / "bootstrap.py"


def bootstrap(trace_dir: Path, group: str) -> list[str]:
    """Command prefix that starts the program with wrappers installed."""
    return [sys.executable, str(BOOTSTRAP), str(trace_dir), group, "--"]


def timed(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """(end-to-end metrics, full result) for one untraced run."""
    if workload == "serve_small":
        import serving
        result = serving.timed(workload, seed, seconds, work)
        throughput = result["capacity_rps"]
        extra = {"max_rps": result["max_rps"],
                 "generator_late_p95_ms": result["late_p95_ms"],
                 "generator_lag_p95_ms": result["lag_p95_ms"],
                 "latency_samples": result["requests"],
                 "ladder": [(row["rate"], round(row["p95_ms"], 1), row["pass"])
                            for row in result["ladder"]],
                 **result["notes"]}
    elif workload == "labels":
        import labels
        result = labels.timed(seed, seconds, work)
        throughput = result["clips_per_s"]
        extra = {"clips_per_s": result["clips_per_s"],
                 "latency_samples": result["clips"]}
    else:
        import opc
        result = opc.timed(seed, seconds, work)
        throughput = result["jobs_per_s"]
        extra = {"opc_job_s": result["opc_job_s"],
                 "opc_rms_nm": result["opc_rms_nm"],
                 "latency_samples": result["jobs"]}
    metrics = {"setup_s": result["setup_s"], "p50_ms": result["p50_ms"],
               "throughput_per_s": throughput, "rss_mb": result["rss_mb"]}
    extra["p95_ms"] = result["p95_ms"]
    extra["failed_frac"] = result["failed"] / max(result["attempted"], 1)
    extra["setups_s"] = result["setups_s"]
    return metrics, dict(result, extra=extra)


def traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    if workload == "serve_small":
        import serving
        return serving.traced(workload, seed, seconds, work, bootstrap)
    if workload == "labels":
        import labels
        return labels.traced(seed, seconds, work, bootstrap)
    import opc
    return opc.traced(seed, seconds, work, bootstrap)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_checkout()
        declared = _declared("per_layer" if args.trace else "end_to_end")
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an error, so the servers started below are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    environment = common.environment()
    work = common.work_dir(args.workload)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, work)
            # a layer the workload does not run reads 0
            values = {name: float(result["layers"].get(name, 0.0)) for name in declared}
            extra = {}
        else:
            values, result = timed(args.workload, args.seed, args.seconds, work)
            extra = result["extra"]
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if common.WORK.is_dir() and not any(common.WORK.iterdir()):
            common.WORK.rmdir()

    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"perfbench: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  wall {time.perf_counter() - started:.1f} s")
    print(f"environment {json.dumps(environment, sort_keys=True)}")
    for name, unit in declared.items():
        print(f"  {name:28s} {values[name]:14.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:28s} {value}")
    if args.trace:
        print(f"  {'span':28s} {'calls':>8s} {'self s':>10s} {'self ms/call':>13s}")
        for name, row in sorted(result["spans"].items()):
            print(f"  {name:28s} {row['calls']:8d} {row['self_s']:10.3f} "
                  f"{1e3 * row['self_s'] / row['calls']:13.3f}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
