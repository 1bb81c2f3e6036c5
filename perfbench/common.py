"""Shared pieces: locating the checkout, the program's processes, stats."""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot trust what it measured."""


def require_checkout() -> None:
    """Fail fast unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}; run from the "
                         "root of a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(name: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def fresh_dir(work: Path, prefix: str) -> Path:
    """A new directory under ``work`` for one launch of the program."""
    index = len(list(work.glob(f"{prefix}-*")))
    path = work / f"{prefix}-{index}"
    path.mkdir()
    return path


#: one BLAS thread per process: two forked serving workers with nproc
#: BLAS threads each oversubscribe the cores, and their forward times then
#: swing 2-4x from request to request (see README.md)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def program_env(extra: dict | None = None) -> dict:
    """Environment for the program: its sources on the path, no tracing
    switched on by the caller's environment, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("REPRO_TRACE", None)
    env.update(THREAD_ENV)
    env.update(extra or {})
    return env


def environment() -> dict:
    """What the numbers depend on besides the code, as the program sees it."""
    import scipy

    env = program_env()
    threads = {key: env.get(key) for key in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "REPRO_FFT_WORKERS", "REPRO_WORKERS")}
    try:
        from repro.runtime.fft import fft_workers
        threads["fft_workers"] = fft_workers()
    except ImportError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": threads}


# -- process tree memory ----------------------------------------------

def _children(pid: int) -> list[int]:
    kids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                kids.extend(int(x) for x in handle.read().split())
    except OSError:
        pass
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_hwm_mb(pid: int) -> float:
    """Sum of peak resident sets of ``pid`` and its live descendants."""
    total, todo = 0, [pid]
    while todo:
        current = todo.pop()
        total += _hwm_kb(current)
        todo.extend(_children(current))
    return total / 1024.0


class RssSampler:
    """Largest :func:`tree_hwm_mb` seen while running (short-lived
    children only count while they are alive, hence the sampling)."""

    def __init__(self, pid: int, interval_s: float = 0.25):
        self.pid = pid
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._interval_s = interval_s
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self._interval_s)

    def sample(self) -> float:
        self.peak_mb = max(self.peak_mb, tree_hwm_mb(self.pid))
        return self.peak_mb

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# -- the server process -------------------------------------------------

class ServerProcess:
    """``repro serve`` in a child process, on an ephemeral port."""

    def __init__(self, argv: list[str], cwd: Path, env: dict,
                 ready_timeout_s: float = 120.0):
        self.cwd = cwd
        self.log = open(cwd / "server.log", "w+")
        self.proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL)
        self.port = self._wait_ready(ready_timeout_s)

    def _wait_ready(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.log.seek(0)
            for line in self.log.read().splitlines():
                if line.startswith("listening on http://"):
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchError(f"server did not become ready:\n{self.output()}")

    def output(self) -> str:
        return (self.cwd / "server.log").read_text()[-4000:]

    def connection(self, timeout_s: float = 120.0) -> HTTPConnection:
        return HTTPConnection("127.0.0.1", self.port, timeout=timeout_s)

    def get_json(self, path: str) -> dict:
        conn = self.connection()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise BenchError(f"GET {path} -> {response.status}: {body[:200]!r}")
            return json.loads(body)
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """Unlabelled samples of ``/metrics`` as ``{name: value}``."""
        conn = self.connection()
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                values[name] = float(value)
        return values

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


# -- statistics ---------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))
