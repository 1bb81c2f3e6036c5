"""Open-loop HTTP load with a fixed number of connections.

The schedule (due times and payload bytes) is built before the window
starts.  Each connection thread takes the next scheduled request, sleeps
until it is due if it is early, and sends it; a request that finds both
connections busy goes out late.  Latency counts from the due time, so a
server stall also charges the requests queued behind it.

Two lateness figures come back per request: ``late`` (sent - due: the
backlog, mostly the server's doing) and ``lag`` (sent - max(due, the
moment the thread was free to send): the generator's own delay, from
oversleeping or waiting for the interpreter lock).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException

import numpy as np


@dataclass
class Outcome:
    due: np.ndarray      # seconds, schedule offsets
    sent: np.ndarray     # seconds since window start
    done: np.ndarray
    lag: np.ndarray
    status: np.ndarray   # HTTP status, -1 for a connection failure
    bodies: list         # response bytes (None on failure)
    positions: np.ndarray  # index into the schedule of each request sent

    @property
    def ok(self) -> np.ndarray:
        return self.status == 200

    @property
    def latency_s(self) -> np.ndarray:
        """From due time, for successful requests."""
        return (self.done - self.due)[self.ok]

    @property
    def late_s(self) -> np.ndarray:
        return self.sent - self.due


def poisson_schedule(rng: np.random.Generator, rate: float,
                     duration_s: float) -> np.ndarray:
    """Arrival offsets of a Poisson process of ``rate`` per second."""
    count = max(1, int(rate * duration_s * 1.5) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    offsets = offsets[offsets < duration_s]
    return offsets if offsets.size else np.array([0.0])


def run(port: int, due: np.ndarray, bodies: list[bytes],
        connections: int, stop_after_s: float | None = None,
        timeout_s: float = 120.0) -> Outcome:
    """Send ``bodies[i]`` at offset ``due[i]``; returns per-request timings.

    With ``stop_after_s``, no request starts after that many seconds and
    the unsent ones are left out of the outcome (a closed-loop phase sets
    every due time to 0 and is bounded this way).
    """
    n = len(due)
    sent, done, lag = np.zeros(n), np.zeros(n), np.zeros(n)
    status = np.full(n, -1, dtype=np.int64)
    responses: list = [None] * n
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.02
    headers = {"Content-Type": "application/octet-stream"}

    def worker() -> None:
        conn = HTTPConnection("127.0.0.1", port, timeout=timeout_s)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= n:
                    return
                free = time.perf_counter() - start
                if stop_after_s is not None and free > stop_after_s:
                    return
                wait = due[i] - free
                if wait > 0:
                    time.sleep(wait)
                t_sent = time.perf_counter() - start
                try:
                    conn.request("POST", "/v1/predict", bodies[i], headers)
                    response = conn.getresponse()
                    body = response.read()
                    status[i] = response.status
                    responses[i] = body
                except (OSError, HTTPException):
                    conn.close()
                    conn = HTTPConnection("127.0.0.1", port, timeout=timeout_s)
                done[i] = time.perf_counter() - start
                sent[i] = t_sent
                lag[i] = t_sent - max(due[i], free)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    kept = done > 0  # a closed-loop phase leaves the tail unsent
    return Outcome(due=np.asarray(due, dtype=np.float64)[kept], sent=sent[kept],
                   done=done[kept], lag=lag[kept], status=status[kept],
                   bodies=[body for body, keep in zip(responses, kept) if keep],
                   positions=np.flatnonzero(kept))
