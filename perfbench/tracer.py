"""In-memory span recorder that wraps a program's public functions.

The traced mode of the benchmark installs :class:`Tracer` wrappers
around calls into each layer before the program starts.  A span is
``(name, start, end, parent, attrs)``: start and end come from
``time.perf_counter`` (CLOCK_MONOTONIC, so spans from forked children
share the parent's time base) and ``parent`` is the enclosing span of
the same thread.

Spans stay in memory.  The process that installed the wrappers writes
them out at exit; a forked child (serving worker, job chunk, dataset
pool worker) inherits the wrappers and appends its own spans to
``spans-<pid>.jsonl`` each time its outermost span closes, because
pool workers are terminated with SIGTERM and never run exit hooks.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer", "load_spans", "self_times", "summarize"]


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)
        atexit.register(self.flush)

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _base(self) -> int:
        return getattr(self._local, "base", 0)

    def _after_fork(self) -> None:
        # the child keeps the forking thread's open spans on its stack;
        # they belong to the parent, whose buffer the child must not
        # write out a second time
        self.pid = os.getpid()
        self._lock = threading.Lock()  # another thread may have held it
        with self._lock:
            self.spans = []
        self._local.base = len(self._stack())

    def record(self, name: str, fn, attrs=None):
        """``fn`` wrapped so each call records one span named ``name``.

        ``attrs(args, kwargs, result)`` may return a dict stored with
        the span (counts, sizes, shapes).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            base = tracer._base()
            parent = stack[-1] if len(stack) > base else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if attrs is not None:
                    try:
                        extra = attrs(args, kwargs, result)
                    except Exception as error:  # noqa: BLE001 - never break the program
                        extra = {"attrs_error": repr(error)}
                with tracer._lock:
                    tracer.spans.append([name, start, end, span_id, parent,
                                         threading.get_ident(), extra])
                if tracer.pid != tracer.root_pid and len(stack) <= base:
                    tracer.flush()

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------
    def wrap_function(self, module_name: str, attr: str, name: str,
                      attrs=None) -> None:
        """Wrap ``module.attr`` and every loaded alias of that object.

        ``from x import f`` copies the function into the importing
        module, so each ``repro`` module holding the same object gets
        the wrapper too.  A target that no longer exists is listed in
        :attr:`missing` and its metrics read as absent, so a refactor
        that removes a layer does not stop the benchmark.
        """
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = self.record(name, original, attrs)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attr, None) is original):
                setattr(loaded, attr, wrapper)

    def wrap_method(self, module_name: str, qualname: str, name: str,
                    attrs=None) -> None:
        """Wrap ``Class.method`` given as ``"Class.method"``."""
        class_name, method = qualname.split(".")
        try:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{qualname}")
            return
        if isinstance(original, staticmethod):
            setattr(owner, method,
                    staticmethod(self.record(name, original.__func__, attrs)))
        else:
            setattr(owner, method, self.record(name, original, attrs))

    # -- output --------------------------------------------------------
    def flush(self) -> None:
        """Append this process's buffered spans to its own file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps([self.pid] + span) + "\n")


def load_spans(out_dir: str | Path) -> list[dict]:
    """Every span written under ``out_dir`` as dicts."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    pid, name, start, end, span_id, parent, tid, attrs = json.loads(line)
                except ValueError:
                    continue  # a child killed mid-write leaves a partial line
                spans.append({"pid": pid, "name": name, "start": start,
                              "end": end, "id": span_id, "parent": parent,
                              "tid": tid, "attrs": attrs or {}})
    return spans


def self_times(spans: list[dict]) -> None:
    """Set ``dur`` and ``self`` (duration minus direct children) in place."""
    by_key = {}
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"]
        by_key[(span["pid"], span["id"])] = span
    for span in spans:
        parent = by_key.get((span["pid"], span["parent"]))
        if parent is not None:
            parent["self"] -= span["dur"]


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total self and inclusive time (s)."""
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                  "total_s": 0.0})
    for span in spans:
        row = table[span["name"]]
        row["calls"] += 1
        row["self_s"] += span["self"]
        row["total_s"] += span["dur"]
    return dict(table)
