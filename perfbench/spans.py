"""In-memory span recorder for the traced benchmark run.

A span is (name, parent, start, end) in perf_counter nanoseconds.  Spans
are recorded only around calls made from the benchmark's own files; the
servelab package itself is never patched.  The layer of a span is the
part of its name before the first dot ("engine.metrics_exact.T" belongs
to "engine").  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import json
import time
from array import array
from statistics import median


class Tracer:
    """Collects spans and counters; write() dumps them when the run ends."""

    def __init__(self, capacity: int = 200_000):
        self.capacity = capacity
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @property
    def full(self) -> bool:
        return len(self.t0) >= self.capacity

    def wrap(self, name: str, fn):
        """fn with a span named `name` around every call."""
        nid = self._id(name)
        name_of, parent, t0s, t1s, stack = self.name_of, self.parent, self.t0, self.t1, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(t0s)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            t1s.append(0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()

        return traced

    def add_span(self, name: str, t0: int, t1: int, parent: int = -1) -> int:
        """Record a span measured elsewhere (e.g. inside a child process)."""
        self.name_of.append(self._id(name))
        self.parent.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)
        return len(self.t0) - 1

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def write(self, path) -> None:
        """Dump every span as JSON lines: name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.t0)):
                fh.write(json.dumps([self.names[self.name_of[i]], self.parent[i],
                                     self.t0[i], self.t1[i]]) + "\n")

    def self_times(self) -> dict[str, list[int]]:
        """Self time in ns of every span, grouped by span name."""
        n = len(self.t0)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        by_id: dict[int, list[int]] = {}
        for i in range(n):
            by_id.setdefault(self.name_of[i], []).append(self.t1[i] - self.t0[i] - child[i])
        return {self.names[nid]: vals for nid, vals in by_id.items()}


def summarize(selfs: dict[str, list[int]]) -> dict[str, dict]:
    """Per span name: count, total self time, mean and median self time."""
    return {name: {"count": len(vals), "self_ms": sum(vals) / 1e6,
                   "mean_self_us": sum(vals) / len(vals) / 1e3,
                   "median_self_us": median(vals) / 1e3}
            for name, vals in sorted(selfs.items())}
