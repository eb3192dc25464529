"""In-memory span recording and the statistics the benchmark derives from it.

A span is (id, parent id, name, start, end) in `time.perf_counter` seconds.
Spans are kept in a list while the benchmark runs and written once at the
end.  A span's self time is its duration minus the part of its interval
that its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records nested spans and named counters in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span_id = len(self.spans)
        # reserve the slot so ids follow start order; the end is filled in below
        self.spans.append((span_id, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


class NullTracer:
    """Same interface as Tracer; records nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value: float = 1.0) -> None:
        pass


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans) -> dict[str, dict[str, list[float]]]:
    """Per span name, the list of durations and of self times (seconds)."""
    children = defaultdict(list)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    table: dict[str, dict[str, list[float]]] = defaultdict(lambda: {"dur": [], "self": []})
    for sid, _parent, name, start, end in spans:
        dur = end - start
        table[name]["dur"].append(dur)
        table[name]["self"].append(dur - covered(children.get(sid, [])))
    return dict(table)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90 that leaves at least ten samples above it."""
    for q in (99, 95, 90):
        if n * (100 - q) / 100 >= 10:
            return q
    return None
