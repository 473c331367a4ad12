"""Span recording for the traced run, and the analysis of the spans it writes.

A span is one timed call across a layer boundary: its name, start, end, the
span that was open when it began, and the run id.  Spans and counters are
kept per thread in memory and written out once, when the run ends.  A span
that begins in a pool thread with nothing open in that thread takes as its
parent the innermost span open in the thread that installed the tracer, so a
pool's work is attributed to the traced call that was open when the pool ran.

The recording half runs inside the traced child; the analysis half runs in
the benchmark process and needs nothing beyond the standard library.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Per-thread span buffers, counters and distinct-input sets."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._main = self._state()

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "spans": [], "counts": Counter(), "inputs": defaultdict(set)}
            self._local.st = st
            with self._lock:
                st["thread"] = len(self._threads)
                self._threads.append(st)
        return st

    def wrap(self, name: str, fn, attrs=None):
        """fn with a span named `name` around every call.

        attrs(args, kwargs), when given, returns a dict stored on the span.
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            st = self._state()
            stack = st["stack"]
            if stack:
                parent = stack[-1]
            else:
                outer = self._main["stack"][-1:] if st is not self._main else []
                parent = outer[0] if outer else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                st["spans"].append(
                    (sid, parent, name, st["thread"], start, end, attrs(args, kwargs) if attrs else None)
                )

        return timed

    def count(self, name: str, fn, key=None):
        """fn with a call counter; key(args, kwargs) also tracks distinct inputs."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st = self._state()
            st["counts"][name] += 1
            if key is not None:
                st["inputs"][name].add(key(args, kwargs))
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str, **extra) -> None:
        counts = Counter()
        inputs = defaultdict(set)
        spans = []
        for st in self._threads:
            counts.update(st["counts"])
            for name, keys in st["inputs"].items():
                inputs[name] |= keys
            spans.extend(st["spans"])
        doc = {
            "run_id": self.run_id,
            "spans": spans,
            "counts": dict(counts),
            "distinct": {name: len(keys) for name, keys in inputs.items()},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ------------------------------------------------------------------ analysis

def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanSet:
    """Spans loaded from one traced run, indexed by name and by parent."""

    def __init__(self, doc: dict):
        self.counts = doc["counts"]
        self.distinct = doc["distinct"]
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for sid, parent, name, thread, start, end, attrs in doc["spans"]:
            s = {"id": sid, "parent": parent, "name": name, "thread": thread, "start": start, "end": end,
                 "attrs": attrs or {}}
            self.by_name[s["name"]].append(s)
            self.children[s["parent"]].append(s)

    @classmethod
    def empty(cls) -> "SpanSet":
        return cls({"run_id": None, "spans": [], "counts": {}, "distinct": {}})

    @classmethod
    def load(cls, path: str) -> "SpanSet":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def durations(self, name: str, where=None) -> list[float]:
        return [s["end"] - s["start"] for s in self.by_name[name] if where is None or where(s)]

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, span: dict) -> float:
        """Span duration minus the part of it covered by its child spans."""
        lo, hi = span["start"], span["end"]
        covered = _union_length(
            (max(c["start"], lo), min(c["end"], hi))
            for c in self.children[span["id"]]
            if c["end"] > lo and c["start"] < hi
        )
        return (hi - lo) - covered

    def self_busy(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.by_name[name])
