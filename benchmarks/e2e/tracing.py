"""In-memory spans recorded from the benchmark's own files.

A span is ``(id, name, layer, start, end, parent, workload, job)``. The
harness opens one around every call it makes into a layer's public
function; nothing inside ``src/repro`` is instrumented. Spans stay in a
list until the run ends and are then written to ``trace.json``.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so nested spans never count a second twice and the
self times add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """Thread-aware span recorder (parents are tracked per thread)."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, job: "str | None" = None,
             parent: "int | None" = None):
        """Record one span. ``parent`` names the causing span when it
        was opened on another thread (a client thread's first span)."""
        stack = self._stack.__dict__.setdefault("spans", [])
        with self._lock:
            span_id = next(self._ids)
        record = {
            "id": span_id,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else parent,
            "workload": self.workload,
            "job": job,
        }
        stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)


class NullTracer:
    """Tracing off: the same call sites, one shared no-op context."""

    enabled = False
    spans: list = []
    _noop = contextlib.nullcontext()

    def span(self, name: str, layer: str, job: "str | None" = None,
             parent: "int | None" = None):
        return self._noop


def _covered(intervals: list) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_seconds(spans: list) -> dict:
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children[span["id"]]
        ]
        out[span["id"]] = (span["end"] - span["start"]) - _covered(
            [iv for iv in clipped if iv[1] > iv[0]]
        )
    return out


def name_self_seconds(spans: list) -> dict:
    """Span name -> list of self times (one per occurrence)."""
    own = self_seconds(spans)
    by_name: dict = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(own[span["id"]])
    return dict(by_name)
