"""In-memory span tracing around calls into vcause's public functions.

The tracer wraps functions where the program looks them up (a module
attribute or a class attribute), records one span per call while it is
active, and restores the originals when it is removed. Spans carry a name,
start and end times, the index of the enclosing span and an operation label
(a query index or an ingest epoch) set by the benchmark.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager

_NO_PARENT = -1


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, op label); a slot is reserved when
        # the span opens so that children can point at it
        self.spans: list[tuple | None] = []
        self.active = False
        self.op = None
        self._stack = [_NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a traced wrapper until restore()."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    @contextmanager
    def paused(self):
        """Run untimed checks without recording them."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- analysis --------------------------------------------------------------

    def self_times(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, float]]:
        """Self and total time per span name over spans[lo:hi]. Self time is
        a span's duration minus the time its direct children cover."""
        child = [0.0] * (hi - lo)
        for name, start, end, parent, _ in self.spans[lo:hi]:
            if parent >= lo:
                child[parent - lo] += end - start
        own: dict[str, float] = {}
        total: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans[lo:hi]):
            own[name] = own.get(name, 0.0) + (end - start) - child[i]
            total[name] = total.get(name, 0.0) + (end - start)
        return own, total

    def count(self, lo: int, hi: int, name: str, op_below: int | None = None) -> int:
        return sum(
            1
            for s in self.spans[lo:hi]
            if s[0] == name and (op_below is None or s[4] < op_below)
        )

    def top_level_time(self, lo: int, hi: int) -> float:
        """Time covered by outermost spans recorded inside an operation."""
        return sum(
            end - start
            for _, start, end, parent, op in self.spans[lo:hi]
            if parent == _NO_PARENT and op is not None
        )

    def write(self, path) -> None:
        """Write every span as gzip'd CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                op_text = "" if op is None else str(op).replace(",", ";")
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f},{op_text}\n")
