"""In-memory spans for the traced run, and a timing :class:`Metric`.

A span is ``(id, name, start_ns, end_ns, parent, rid)``: ``parent`` is
the id of the span that caused it (``None`` for a root) and ``rid`` the
request every span of one query shares.  Spans are kept in a list and
written out once, at the end of the run (:meth:`SpanRecorder.dump`).

Spans come from the benchmark's own code, around calls into each
layer's public functions: :meth:`SpanRecorder.span` opens a nested span
on the calling thread, :meth:`SpanRecorder.add` records one timed
elsewhere (the engine's ``fault_hook`` timestamps, for instance), and
:class:`TimingMetric` records one ``metric`` span per call the indexes
make into the metric.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.metric import Metric


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    rid: Optional[int]

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class SpanRecorder:
    """Collects spans while :attr:`active`; records nothing otherwise."""

    def __init__(self, active: bool = True):
        self.active = active
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[Optional[int], Optional[int]]:
        """``(span id, rid)`` of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def new_id(self) -> int:
        return next(self._ids)

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
    ) -> int:
        """Record a span timed by the caller; returns its id."""
        span_id = self.new_id()
        if self.active:
            self.spans.append(Span(span_id, name, start_ns, end_ns, parent, rid))
        return span_id

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        """Time the ``with`` body as a child of the current span."""
        if not self.active:
            yield None
            return
        parent, parent_rid = self.current()
        rid = parent_rid if rid is None else rid
        span_id = self.new_id()
        stack = self._stack()
        stack.append((span_id, rid))
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, rid))

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "parent": s.parent,
                            "rid": s.rid,
                        }
                    )
                    + "\n"
                )


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Each span's self time in ns: its duration minus the part of it
    that its children cover (children are clipped to the parent)."""
    children: dict[int, list[tuple[int, int]]] = {}
    bounds = {s.id: (s.start_ns, s.end_ns) for s in spans}
    for s in spans:
        if s.parent in bounds:
            lo, hi = bounds[s.parent]
            clipped = (max(s.start_ns, lo), min(s.end_ns, hi))
            if clipped[0] < clipped[1]:
                children.setdefault(s.parent, []).append(clipped)
    return {
        s.id: (s.end_ns - s.start_ns) - _covered_ns(children.get(s.id, []))
        for s in spans
    }


def nesting_errors(spans: Sequence[Span]) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    bounds = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.end_ns < s.start_ns:
            errors.append(f"span {s.id} ({s.name}) ends before it starts")
        parent = bounds.get(s.parent)
        if parent is None:
            continue
        if s.start_ns < parent.start_ns or s.end_ns > parent.end_ns:
            errors.append(
                f"span {s.id} ({s.name}) leaves parent {parent.id} ({parent.name})"
            )
    return errors


class TimingMetric(Metric):
    """Wrap a metric; while :attr:`enabled`, every call becomes a
    ``metric`` span under the caller's current span and is counted.
    Disabled, it only forwards the call."""

    def __init__(self, inner: Metric, recorder: SpanRecorder):
        self.inner = inner
        self.recorder = recorder
        self.enabled = False
        self.calls = 0
        self.evals = 0

    def _timed(self, fn, *args):
        parent, rid = self.recorder.current()
        start = time.perf_counter_ns()
        out = fn(*args)
        self.recorder.add("metric", start, time.perf_counter_ns(), parent=parent, rid=rid)
        self.calls += 1
        return out

    def distance(self, a, b) -> float:
        if not self.enabled:
            return self.inner.distance(a, b)
        self.evals += 1
        return self._timed(self.inner.distance, a, b)

    def batch_distance(self, xs, y):
        if not self.enabled:
            return self.inner.batch_distance(xs, y)
        out = self._timed(self.inner.batch_distance, xs, y)
        self.evals += len(out)
        return out
