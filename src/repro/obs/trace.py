"""Tracing hooks for search execution.

A :class:`TraceSink` receives a callback for every node entered, every
prune decision, and every leaf scan during a search.  The default is no
sink at all: indexes only construct an :class:`Observation` when the
caller passed ``stats=`` or ``trace=``, so the hot path pays a single
``is None`` test per event site when observability is off.

Implement the protocol (structurally — no inheritance required) to
stream events wherever you like::

    class PrintSink:
        def on_node_enter(self, kind, size):
            print(f"enter {kind} ({size} points)")
        def on_prune(self, bound, count):
            print(f"prune {bound} x{count}")
        def on_leaf_scan(self, seen, scanned):
            print(f"leaf scan: {scanned}/{seen} paid for")

    tree.range_search(query, 0.3, trace=PrintSink())

or use :class:`RecordingTraceSink` to capture the event stream as data.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.obs.stats import QueryStats


@runtime_checkable
class TraceSink(Protocol):
    """Structural protocol for search-event consumers."""

    def on_node_enter(self, kind: str, size: int) -> None:
        """A node was entered; ``kind`` is ``"internal"`` or ``"leaf"``,
        ``size`` the number of bucketed data points (0 for internal)."""

    def on_prune(self, bound: str, count: int) -> None:
        """A bound pruned; ``bound`` is a ``PRUNE_*`` kind, ``count`` the
        number of subtrees or points it eliminated."""

    def on_leaf_scan(self, seen: int, scanned: int) -> None:
        """A leaf (or flat table) scan finished: of ``seen`` points,
        ``scanned`` had their real distance computed."""


class NullTraceSink:
    """The no-op sink; every callback does nothing."""

    __slots__ = ()

    def on_node_enter(self, kind: str, size: int) -> None:
        pass

    def on_prune(self, bound: str, count: int) -> None:
        pass

    def on_leaf_scan(self, seen: int, scanned: int) -> None:
        pass


#: Shared no-op sink used when only ``stats=`` was requested.
NULL_TRACE = NullTraceSink()


class RecordingTraceSink:
    """Capture the event stream as ``(event, *payload)`` tuples.

    >>> sink = RecordingTraceSink()
    >>> sink.on_node_enter("leaf", 9)
    >>> sink.events
    [('node_enter', 'leaf', 9)]
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_node_enter(self, kind: str, size: int) -> None:
        self.events.append(("node_enter", kind, size))

    def on_prune(self, bound: str, count: int) -> None:
        self.events.append(("prune", bound, count))

    def on_leaf_scan(self, seen: int, scanned: int) -> None:
        self.events.append(("leaf_scan", seen, scanned))

    def clear(self) -> None:
        self.events.clear()


class Observation:
    """Internal recorder bundling a stats object and a trace sink.

    Index search methods hold at most one ``Observation`` per query and
    call its methods at every event site; :func:`make_observation`
    returns ``None`` when neither stats nor tracing was requested, so
    the untraced hot path reduces to ``if obs is not None`` tests.
    """

    __slots__ = ("stats", "trace")

    def __init__(self, stats: QueryStats, trace: TraceSink):
        self.stats = stats
        self.trace = trace

    def distance(self, count: int = 1) -> None:
        """Record ``count`` metric evaluations (not traced: too hot)."""
        self.stats.distance_calls += count

    def enter_internal(self) -> None:
        stats = self.stats
        stats.nodes_visited += 1
        stats.internal_visited += 1
        self.trace.on_node_enter("internal", 0)

    def enter_leaf(self, size: int) -> None:
        stats = self.stats
        stats.nodes_visited += 1
        stats.leaf_visited += 1
        stats.leaf_points_seen += size
        self.trace.on_node_enter("leaf", size)

    def enter_internals(self, count: int) -> None:
        """``count`` internal nodes entered: the counters move once, a
        real sink still gets one callback per node."""
        stats = self.stats
        stats.nodes_visited += count
        stats.internal_visited += count
        if self.trace is not NULL_TRACE:
            for _ in range(count):
                self.trace.on_node_enter("internal", 0)

    def enter_leaves(self, sizes) -> None:
        """Leaves holding ``sizes`` points (an integer array) entered, in
        order; one callback per leaf for a real sink."""
        stats = self.stats
        stats.nodes_visited += len(sizes)
        stats.leaf_visited += len(sizes)
        stats.leaf_points_seen += int(sizes.sum())
        if self.trace is not NULL_TRACE:
            for size in sizes.tolist():
                self.trace.on_node_enter("leaf", size)

    def leaf_scans(self, seen, scanned) -> None:
        """One :meth:`leaf_scan` per pair of the integer arrays ``seen``
        and ``scanned``, with the counters moved once."""
        self.stats.leaf_points_scanned += int(scanned.sum())
        if self.trace is not NULL_TRACE:
            for pair in zip(seen.tolist(), scanned.tolist()):
                self.trace.on_leaf_scan(*pair)

    def prune(self, bound: str, count: int = 1) -> None:
        """A subtree-granularity prune (``count`` subtrees skipped)."""
        self.stats.record_prune(bound, count)
        self.trace.on_prune(bound, count)

    def filter_points(self, bound: str, count: int) -> None:
        """A point-granularity prune (``count`` leaf/table points
        eliminated without computing their distance)."""
        if count:
            self.stats.record_prune(bound, count)
            self.stats.leaf_points_filtered += count
            self.trace.on_prune(bound, count)

    def leaf_scan(self, seen: int, scanned: int) -> None:
        """A leaf/table scan finished; ``scanned`` distances were paid."""
        self.stats.leaf_points_scanned += scanned
        self.trace.on_leaf_scan(seen, scanned)


def make_observation(
    stats: Optional[QueryStats], trace: Optional[TraceSink]
) -> Optional[Observation]:
    """Build the per-query recorder, or ``None`` when observability is off.

    When only ``trace`` is given a throwaway :class:`QueryStats` absorbs
    the counters; when only ``stats`` is given events go to the shared
    no-op sink.
    """
    if stats is None and trace is None:
        return None
    return Observation(
        stats if stats is not None else QueryStats(),
        trace if trace is not None else NULL_TRACE,
    )
