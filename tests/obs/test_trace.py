"""Tests for the trace sinks and the Observation recorder."""

import numpy as np

from repro import MVPTree, QueryStats
from repro.metric import L2
from repro.obs import NullTraceSink, RecordingTraceSink, TraceSink
from repro.obs.stats import PRUNE_LEAF_D1, PRUNE_VP_SHELL
from repro.obs.trace import Observation, make_observation


class TestMakeObservation:
    def test_both_off_returns_none(self):
        assert make_observation(None, None) is None

    def test_stats_only_uses_null_sink(self):
        stats = QueryStats()
        obs = make_observation(stats, None)
        assert obs.stats is stats
        assert isinstance(obs.trace, NullTraceSink)

    def test_trace_only_gets_throwaway_stats(self):
        sink = RecordingTraceSink()
        obs = make_observation(None, sink)
        assert obs.trace is sink
        assert isinstance(obs.stats, QueryStats)


class TestObservation:
    def test_enter_counters(self):
        stats = QueryStats()
        obs = Observation(stats, NullTraceSink())
        obs.enter_internal()
        obs.enter_leaf(9)
        assert stats.nodes_visited == 2
        assert stats.internal_visited == 1
        assert stats.leaf_visited == 1
        assert stats.leaf_points_seen == 9

    def test_distance_is_not_traced(self):
        sink = RecordingTraceSink()
        obs = Observation(QueryStats(), sink)
        obs.distance(5)
        assert obs.stats.distance_calls == 5
        assert sink.events == []

    def test_filter_points_skips_zero_counts(self):
        sink = RecordingTraceSink()
        stats = QueryStats()
        obs = Observation(stats, sink)
        obs.filter_points(PRUNE_LEAF_D1, 0)
        assert stats.prunes == {}
        assert sink.events == []
        obs.filter_points(PRUNE_LEAF_D1, 3)
        assert stats.prunes == {PRUNE_LEAF_D1: 3}
        assert stats.leaf_points_filtered == 3
        assert sink.events == [("prune", PRUNE_LEAF_D1, 3)]

    def test_subtree_prune_does_not_touch_leaf_counters(self):
        stats = QueryStats()
        obs = Observation(stats, NullTraceSink())
        obs.prune(PRUNE_VP_SHELL, 2)
        assert stats.prunes == {PRUNE_VP_SHELL: 2}
        assert stats.leaf_points_filtered == 0

    def test_leaf_scan_accumulates_scanned(self):
        stats = QueryStats()
        obs = Observation(stats, NullTraceSink())
        obs.leaf_scan(10, 4)
        obs.leaf_scan(5, 5)
        assert stats.leaf_points_scanned == 9

    def test_batch_events_match_per_node_events(self):
        sizes, scanned = np.array([9, 0, 4]), np.array([3, 0, 4])
        per_node, batched = RecordingTraceSink(), RecordingTraceSink()
        one = Observation(QueryStats(), per_node)
        for _ in range(3):
            one.enter_internal()
        for size in sizes:
            one.enter_leaf(int(size))
        for seen, paid in zip(sizes, scanned):
            one.leaf_scan(int(seen), int(paid))
        many = Observation(QueryStats(), batched)
        many.enter_internals(3)
        many.enter_leaves(sizes)
        many.leaf_scans(sizes, scanned)
        assert many.stats == one.stats
        assert batched.events == per_node.events

    def test_batch_events_skip_the_null_sink(self):
        stats = QueryStats()
        obs = make_observation(stats, None)
        obs.enter_internals(2)
        obs.enter_leaves(np.array([5, 6]))
        obs.leaf_scans(np.array([5, 6]), np.array([1, 6]))
        assert (stats.nodes_visited, stats.internal_visited) == (4, 2)
        assert (stats.leaf_points_seen, stats.leaf_points_scanned) == (11, 7)


class TestRecordingTraceSink:
    def test_records_event_tuples(self):
        sink = RecordingTraceSink()
        sink.on_node_enter("internal", 0)
        sink.on_prune(PRUNE_VP_SHELL, 1)
        sink.on_leaf_scan(8, 3)
        assert sink.events == [
            ("node_enter", "internal", 0),
            ("prune", PRUNE_VP_SHELL, 1),
            ("leaf_scan", 8, 3),
        ]

    def test_clear(self):
        sink = RecordingTraceSink()
        sink.on_prune(PRUNE_VP_SHELL, 1)
        sink.clear()
        assert sink.events == []

    def test_satisfies_protocol(self):
        assert isinstance(RecordingTraceSink(), TraceSink)
        assert isinstance(NullTraceSink(), TraceSink)

    def test_duck_typed_sink_works_against_an_index(self):
        class CountingSink:
            def __init__(self):
                self.n = 0

            def on_node_enter(self, kind, size):
                self.n += 1

            def on_prune(self, bound, count):
                self.n += 1

            def on_leaf_scan(self, seen, scanned):
                self.n += 1

        data = np.random.default_rng(0).random((60, 4))
        tree = MVPTree(data, L2(), m=2, k=5, p=3, rng=0)
        sink = CountingSink()
        tree.range_search(data[0], 0.3, trace=sink)
        assert sink.n > 0


class TestTraceMatchesStats:
    """The event stream and the counters describe the same search."""

    def test_stream_totals_equal_stats(self):
        data = np.random.default_rng(1).random((120, 5))
        tree = MVPTree(data, L2(), m=3, k=6, p=4, rng=1)
        stats = QueryStats()
        sink = RecordingTraceSink()
        tree.range_search(data[3], 0.4, stats=stats, trace=sink)

        enters = [e for e in sink.events if e[0] == "node_enter"]
        prunes = [e for e in sink.events if e[0] == "prune"]
        scans = [e for e in sink.events if e[0] == "leaf_scan"]

        assert len(enters) == stats.nodes_visited
        assert sum(c for _, _, c in prunes) == stats.prunes_total
        assert sum(seen for _, seen, _ in scans) == stats.leaf_points_seen
        assert (
            sum(scanned for _, _, scanned in scans)
            == stats.leaf_points_scanned
        )
