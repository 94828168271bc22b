"""QueryEngine: concurrency, stats aggregation, caching, degradation.

The load-bearing properties:

* concurrent sharded answers == sequential single-index answers;
* the batch's merged ``QueryStats`` equals the sum of per-query stats
  *and* the shared ``CountingMetric`` total, even under threads,
  retries, and the distance cache;
* faults and deadlines degrade (partial result, ``degraded=True``)
  instead of raising;
* the bounded-semaphore backpressure really bounds in-flight units.
"""

import threading
import time

import numpy as np
import pytest

from repro import LinearScan, QueryStats
from repro.metric import L2, CountingMetric
from repro.obs.stats import merge_all
from repro.serve import (
    DistanceCacheMetric,
    Query,
    QueryEngine,
    SerialExecutor,
    ShardFailure,
    ShardManager,
    ThreadedExecutor,
)


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(99).random((120, 6))


@pytest.fixture(scope="module")
def batch(data):
    rng = np.random.default_rng(5)
    queries = []
    for i in range(12):
        q = rng.random(6)
        if i % 2 == 0:
            queries.append(Query.range(q, 0.5))
        else:
            queries.append(Query.knn(q, 7))
    # Repeat one query verbatim so caches have something to hit.
    queries.append(queries[0])
    return queries


def sequential_answers(data, queries):
    oracle = LinearScan(data, L2())
    return [
        oracle.range_search(q.query, q.radius)
        if q.kind == "range"
        else oracle.knn_search(q.query, q.k)
        for q in queries
    ]


def assert_matches_oracle(result, expected):
    assert not result.degraded
    assert result.value == expected


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["vpt", "linear", "gnat"])
    def test_threaded_sharded_equals_sequential(self, data, batch, backend):
        manager = ShardManager(data, L2(), n_shards=4, backend=backend, rng=1)
        expected = sequential_answers(data, batch)
        with QueryEngine(manager, workers=4) as engine:
            outcome = engine.run_batch(batch)
        for result, answer in zip(outcome.results, expected):
            assert_matches_oracle(result, answer)

    def test_serial_executor_is_equivalent(self, data, batch):
        manager = ShardManager(data, L2(), n_shards=3, backend="vpt", rng=1)
        expected = sequential_answers(data, batch)
        engine = QueryEngine(manager, executor=SerialExecutor())
        outcome = engine.run_batch(batch)
        for result, answer in zip(outcome.results, expected):
            assert_matches_oracle(result, answer)

    def test_single_index_without_sharding(self, data, batch):
        index = LinearScan(data, L2())
        expected = sequential_answers(data, batch)
        with QueryEngine(index, workers=2) as engine:
            outcome = engine.run_batch(batch)
        for result, answer in zip(outcome.results, expected):
            assert_matches_oracle(result, answer)
            assert result.shards_ok == 1


class TestStatsAggregation:
    def test_batch_stats_equal_sum_of_query_stats(self, data, batch):
        manager = ShardManager(data, L2(), n_shards=4, backend="vpt", rng=2)
        with QueryEngine(manager, workers=4) as engine:
            outcome = engine.run_batch(batch)
        summed = merge_all(result.stats for result in outcome.results)
        assert outcome.stats.to_dict() == summed.to_dict()

    def test_batch_stats_equal_counting_metric_under_concurrency(
        self, data, batch
    ):
        counting = CountingMetric(L2())
        manager = ShardManager(data, counting, n_shards=4, backend="vpt", rng=2)
        counting.reset()  # drop construction cost; count queries only
        with QueryEngine(manager, workers=6) as engine:
            outcome = engine.run_batch(batch)
        assert outcome.stats.distance_calls == counting.count
        assert outcome.stats.distance_calls > 0

    def test_failed_attempt_distance_calls_are_kept(self, data):
        counting = CountingMetric(L2())
        manager = ShardManager(data, counting, n_shards=2, backend="linear")
        counting.reset()

        def fail_after_work(qi, shard, attempt):
            # Fail shard 0's first attempt *after* the engine already
            # charged nothing — the retry recomputes, so the counter
            # and the stats must both see two attempts' worth.
            if shard == 0 and attempt == 0:
                raise ShardFailure("flaky")

        engine = QueryEngine(
            manager,
            executor=SerialExecutor(),
            retries=1,
            fault_hook=fail_after_work,
        )
        outcome = engine.run_batch([Query.range(data[0], 0.4)])
        assert outcome.results[0].degraded is False
        assert outcome.stats.distance_calls == counting.count


class TestDegradation:
    def test_persistent_shard_failure_yields_partial_result(self, data):
        manager = ShardManager(data, L2(), n_shards=3, backend="linear")
        dead_shard = 1

        def kill(qi, shard, attempt):
            if shard == dead_shard:
                raise ShardFailure("shard down")

        query = Query.range(data[0], 10.0)  # matches everything
        with QueryEngine(manager, workers=3, retries=2, fault_hook=kill) as engine:
            outcome = engine.run_batch([query])
        result = outcome.results[0]
        assert result.degraded is True
        assert result.shards_failed == 1
        assert result.shards_ok == 2
        # Exactly the dead shard's ids are missing.
        surviving = sorted(
            i
            for shard, ids in enumerate(manager.shard_ids)
            if shard != dead_shard
            for i in ids
        )
        assert result.ids == surviving

    def test_retry_recovers_from_transient_failure(self, data):
        manager = ShardManager(data, L2(), n_shards=3, backend="linear")
        attempts = []
        lock = threading.Lock()

        def flaky(qi, shard, attempt):
            with lock:
                attempts.append((shard, attempt))
            if attempt == 0:
                raise ShardFailure("transient")

        oracle = LinearScan(data, L2())
        with QueryEngine(manager, workers=3, retries=1, fault_hook=flaky) as engine:
            outcome = engine.run_batch([Query.knn(data[3], 5)])
        result = outcome.results[0]
        assert result.degraded is False
        assert result.neighbors == oracle.knn_search(data[3], 5)
        assert {a for (_, a) in attempts} == {0, 1}

    def test_zero_retries_degrades_immediately(self, data):
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")

        def fail_once(qi, shard, attempt):
            if shard == 0 and attempt == 0:
                raise ShardFailure("once is enough")

        engine = QueryEngine(
            manager, executor=SerialExecutor(), retries=0,
            fault_hook=fail_once,
        )
        outcome = engine.run_batch([Query.range(data[0], 10.0)])
        assert outcome.results[0].degraded is True

    def test_deadline_drops_slow_shards(self, data):
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")
        release = threading.Event()

        def stall(qi, shard, attempt):
            if shard == 1:
                release.wait(timeout=5.0)

        try:
            with QueryEngine(
                manager, workers=2, timeout=0.05, fault_hook=stall
            ) as engine:
                outcome = engine.run_batch([Query.range(data[0], 10.0)])
        finally:
            release.set()  # let the stalled worker finish
        result = outcome.results[0]
        assert result.degraded is True
        assert result.shards_timed_out >= 1
        assert set(result.ids) <= set(range(len(data)))

    def test_deadline_drops_a_stalled_first_shard(self, data):
        # A deadline keeps every unit on the pool, so a stall in shard 0
        # (the first unit a caller would run) cannot hold the batch past
        # its deadline: shard 1 still answers.
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")
        release = threading.Event()

        def stall(qi, shard, attempt):
            if shard == 0:
                release.wait(timeout=5.0)

        try:
            with QueryEngine(
                manager, workers=2, timeout=0.05, fault_hook=stall
            ) as engine:
                started = time.monotonic()
                outcome = engine.run_batch([Query.range(data[0], 10.0)])
                elapsed = time.monotonic() - started
        finally:
            release.set()
        result = outcome.results[0]
        assert elapsed < 2.0
        assert result.degraded is True
        assert (result.shards_timed_out, result.shards_ok) == (1, 1)
        assert result.ids == sorted(manager.shard_ids[1])

    def test_no_timeout_waits_for_everything(self, data):
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")

        def dawdle(qi, shard, attempt):
            time.sleep(0.01)

        with QueryEngine(manager, workers=2, fault_hook=dawdle) as engine:
            outcome = engine.run_batch([Query.range(data[0], 10.0)])
        assert outcome.results[0].degraded is False
        assert outcome.results[0].ids == list(range(len(data)))


class TestDispatch:
    """Where units run on a thread pool: with no deadline the caller
    runs the first query's units itself, in shard order, and the pool
    runs the rest of the batch."""

    def test_single_query_runs_on_the_calling_thread(self, data):
        manager = ShardManager(data, L2(), n_shards=3, backend="vpt", rng=0)
        calls = []

        def record(qi, shard, attempt):
            calls.append((threading.get_ident(), shard))

        query = Query.knn(data[3], 5)
        with QueryEngine(
            manager, executor=ThreadedExecutor(2), fault_hook=record
        ) as engine:
            outcome = engine.run_batch([query])
        me = threading.get_ident()
        assert calls == [(me, 0), (me, 1), (me, 2)]
        assert_matches_oracle(
            outcome.results[0], sequential_answers(data, [query])[0]
        )

    def test_batch_still_overlaps_units_on_the_pool(self, data, batch):
        # The first two units to start must be running at the same time:
        # they meet at a two-party barrier, which breaks (and is recorded)
        # if the batch ran its units one after another.
        manager = ShardManager(data, L2(), n_shards=2, backend="vpt", rng=0)
        barrier = threading.Barrier(2, timeout=5.0)
        lock = threading.Lock()
        seen = {"calls": 0, "broken": 0, "threads": set()}

        def meet(qi, shard, attempt):
            with lock:
                seen["calls"] += 1
                first_two = seen["calls"] <= 2
                seen["threads"].add(threading.get_ident())
            if first_two:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    with lock:
                        seen["broken"] += 1

        queries = (list(batch) * 2)[:16]
        with QueryEngine(
            manager, executor=ThreadedExecutor(2), fault_hook=meet
        ) as engine:
            outcome = engine.run_batch(queries)
        assert seen["broken"] == 0
        assert threading.get_ident() in seen["threads"]
        assert len(seen["threads"]) == 3
        for result, expected in zip(
            outcome.results, sequential_answers(data, queries)
        ):
            assert_matches_oracle(result, expected)

    def test_deadline_keeps_every_unit_on_the_pool(self, data):
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")
        threads = set()

        def record(qi, shard, attempt):
            threads.add(threading.get_ident())

        with QueryEngine(
            manager, workers=2, timeout=5.0, fault_hook=record
        ) as engine:
            outcome = engine.run_batch([Query.range(data[0], 0.5)])
        assert not outcome.results[0].degraded
        assert threading.get_ident() not in threads


class TestBackpressure:
    def test_in_flight_units_never_exceed_max_pending(self, data, monkeypatch):
        manager = ShardManager(data, L2(), n_shards=4, backend="linear")
        engine = QueryEngine(manager, workers=8, max_pending=3)
        lock = threading.Lock()
        live = {"now": 0, "peak": 0}
        inner = engine._search_unit

        def tracked(query, shard, replica, stats):
            with lock:
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])
            try:
                time.sleep(0.002)
                return inner(query, shard, replica, stats)
            finally:
                with lock:
                    live["now"] -= 1
            # Admission (queued + running) is bounded by the semaphore,
            # so *running* units can never exceed max_pending either.

        monkeypatch.setattr(engine, "_search_unit", tracked)
        try:
            batch = [Query.range(data[i], 0.3) for i in range(10)]
            outcome = engine.run_batch(batch)
        finally:
            engine.close()
        assert len(outcome.results) == 10
        assert 1 <= live["peak"] <= 3

    def test_cancelled_queued_units_release_their_permits(self, data):
        # One worker, two shards: shard 0's unit runs (stalled), shard
        # 1's unit is still queued when the deadline passes and gets
        # cancelled.  A cancelled unit never reaches _run_unit, so the
        # engine must hand its backpressure permit back itself —
        # leaking it would shrink the in-flight budget until
        # submit_query deadlocks.
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")
        release = threading.Event()

        def stall(qi, shard, attempt):
            release.wait(timeout=5.0)

        engine = QueryEngine(
            manager,
            executor=ThreadedExecutor(1),
            timeout=0.05,
            max_pending=2,
            fault_hook=stall,
        )
        try:
            outcome = engine.run_batch([Query.range(data[0], 10.0)])
            assert outcome.results[0].shards_timed_out == 2
            release.set()  # let the stalled worker finish and release
            acquired = 0
            give_up = time.monotonic() + 5.0
            while acquired < engine.max_pending and time.monotonic() < give_up:
                if engine._pending.acquire(timeout=0.1):
                    acquired += 1
            for _ in range(acquired):
                engine._pending.release()
            assert acquired == engine.max_pending
        finally:
            release.set()
            engine.close()

    def test_invalid_limits_rejected(self, data):
        index = LinearScan(data, L2())
        with pytest.raises(ValueError, match="retries"):
            QueryEngine(index, executor=SerialExecutor(), retries=-1)
        with pytest.raises(ValueError, match="max_pending"):
            QueryEngine(index, executor=SerialExecutor(), max_pending=0)
        with pytest.raises(ValueError, match="max_workers"):
            ThreadedExecutor(0)


class TestResultCache:
    def test_repeat_query_served_from_cache(self, data):
        counting = CountingMetric(L2())
        manager = ShardManager(data, counting, n_shards=3, backend="linear")
        counting.reset()
        engine = QueryEngine(
            manager, executor=SerialExecutor(), result_cache_size=16
        )
        query = Query.range(data[7], 0.5)
        first = engine.run_batch([query])
        calls_first = counting.count
        second = engine.run_batch([query])
        assert second.results[0].from_cache is True
        assert second.results[0].ids == first.results[0].ids
        assert counting.count == calls_first  # zero new distance calls
        assert second.stats.result_cache_hits == 1
        assert first.stats.result_cache_misses == 1

    def test_knn_results_cache_too(self, data):
        manager = ShardManager(data, L2(), n_shards=3, backend="vpt", rng=0)
        engine = QueryEngine(
            manager, executor=SerialExecutor(), result_cache_size=16
        )
        query = Query.knn(data[7], 4)
        first = engine.run_batch([query])
        second = engine.run_batch([query])
        assert second.results[0].from_cache is True
        assert second.results[0].neighbors == first.results[0].neighbors

    def test_degraded_results_are_not_cached(self, data):
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")
        state = {"fail": True}

        def sometimes(qi, shard, attempt):
            if state["fail"] and shard == 0:
                raise ShardFailure("down")

        engine = QueryEngine(
            manager, executor=SerialExecutor(), retries=0,
            result_cache_size=16, fault_hook=sometimes,
        )
        query = Query.range(data[0], 10.0)
        degraded = engine.run_batch([query]).results[0]
        assert degraded.degraded is True
        state["fail"] = False
        healed = engine.run_batch([query]).results[0]
        assert healed.from_cache is False  # the partial answer was not kept
        assert healed.ids == list(range(len(data)))

    def test_concurrent_run_batch_callers_keep_their_miss_stats(self, data):
        # Two threads sharing one engine must not clobber each other's
        # result-cache miss accounting (it is batch-local, not engine
        # state): every query in each batch shows up as exactly one hit
        # or one miss in that batch's own stats.
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")
        engine = QueryEngine(manager, workers=4, result_cache_size=32)
        barrier = threading.Barrier(2)
        outcomes = {}

        def run(name, query):
            barrier.wait()
            outcomes[name] = engine.run_batch([query] * 4)

        threads = [
            threading.Thread(target=run, args=("a", Query.range(data[0], 0.5))),
            threading.Thread(target=run, args=("b", Query.knn(data[1], 3))),
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            engine.close()
        for outcome in outcomes.values():
            stats = outcome.stats
            assert (
                stats.result_cache_hits + stats.result_cache_misses == 4
            )

    def test_batch_counts_cached_results(self, data):
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")
        engine = QueryEngine(
            manager, executor=SerialExecutor(), result_cache_size=16
        )
        query = Query.range(data[0], 0.5)
        engine.run_batch([query])  # populate
        # The cache is cross-batch: a batch's submissions all precede
        # its first gather, so repeats *within* one batch each miss.
        outcome = engine.run_batch([query, query])
        assert outcome.n_from_cache == 2
        assert outcome.n_degraded == 0
        assert outcome.queries_per_second() > 0


class TestDistanceCache:
    def test_identity_calls_equal_counter_plus_hits(self, data, batch):
        counting = CountingMetric(L2())
        cached = DistanceCacheMetric(counting)
        manager = ShardManager(data, cached, n_shards=3, backend="vpt", rng=4)
        counting.reset()
        cached.clear()
        with QueryEngine(manager, workers=4, distance_cache=cached) as engine:
            outcome = engine.run_batch(batch)
        # Every requested scalar distance was either freshly computed
        # (hit the counter) or served memoized (hit the cache).
        assert (
            outcome.stats.distance_calls
            == counting.count + outcome.stats.distance_cache_hits
        )
        assert outcome.stats.distance_cache_hits > 0  # the repeated query

    def test_retried_shard_reuses_first_attempt_distances(self, data):
        counting = CountingMetric(L2())
        cached = DistanceCacheMetric(counting)
        # One shard, scalar-only metric path via the BK-style loop of
        # LinearScan? LinearScan batches; use a 1-point-per-leaf VPTree
        # so vantage-point distances go through the scalar gateway.
        manager = ShardManager(data, cached, n_shards=1, backend="vpt", rng=0)
        counting.reset()
        cached.clear()

        def fail_first(qi, shard, attempt):
            if attempt == 0:
                raise ShardFailure("flaky")

        engine = QueryEngine(
            manager, executor=SerialExecutor(), retries=1,
            distance_cache=cached, fault_hook=fail_first,
        )
        outcome = engine.run_batch([Query.knn(data[2], 3)])
        result = outcome.results[0]
        assert result.degraded is False
        assert (
            result.stats.distance_calls
            == counting.count + result.stats.distance_cache_hits
        )


class TestQueryTypes:
    def test_constructors_normalise_parameters(self):
        q = Query.range(np.zeros(2), 1)
        assert q.kind == "range" and q.radius == 1.0 and q.k is None
        q = Query.knn(np.zeros(2), 3.0)
        assert q.kind == "knn" and q.k == 3 and q.radius is None

    def test_cache_key_distinguishes_kind_and_parameters(self):
        v = np.zeros(3)
        keys = {
            Query.range(v, 1.0).cache_key(),
            Query.range(v, 2.0).cache_key(),
            Query.knn(v, 1).cache_key(),
        }
        assert len(keys) == 3

    def test_unhashable_query_is_uncacheable(self):
        assert Query.range([0.0, 1.0], 1.0).cache_key() is None

    def test_stats_default_is_fresh_per_result(self, data):
        engine = QueryEngine(
            LinearScan(data, L2()), executor=SerialExecutor()
        )
        outcome = engine.run_batch([Query.knn(data[0], 1)])
        assert isinstance(outcome.results[0].stats, QueryStats)
