"""LRU result cache and memoizing distance cache."""

import threading

import numpy as np
import pytest

from repro.metric import L2, CountingMetric
from repro.obs import QueryStats
from repro.serve import DistanceCacheMetric, LRUCache, query_cache_key


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("k", [1, 2])
        assert cache.get("k") == [1, 2]
        assert (cache.hits, cache.misses) == (1, 0)

    def test_miss_returns_default_and_counts(self):
        cache = LRUCache(4)
        assert cache.get("absent", default="fallback") == "fallback"
        assert (cache.hits, cache.misses) == (0, 1)

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_existing_key_updates_without_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.size == 2
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_clear_resets_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert (cache.size, cache.hits, cache.misses) == (0, 0, 0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_size"):
            LRUCache(0)

    def test_concurrent_hammering_keeps_exact_counters(self):
        cache = LRUCache(64)
        for i in range(64):
            cache.put(i, i)
        per_thread = 500

        def worker():
            for i in range(per_thread):
                cache.get(i % 64)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits + cache.misses == 8 * per_thread


class TestQueryCacheKey:
    def test_ndarray_keys_by_value(self):
        a = np.arange(4, dtype=float)
        b = np.arange(4, dtype=float)
        assert query_cache_key(a) == query_cache_key(b)
        assert query_cache_key(a) != query_cache_key(a.astype(np.float32))

    def test_hashable_objects_key_by_themselves(self):
        assert query_cache_key("word") == "word"
        assert query_cache_key((1, 2)) == (1, 2)

    def test_unhashable_returns_none(self):
        assert query_cache_key([1, 2, 3]) is None


class TestDistanceCacheMetric:
    def test_repeated_pair_hits_and_skips_inner(self):
        counter = CountingMetric(L2())
        cached = DistanceCacheMetric(counter)
        a, b = np.zeros(4), np.ones(4)
        first = cached.distance(a, b)
        second = cached.distance(a, b)
        assert first == second == 2.0
        assert counter.count == 1
        assert (cached.hits, cached.misses) == (1, 1)

    def test_symmetric_key_shares_entry(self):
        counter = CountingMetric(L2())
        cached = DistanceCacheMetric(counter)
        a, b = np.zeros(4), np.ones(4)
        cached.distance(a, b)
        cached.distance(b, a)
        assert counter.count == 1

    def test_batch_distance_memoizes_per_element(self):
        counter = CountingMetric(L2())
        cached = DistanceCacheMetric(counter)
        xs = np.random.default_rng(0).random((5, 3))
        y = xs[0]
        expected = L2().batch_distance(xs, y)
        np.testing.assert_allclose(cached.batch_distance(xs, y), expected)
        assert counter.count == 5
        assert cached.size == 5
        # A repeat batch is served entirely from the cache.
        np.testing.assert_allclose(cached.batch_distance(xs, y), expected)
        assert counter.count == 5
        assert (cached.hits, cached.misses) == (5, 5)
        # Partial overlap pays only for the unseen element.
        xs2 = np.vstack([xs[2:], np.full((1, 3), 0.5)])
        cached.batch_distance(xs2, y)
        assert counter.count == 6

    def test_observe_charges_bound_stats(self):
        cached = DistanceCacheMetric(L2())
        a, b = np.zeros(2), np.ones(2)
        stats = QueryStats()
        with cached.observe(stats):
            cached.distance(a, b)
            cached.distance(a, b)
        assert stats.distance_cache_misses == 1
        assert stats.distance_cache_hits == 1
        # Outside the context, nothing further is charged to ``stats``.
        cached.distance(a, b)
        assert stats.distance_cache_hits == 1

    def test_value_keys_are_immune_to_id_reuse(self):
        # Keys are operand values, not id() pairs: a freed array whose
        # address is recycled by a new, different array can never serve
        # the old array's distance.  Churn arrays (``del`` frees each one
        # through its refcount) and check every answer against the bare
        # metric.
        counter = CountingMetric(L2())
        cached = DistanceCacheMetric(counter)
        oracle = L2()
        b = np.ones(4)
        addresses = []
        for i in range(50):
            a = np.full(4, float(i % 7))  # freed each iteration
            assert cached.distance(a, b) == oracle.distance(a, b)
            addresses.append(id(a))
            del a
        assert counter.count == 7  # one real evaluation per distinct value
        # The premise: some address was recycled by a different array.
        assert len(set(addresses)) < len(addresses)

    def test_equal_valued_operands_share_an_entry(self):
        # Indexes materialise a fresh row view per objects[i] access;
        # value keys make those views hit the same entry.
        counter = CountingMetric(L2())
        cached = DistanceCacheMetric(counter)
        data = np.random.default_rng(3).random((2, 4))
        first = cached.distance(data[0], data[1])
        second = cached.distance(data[0], data[1])  # fresh view objects
        assert first == second
        assert counter.count == 1
        assert (cached.hits, cached.misses) == (1, 1)

    def test_unhashable_operand_passes_through_uncached(self):
        counter = CountingMetric(L2())
        cached = DistanceCacheMetric(counter)
        a, b = [0.0, 0.0], [1.0, 1.0]  # lists: no value key
        assert cached.distance(a, b) == cached.distance(a, b) == np.sqrt(2)
        assert counter.count == 2  # both computed, nothing cached
        assert cached.size == 0
        assert (cached.hits, cached.misses) == (0, 2)

    def test_wholesale_eviction_at_capacity(self):
        cached = DistanceCacheMetric(L2(), max_size=2)
        points = [np.full(2, float(i)) for i in range(4)]
        for p in points[1:]:
            cached.distance(points[0], p)
        assert cached.size <= 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_size"):
            DistanceCacheMetric(L2(), max_size=0)


class TestLockedCounterViews:
    """Regression: counter reads go through the lock (RC010 fix).

    ``hits``/``misses`` are guarded by ``_lock``; ``counters()`` is the
    sanctioned off-thread view and ``__repr__`` must use it instead of
    reading the attributes bare.
    """

    def test_lru_counters_snapshot(self):
        cache = LRUCache(4)
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        assert cache.counters() == (1, 1)
        assert "hits=1" in repr(cache) and "misses=1" in repr(cache)

    def test_distance_cache_counters_snapshot(self):
        cached = DistanceCacheMetric(L2())
        a, b = np.zeros(2), np.ones(2)
        cached.distance(a, b)
        cached.distance(a, b)
        assert cached.counters() == (1, 1)
        assert "hits=1" in repr(cached) and "misses=1" in repr(cached)

    def test_counters_consistent_under_contention(self):
        cache = LRUCache(8)
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                cache.get("x", default=None)
                cache.put("x", 1)

        snapshots = []
        worker = threading.Thread(target=hammer)
        worker.start()
        try:
            for _ in range(200):
                snapshots.append(cache.counters())
        finally:
            stop.set()
            worker.join()
        # Each snapshot is internally consistent and monotonic.
        totals = [h + m for h, m in snapshots]
        assert totals == sorted(totals)
