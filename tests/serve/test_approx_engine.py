"""The engine's approximate tier: budgets, downgrades, shard outcomes.

Covers the serving half of docs/approximate.md:

* approximate queries (``budget``/``epsilon`` on :class:`Query`) return
  a merged :class:`~repro.approx.ApproxReport` equal to the sequential
  manager's, exact queries return none;
* a missed deadline with a :class:`~repro.approx.ApproxDowngrade`
  policy re-answers the shard with a budgeted pass — the result stays
  ``degraded=False`` and is never cached;
* every unit's fate lands in ``stats.shard_outcomes`` (the regression
  for the deadline-downgrade observability gap: a degraded answer now
  names exactly which shards timed out / failed / were downgraded).
"""

import threading

import numpy as np
import pytest

from repro.approx import ApproxDowngrade
from repro.indexes.linear import LinearScan
from repro.metric import L2
from repro.obs import (
    SHARD_DOWNGRADED,
    SHARD_FAILED,
    SHARD_OK,
    SHARD_TIMEOUT,
)
from repro.serve import Query, QueryEngine, ShardFailure, ShardManager


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(42).random((90, 5))


@pytest.fixture()
def manager(data):
    return ShardManager(data, L2(), n_shards=3, backend="vpt", rng=11)


class TestApproxReports:
    def test_exact_query_has_no_certificate(self, manager, data):
        with QueryEngine(manager, workers=2) as engine:
            outcome = engine.run_batch([Query.range(data[0], 0.5)])
        assert outcome.results[0].approx is None

    def test_approx_query_matches_sequential_manager(self, manager, data):
        value, report = manager.approx_knn_search(data[1], 6, budget=30)
        with QueryEngine(manager, workers=2) as engine:
            outcome = engine.run_batch([Query.knn(data[1], 6, budget=30)])
        result = outcome.results[0]
        assert result.value == value
        assert result.approx == report
        assert result.approx.spent <= 30

    def test_unlimited_budget_is_the_exact_tier(self, manager, data):
        with QueryEngine(manager, workers=2) as engine:
            outcome = engine.run_batch(
                [Query.knn(data[2], 5, budget=None, epsilon=0.0)]
            )
        # budget=None + epsilon=0 is the exact tier, not approximate.
        assert outcome.results[0].approx is None

    def test_approx_result_cache_replays_certificate(self, manager, data):
        query = Query.knn(data[3], 5, budget=20)
        with QueryEngine(
            manager, workers=2, result_cache_size=8
        ) as engine:
            first = engine.run_batch([query]).results[0]
            second = engine.run_batch([query]).results[0]
        assert second.value == first.value
        assert second.approx == first.approx
        assert second.stats.result_cache_hits == 1


class TestDowngradePolicy:
    def test_int_policy_coerces_to_budget(self, manager):
        engine = QueryEngine(manager, approximate=25)
        try:
            assert engine.approximate == ApproxDowngrade(budget=25)
        finally:
            engine.close()

    @pytest.mark.parametrize("bad", [True, "fast", 1.5])
    def test_invalid_policy_rejected(self, manager, bad):
        with pytest.raises(TypeError):
            QueryEngine(manager, approximate=bad)

    def test_deadline_miss_downgrades_instead_of_degrading(
        self, manager, data
    ):
        release = threading.Event()

        def stall(qi, shard, attempt):
            if shard == 1:
                release.wait(timeout=5.0)

        try:
            with QueryEngine(
                manager,
                workers=3,
                timeout=0.05,
                fault_hook=stall,
                approximate=ApproxDowngrade(budget=12),
            ) as engine:
                outcome = engine.run_batch([Query.knn(data[4], 5)])
        finally:
            release.set()
        result = outcome.results[0]
        assert result.degraded is False
        assert result.shards_downgraded == 1
        assert result.shards_timed_out == 0
        # A downgraded answer carries a merged certificate even though
        # the query itself was exact-tier.
        assert result.approx is not None
        assert result.approx.recall_lower_bound <= 1.0

    def test_downgraded_results_never_cached(self, manager, data):
        release = threading.Event()
        stalled = {"armed": True}

        def stall_once(qi, shard, attempt):
            if shard == 1 and stalled["armed"]:
                release.wait(timeout=5.0)

        query = Query.knn(data[5], 5)
        try:
            with QueryEngine(
                manager,
                workers=3,
                timeout=0.05,
                fault_hook=stall_once,
                result_cache_size=8,
                approximate=ApproxDowngrade(budget=12),
            ) as engine:
                first = engine.run_batch([query]).results[0]
                release.set()
                stalled["armed"] = False
                second = engine.run_batch([query]).results[0]
        finally:
            release.set()
        assert first.shards_downgraded == 1
        # The rerun missed the cache (downgraded answers are not
        # admitted) and came back exact.
        assert second.shards_downgraded == 0
        assert second.approx is None
        assert second.stats.result_cache_hits == 0

    def test_process_downgrade_reads_a_live_replica(self, data, tmp_path):
        """A downgrade dispatched to disk-backed workers targets a
        replica the parent still holds: with replica 0 of shard 0
        dropped (and its store file gone), the budgeted re-run answers
        from replica 1 instead of failing on the missing file."""
        import os

        from repro.store import save_shard_stores

        manager = ShardManager(
            data, L2(), n_shards=3, backend="vpt", rng=11,
            replication_factor=2,
        )
        paths = save_shard_stores(manager, tmp_path)
        manager.drop_replica(0, 0)
        os.remove(paths[(0, 0)])
        release = threading.Event()

        def stall(qi, shard, attempt):
            if shard == 0:
                release.wait(timeout=5.0)

        try:
            with QueryEngine(
                manager,
                executor="process",
                workers=2,
                timeout=0.5,
                fault_hook=stall,
                store_paths=paths,
                metric_spec="l2",
                approximate=ApproxDowngrade(budget=12),
            ) as engine:
                outcome = engine.run_batch([Query.knn(data[4], 5)])
                release.set()
        finally:
            release.set()
        result = outcome.results[0]
        assert result.shards_downgraded == 1
        assert result.shards_timed_out == 0
        assert result.degraded is False


class TestShardOutcomes:
    """Satellite regression: every unit's fate is observable."""

    def test_clean_batch_marks_every_shard_ok(self, manager, data):
        with QueryEngine(manager, workers=2) as engine:
            outcome = engine.run_batch([Query.range(data[6], 0.5)])
        stats = outcome.results[0].stats
        assert stats.shard_outcomes == {0: SHARD_OK, 1: SHARD_OK, 2: SHARD_OK}
        # JSON snapshot keys are strings (shard numbers serialized).
        assert stats.to_dict()["shard_outcomes"] == {
            "0": SHARD_OK, "1": SHARD_OK, "2": SHARD_OK
        }

    def test_plain_index_records_no_outcomes(self, data):
        """An unsharded index has no shards to flag — and recording one
        would break engine-vs-sequential stats parity."""
        index = LinearScan(data, L2())
        with QueryEngine(index, workers=2) as engine:
            outcome = engine.run_batch([Query.knn(data[7], 4)])
        assert outcome.results[0].stats.shard_outcomes == {}

    def test_timeout_names_the_slow_shard(self, manager, data):
        release = threading.Event()

        def stall(qi, shard, attempt):
            if shard == 2:
                release.wait(timeout=5.0)

        try:
            with QueryEngine(
                manager, workers=3, timeout=0.05, fault_hook=stall
            ) as engine:
                outcome = engine.run_batch([Query.range(data[8], 0.5)])
        finally:
            release.set()
        result = outcome.results[0]
        assert result.degraded is True
        outcomes = result.stats.shard_outcomes
        assert outcomes[2] == SHARD_TIMEOUT
        assert outcomes[0] == SHARD_OK and outcomes[1] == SHARD_OK

    def test_downgrade_names_the_downgraded_shard(self, manager, data):
        release = threading.Event()

        def stall(qi, shard, attempt):
            if shard == 0:
                release.wait(timeout=5.0)

        try:
            with QueryEngine(
                manager,
                workers=3,
                timeout=0.05,
                fault_hook=stall,
                approximate=ApproxDowngrade(budget=10),
            ) as engine:
                outcome = engine.run_batch([Query.knn(data[9], 4)])
        finally:
            release.set()
        outcomes = outcome.results[0].stats.shard_outcomes
        assert outcomes[0] == SHARD_DOWNGRADED
        assert outcomes[1] == SHARD_OK and outcomes[2] == SHARD_OK

    def test_dead_shard_marked_failed(self, data):
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")

        def die(qi, shard, attempt):
            if shard == 1:
                raise ShardFailure("shard 1 is gone")

        with QueryEngine(
            manager, executor="serial", retries=0, fault_hook=die
        ) as engine:
            outcome = engine.run_batch([Query.range(data[10], 10.0)])
        result = outcome.results[0]
        assert result.degraded is True
        assert result.stats.shard_outcomes[1] == SHARD_FAILED
        assert result.stats.shard_outcomes[0] == SHARD_OK
