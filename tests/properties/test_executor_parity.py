"""Property: process-pool serving is indistinguishable from sequential.

The process executor moves every unit search into a forked worker; the
engine's answers must stay *exactly* what a single-threaded pass over
the same deployment produces — same ids, same distances, same per-query
``QueryStats`` (the workers report their stats by value) — for every
backend in :data:`SHARD_BACKENDS`, vectors and discrete objects alike.
Budgeted queries ride along: their answers, stats and recall
certificates must equal the sequential ``ShardManager.approx_*`` pass.
"""

import os
import threading

import numpy as np
import pytest

from repro import LinearScan
from repro.check.lockwatch import instrument
from repro.metric import L2, EditDistance
from repro.obs.stats import QueryStats
from repro.serve import (
    SHARD_BACKENDS,
    Query,
    QueryEngine,
    ShardManager,
    fork_available,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process executor requires fork"
)


@pytest.fixture(autouse=True)
def _lockwatch_every_test():
    """With ``REPRO_LOCKWATCH=1``, run every parity test under
    instrumented locks and fail it on any lock-order inversion."""
    if not os.environ.get("REPRO_LOCKWATCH"):
        yield
        return
    with instrument(scope="repro") as watcher:
        yield
    assert watcher.inversions() == [], watcher.violations()


def _deployment(backend, uniform_data, word_data):
    """Objects, metric and a mixed query workload for one backend."""
    if backend == "bkt":  # discrete-only structure
        objects = list(word_data)
        metric = EditDistance()
        queries = [
            Query.range(objects[3], 2.0),
            Query.knn(objects[5], 6),
            Query.range(objects[9], 0.0),
            Query.knn(objects[11], 1),
            Query.range(objects[7], 2.0, budget=40),
            Query.knn(objects[13], 6, budget=25),
        ]
    else:
        # 120 points keeps the O(n^2/shards) matrix backend affordable.
        objects = uniform_data[:120]
        metric = L2()
        rng = np.random.default_rng(99)
        queries = []
        for i in range(6):
            vector = rng.random(objects.shape[1])
            if i % 2 == 0:
                queries.append(Query.range(vector, 0.6))
            else:
                queries.append(Query.knn(vector, 7))
        queries += [
            Query.range(rng.random(objects.shape[1]), 0.8, budget=40),
            Query.knn(rng.random(objects.shape[1]), 7, budget=25),
            Query.knn(rng.random(objects.shape[1]), 5, budget=60, epsilon=0.2),
        ]
    return objects, metric, queries


def _sequential_pass(manager, queries):
    """One single-threaded pass: answers, stats and (approximate tier
    only) certificates, through the manager's own entry points."""
    answers, all_stats, reports = [], [], []
    for query in queries:
        stats = QueryStats()
        report = None
        if query.is_approximate:
            search = (
                manager.approx_range_search
                if query.kind == "range"
                else manager.approx_knn_search
            )
            param = query.radius if query.kind == "range" else query.k
            answer, report = search(
                query.query, param,
                budget=query.budget, epsilon=query.epsilon, stats=stats,
            )
        elif query.kind == "range":
            answer = manager.range_search(query.query, query.radius, stats=stats)
        else:
            answer = manager.knn_search(query.query, query.k, stats=stats)
        answers.append(answer)
        all_stats.append(stats)
        reports.append(report)
    return answers, all_stats, reports


@pytest.mark.parametrize("backend", sorted(SHARD_BACKENDS))
def test_process_pool_matches_sequential_oracle(
    backend, uniform_data, word_data
):
    objects, metric, queries = _deployment(backend, uniform_data, word_data)
    manager = ShardManager(objects, metric, n_shards=3, backend=backend, rng=5)
    oracle = LinearScan(objects, metric)

    # Sequential single-threaded pass over the very same deployment.
    sequential_answers, sequential_stats, sequential_reports = _sequential_pass(
        manager, queries
    )

    with QueryEngine(manager, executor="process", workers=2) as engine:
        outcome = engine.run_batch(queries)

    for query, result, answer, stats, report in zip(
        queries, outcome.results, sequential_answers, sequential_stats,
        sequential_reports,
    ):
        assert not result.degraded
        assert result.shards_ok == 3
        # Exact answers: equal to the sequential deployment AND to the
        # ground-truth linear scan.  A budget-cut answer is pinned to
        # the sequential pass (value, stats, certificate) only.
        assert result.value == answer
        assert result.approx == report
        if query.is_approximate:
            assert result.stats.to_dict() == stats.to_dict()
            continue
        if query.kind == "range":
            assert result.ids == oracle.range_search(query.query, query.radius)
        else:
            k_eff = min(query.k, len(objects))
            assert result.neighbors == oracle.knn_search(query.query, k_eff)
        # Exact stats: the forked workers report the same counters the
        # sequential pass recorded, field for field.
        assert result.stats.to_dict() == stats.to_dict()


def test_process_pool_replicated_failover_stays_exact(uniform_data):
    objects = uniform_data[:150]
    manager = ShardManager(
        objects, L2(), n_shards=3, backend="vpt", rng=7, replication_factor=2
    )
    oracle = LinearScan(objects, L2())
    queries = [Query.range(objects[0], 0.5), Query.knn(objects[1], 5)]

    def kill_replica_zero(qi, shard, attempt, replica):
        if replica == 0:
            raise RuntimeError("fuzz: replica 0 down")

    with QueryEngine(
        manager, executor="process", workers=2, fault_hook=kill_replica_zero
    ) as engine:
        outcome = engine.run_batch(queries)
    range_result, knn_result = outcome.results
    assert not range_result.degraded and not knn_result.degraded
    assert range_result.ids == oracle.range_search(objects[0], 0.5)
    assert knn_result.neighbors == oracle.knn_search(objects[1], 5)
    assert range_result.stats.failovers == 3  # every shard failed over


def test_process_pool_keeps_every_worker_fed(uniform_data):
    """Two orchestrators per worker: one query over ``2N`` shards puts
    all ``2N`` units in flight together (each worker has one running
    and the next queued), so a hook that waits for all of them at a
    barrier lets every unit through and the answer stays exact."""
    workers = 2
    objects = uniform_data[:160]
    manager = ShardManager(
        objects, L2(), n_shards=2 * workers, backend="vpt", rng=3
    )
    barrier = threading.Barrier(2 * workers, timeout=5.0)

    def meet_all_units(qi, shard, attempt):
        barrier.wait()

    with QueryEngine(
        manager, executor="process", workers=workers, retries=0,
        fault_hook=meet_all_units,
    ) as engine:
        result = engine.run_batch([Query.knn(objects[5], 6)]).results[0]
    assert not barrier.broken
    assert not result.degraded
    assert result.neighbors == LinearScan(objects, L2()).knn_search(objects[5], 6)


def test_thread_executor_under_lockwatch_is_inversion_free(uniform_data):
    """The thread pool's failover path acquires locks in one global
    order: serving a replicated deployment with a dying primary under
    instrumented locks must record zero inversions."""
    objects = uniform_data[:150]
    with instrument(scope="repro") as watcher:
        manager = ShardManager(
            objects, L2(), n_shards=3, backend="vpt", rng=7,
            replication_factor=2,
        )

        def kill_replica_zero(qi, shard, attempt, replica):
            if replica == 0:
                raise RuntimeError("lockwatch: replica 0 down")

        queries = [Query.range(objects[0], 0.5), Query.knn(objects[1], 5)]
        with QueryEngine(
            manager, executor="thread", workers=4,
            fault_hook=kill_replica_zero,
        ) as engine:
            outcome = engine.run_batch(queries)
    oracle = LinearScan(objects, L2())
    assert outcome.results[0].ids == oracle.range_search(objects[0], 0.5)
    assert outcome.results[1].neighbors == oracle.knn_search(objects[1], 5)
    # The deployment's locks were actually watched, and cleanly.
    assert watcher.report()["locks"]
    assert watcher.inversions() == [], watcher.violations()


# Backends whose indexes have an .rsx writer (see repro.store.writer);
# the disk-backed mode can only serve what the store format can hold.
STORABLE_BACKENDS = sorted(
    set(SHARD_BACKENDS) & {"linear", "vpt", "mvpt", "gmvpt", "laesa"}
)


@pytest.mark.parametrize("backend", STORABLE_BACKENDS)
def test_store_backed_pool_matches_sequential_oracle(
    backend, uniform_data, word_data, tmp_path
):
    """Disk-backed mode: workers answer from ``.rsx`` files, yet the
    answers and per-query stats stay exactly the sequential ones."""
    from repro.store import save_shard_stores

    objects, metric, queries = _deployment(backend, uniform_data, word_data)
    manager = ShardManager(objects, metric, n_shards=3, backend=backend, rng=5)
    paths = save_shard_stores(manager, tmp_path)
    sequential_answers, sequential_stats, sequential_reports = _sequential_pass(
        manager, queries
    )
    oracle = LinearScan(objects, metric)

    with QueryEngine(
        manager,
        executor="process",
        workers=2,
        store_paths=paths,
        metric_spec="l2",
    ) as engine:
        outcome = engine.run_batch(queries)

    for query, result, answer, stats, report in zip(
        queries, outcome.results, sequential_answers, sequential_stats,
        sequential_reports,
    ):
        assert not result.degraded
        assert result.shards_ok == 3
        assert result.value == answer
        assert result.approx == report
        if query.is_approximate:
            assert result.stats.to_dict() == stats.to_dict()
            continue
        if query.kind == "range":
            assert result.ids == oracle.range_search(query.query, query.radius)
        else:
            k_eff = min(query.k, len(objects))
            assert result.neighbors == oracle.knn_search(query.query, k_eff)
        assert result.stats.to_dict() == stats.to_dict()


@pytest.mark.parametrize("backend", STORABLE_BACKENDS)
def test_store_backed_pool_under_spawn(
    backend, uniform_data, word_data, tmp_path
):
    """The ISSUE acceptance bar: ``store_paths`` mode passes the full
    parity check under ``spawn`` — nothing is inherited, workers open
    every shard from disk, and the answers are still exact."""
    from repro.serve import ProcessExecutor
    from repro.store import save_shard_stores

    objects, metric, queries = _deployment(backend, uniform_data, word_data)
    manager = ShardManager(objects, metric, n_shards=3, backend=backend, rng=5)
    paths = save_shard_stores(manager, tmp_path)
    sequential_answers, sequential_stats, sequential_reports = _sequential_pass(
        manager, queries
    )

    executor = ProcessExecutor(
        None,
        2,
        store_paths=paths,
        metric_spec="l2",
        start_method="spawn",
    )
    assert executor.start_method == "spawn"
    try:
        with QueryEngine(manager, executor=executor) as engine:
            outcome = engine.run_batch(queries)
    finally:
        executor.shutdown()

    for result, answer, stats, report in zip(
        outcome.results, sequential_answers, sequential_stats,
        sequential_reports,
    ):
        assert not result.degraded
        assert result.value == answer
        assert result.approx == report
        assert result.stats.to_dict() == stats.to_dict()


def test_store_backed_replicated_failover_stays_exact(uniform_data, tmp_path):
    """Replica failover in disk-backed mode: kill replica 0 everywhere
    and the engine answers exactly from the replica-1 store files."""
    from repro.store import save_shard_stores

    objects = uniform_data[:150]
    manager = ShardManager(
        objects, L2(), n_shards=3, backend="vpt", rng=7, replication_factor=2
    )
    paths = save_shard_stores(manager, tmp_path)
    oracle = LinearScan(objects, L2())
    queries = [Query.range(objects[0], 0.5), Query.knn(objects[1], 5)]

    def kill_replica_zero(qi, shard, attempt, replica):
        if replica == 0:
            raise RuntimeError("fuzz: replica 0 down")

    with QueryEngine(
        manager,
        executor="process",
        workers=2,
        fault_hook=kill_replica_zero,
        store_paths=paths,
        metric_spec="l2",
    ) as engine:
        outcome = engine.run_batch(queries)
    range_result, knn_result = outcome.results
    assert not range_result.degraded and not knn_result.degraded
    assert range_result.ids == oracle.range_search(objects[0], 0.5)
    assert knn_result.neighbors == oracle.knn_search(objects[1], 5)
    assert range_result.stats.failovers == 3


def test_process_pool_single_index_parity(uniform_data):
    """A plain (unsharded) index behind the process pool."""
    from repro.indexes.vptree import VPTree

    objects = uniform_data[:150]
    tree = VPTree(objects, L2(), rng=3)
    queries = [Query.range(objects[2], 0.5), Query.knn(objects[4], 4)]
    with QueryEngine(tree, executor="process", workers=2) as engine:
        outcome = engine.run_batch(queries)
    stats = QueryStats()
    assert outcome.results[0].ids == tree.range_search(
        objects[2], 0.5, stats=stats
    )
    assert outcome.results[0].stats.to_dict() == stats.to_dict()
    assert outcome.results[1].neighbors == tree.knn_search(objects[4], 4)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_starts_every_worker_up_front(start_method):
    """Warm-up pings wait on a ``max_workers``-party barrier, so the pool
    holds its full complement before the constructor returns — also
    where workers start one per submission (spawn) — and before any
    orchestration thread exists.  A barrier that never fills would
    instead wait out the whole warm-up deadline."""
    import time

    from repro.serve import ProcessExecutor

    store_mode = start_method == "spawn"
    started = time.monotonic()
    executor = ProcessExecutor(
        None,
        3,
        warm_timeout_s=30.0,
        store_paths={} if store_mode else None,
        metric_spec="l2" if store_mode else None,
        start_method=start_method,
    )
    try:
        assert time.monotonic() - started < 15.0
        assert executor.n_live_workers == 3
        assert executor._threads._threads == set()
    finally:
        executor.shutdown()
