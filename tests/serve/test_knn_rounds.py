"""Exact k-NN over shards in two rounds.

Round one runs each shard's exact frontier to a fixed spend and pauses;
round two resumes every paused shard with the other shards' round-one
candidates, pruning with the k-th smallest distance over its own k-best
and theirs.  The load-bearing properties:

* answers equal a linear scan, ties at the k-th distance included, on
  clean and mutated shards and whatever ``k`` is;
* a resumed shard pays exactly the distances one uninterrupted search
  pays when its own k-best is the tighter bound, and fewer when the
  other shards' candidates are;
* every executor (serial, thread on the caller, thread pool with a
  deadline, process registry and store modes) returns the same answers
  and the same ``QueryStats`` as the sequential manager;
* a deadline between the rounds, a replica dropped between them, a
  store file replaced between them and a published candidate deleted
  between them all stay exact or degrade honestly.
"""

import threading
import time

import numpy as np
import pytest

from repro import LinearScan, QueryStats, VPTree
from repro.datasets import clustered_vectors, uniform_vectors
from repro.indexes.kernels import PAUSE_PER_K
from repro.metric import L2
from repro.obs.stats import SHARD_TIMEOUT
from repro.serve import (
    Query,
    QueryEngine,
    SerialExecutor,
    ShardManager,
    ThreadedExecutor,
    fork_available,
)
from repro.serve.sharding import ROUND_ONE, PausedShard, search, second_round
from repro.store import save_shard_stores, write_store
from repro.store.worker import remote_store_search

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process executor requires fork"
)


@pytest.fixture(scope="module")
def data():
    return clustered_vectors(20, 200, dim=16, epsilon=0.15, rng=7)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(1)
    rows = data[rng.integers(len(data), size=6)]
    points = rows + rng.uniform(-0.05, 0.05, size=rows.shape)
    return [Query.knn(q, k) for q, k in zip(points, (1, 3, 5, 1, 3, 5))]


def _sequential(manager, queries):
    """Answers and stats of the sequential two-round pass."""
    out = []
    for query in queries:
        stats = QueryStats()
        out.append((manager.knn_search(query.query, query.k, stats=stats), stats))
    return out


def _one_round_calls(manager, query) -> int:
    """Distances the shards pay answering ``query`` one round each."""
    stats = QueryStats()
    for shard in range(manager.n_shards):
        manager.shard_search(shard, query, stats=stats)
    return stats.distance_calls


def _round(manager, shard, query, resume=ROUND_ONE, **kwargs):
    """One round of ``query`` on one shard: ``(value, outcome)``."""
    return manager.shard_search(shard, query, resume=resume, **kwargs)


def _paused(manager, query) -> list:
    return [_round(manager, s, query)[1] for s in range(manager.n_shards)]


class TestRounds:
    def test_a_resumed_search_pays_what_one_search_pays(self, data, queries):
        """Pausing and resuming with no outside candidates is the one
        uninterrupted search: same answer, same counters."""
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        tree = manager.shards[0]
        resumed = 0
        for query in queries:
            want_stats = QueryStats()
            want = tree.knn_search(query.query, query.k, stats=want_stats)
            first, second = QueryStats(), QueryStats()
            answer, state = tree.knn_round(query.query, query.k, stats=first)
            if state is not None:
                resumed += 1
                assert answer == []
                assert state.spent >= PAUSE_PER_K * query.k
                answer, state = tree.knn_round(
                    query.query, query.k, resume=state, outside=np.zeros(0),
                    stats=second,
                )
                assert state is None
            assert answer == want
            assert first.merge(second).to_dict() == want_stats.to_dict()
        assert resumed

    def test_own_k_best_bounds_the_near_shard(self, data):
        """Contiguous shards over cluster-ordered data: the shard that
        holds the query's cluster prunes with its own k-th distance,
        the far shard's candidates being looser, so over both rounds
        it pays exactly what one uninterrupted search pays; the far
        shard prunes with the near shard's candidates and pays less."""
        manager = ShardManager(
            data, L2(), n_shards=2, backend="mvpt", assignment="contiguous", rng=3
        )
        oracle = LinearScan(data, L2())
        saved = 0
        for row in (5, 50, 900):
            query = Query.knn(data[row] + 0.01, 3)
            states = _paused(manager, query)
            assert all(state is not None for state in states)
            near = [QueryStats(), QueryStats()]
            values = []
            for shard in range(2):
                value, _ = _round(manager, shard, query, stats=near[shard])
                values.append(value)
            for shard, state in enumerate(second_round(values, states)):
                values[shard] = _round(
                    manager, shard, query, state, stats=near[shard]
                )[0]
            alone = [QueryStats(), QueryStats()]
            for shard in range(2):
                manager.shard_search(shard, query, stats=alone[shard])
            assert near[0].distance_calls == alone[0].distance_calls
            assert near[1].distance_calls < alone[1].distance_calls
            saved += alone[1].distance_calls - near[1].distance_calls
            answer = manager.knn_search(query.query, query.k)
            assert answer == oracle.knn_search(query.query, query.k)
        assert saved > 0

    def test_two_rounds_pay_fewer_distances(self, data, queries):
        for n_shards in (2, 4):
            manager = ShardManager(data, L2(), n_shards=n_shards, backend="mvpt", rng=3)
            two = sum(s.distance_calls for _, s in _sequential(manager, queries))
            one = sum(_one_round_calls(manager, query) for query in queries)
            assert two < one

    def test_concentrated_shards_run_one_round(self):
        """On 16-d uniform data almost no lower bound comes near a
        shard's own k-th distance at the pause boundary, so no shard
        pauses: the query pays exactly what one round pays."""
        data = uniform_vectors(8000, dim=16, rng=2)
        manager = ShardManager(data, L2(), n_shards=2, backend="vpt", rng=3)
        rng = np.random.default_rng(4)
        for point in rng.random((8, 16)):
            query = Query.knn(point, 10)
            assert _paused(manager, query) == [None, None]
            stats = QueryStats()
            manager.knn_search(point, 10, stats=stats)
            assert stats.distance_calls == _one_round_calls(manager, query)

    def test_tombstones_do_not_delay_the_pause(self, data):
        """A shard over-fetches past its tombstones but pauses at a
        multiple of its live ``k``, as an unmutated shard does."""
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        query = Query.knn(data[40] + 0.02, 3)
        far = np.argsort(np.linalg.norm(data - query.query, axis=1))[::-1]
        own = set(manager.shard_ids[0])
        for gid in [int(g) for g in far if int(g) in own][:300]:
            manager.delete(gid)
        state = _round(manager, 0, query)[1]
        assert state is not None
        assert PAUSE_PER_K * 3 <= state.frontier.spent < PAUSE_PER_K * 303

    def test_finished_shards_are_not_resumed(self, data):
        manager = ShardManager(data, L2(), n_shards=4, backend="vpt", rng=3)
        query = Query.knn(data[10], 600)  # 64 * 600 is past any shard's size
        assert _paused(manager, query) == [None] * 4
        assert second_round([[], [], [], []], [None] * 4) == [None] * 4


class TestExactness:
    @pytest.mark.parametrize("backend", ["mvpt", "vpt", "gmvpt"])
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_answers_equal_a_linear_scan(self, data, queries, backend, n_shards):
        manager = ShardManager(data, L2(), n_shards=n_shards, backend=backend, rng=3)
        oracle = LinearScan(data, L2())
        assert any(state for query in queries for state in _paused(manager, query))
        for query in queries + [Query.knn(queries[0].query, 40)]:
            assert manager.knn_search(query.query, query.k) == oracle.knn_search(
                query.query, query.k
            )

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_ties_at_the_kth_distance_span_the_shards(self, data, n_shards):
        """A thousand copies of one point spread over every shard; the
        query sits next to them, so every answer ties at the k-th
        distance and the ids decide.  The shards pause with copies
        still unpaid, whose lower bound is exactly that distance (a
        copy's distance to a copy vantage point is zero), so round two
        must pay the ties at its threshold, not prune them."""
        point = data[123]
        copies = np.repeat(point[None, :], 1000, axis=0)
        tied = np.vstack([data, copies])
        manager = ShardManager(tied, L2(), n_shards=n_shards, backend="mvpt", rng=3)
        oracle = LinearScan(tied, L2())
        query = point + 1e-3
        assert any(_paused(manager, Query.knn(query, 3)))
        for k in (3, 7, 20):
            want = oracle.knn_search(query, k)
            assert len({n.distance for n in want}) == 1  # every answer ties
            assert manager.knn_search(query, k) == want
            with QueryEngine(manager, executor="thread", workers=2) as engine:
                got = engine.run_batch([Query.knn(query, k)]).results[0]
            assert got.neighbors == want

    def test_paused_state_reports_live_candidates_only(self, data):
        """A paused shard's ``near`` (what the other shards prune with)
        holds live distances only: its tombstoned points would bound
        the other shards too tightly."""
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        query = Query.knn(data[40] + 0.02, 3)
        oracle = LinearScan(data, L2())
        nearest = [n.id for n in oracle.knn_search(query.query, 6)]
        for gid in nearest[:3]:
            manager.delete(gid)
        live = np.array(manager.live_ids())
        distances = np.linalg.norm(data[live] - query.query, axis=1)
        states = _paused(manager, query)
        assert any(states)
        for state in states:
            if state is not None:
                assert len(state.near) <= 3
                assert np.isin(state.near, distances).all()
        assert manager.knn_search(query.query, 3) == [
            n for n in oracle.knn_search(query.query, 6) if n.id not in nearest[:3]
        ][:3]

    def test_k_larger_than_a_shard(self, data):
        """Deletes leave shard 1 with fewer live points than ``k``; the
        other shards still pause and resume."""
        manager = ShardManager(data, L2(), n_shards=3, backend="mvpt", rng=3)
        shard_one = manager.shard_ids[1]
        for gid in shard_one[5:]:
            manager.delete(gid)
        live = np.array(manager.live_ids())
        oracle = LinearScan(data[live], L2())
        query = Query.knn(data[shard_one[0]] + 0.02, 8)
        assert _paused(manager, query)[0] is not None
        want = [
            (n.distance, int(live[n.id])) for n in oracle.knn_search(query.query, 8)
        ]
        got = manager.knn_search(query.query, 8)
        assert [(n.distance, n.id) for n in got] == want

    def test_mutated_shards(self, data):
        """Memtable rows near the query and tombstones over the true
        nearest points: the base over-fetches past its tombstones and
        the memtable neighbours bound round two."""
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        rows = [data]
        rng = np.random.default_rng(4)
        target = data[321]
        for _ in range(6):
            row = target + rng.uniform(-0.01, 0.01, size=target.shape)
            manager.insert(row)
            rows.append(row[None, :])
        points = np.vstack(rows)
        oracle = LinearScan(points, L2())
        for n in oracle.knn_search(target, 4):
            if n.id < len(data):
                manager.delete(n.id)
        live = np.array(manager.live_ids())
        check = LinearScan(points[live], L2())
        for k in (1, 5, 12):
            query = Query.knn(target + 0.003, k)
            want = [
                (n.distance, int(live[n.id])) for n in check.knn_search(query.query, k)
            ]
            assert any(_paused(manager, query))
            got = manager.knn_search(query.query, k)
            assert [(n.distance, n.id) for n in got] == want
            with QueryEngine(manager, executor="serial") as engine:
                result = engine.run_batch([query]).results[0]
            assert [(n.distance, n.id) for n in result.neighbors] == want


def _engines(manager, tmp_path):
    """Every executor a two-round k-NN runs on, as ``(name, engine)``."""
    yield "serial", QueryEngine(manager, executor="serial")
    yield "thread", QueryEngine(manager, executor="thread", workers=2)
    yield "thread-deadline", QueryEngine(
        manager, executor="thread", workers=2, timeout=30.0
    )
    if fork_available():
        yield "process", QueryEngine(manager, executor="process", workers=2)
        paths = save_shard_stores(manager, tmp_path / "stores")
        yield "process-store", QueryEngine(
            manager, executor="process", workers=2, store_paths=paths,
            metric_spec="l2",
        )


class TestExecutorParity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_answers_and_stats_match_the_sequential_pass(
        self, data, queries, n_shards, tmp_path
    ):
        manager = ShardManager(data, L2(), n_shards=n_shards, backend="mvpt", rng=3)
        want = _sequential(manager, queries)
        assert any(state for query in queries for state in _paused(manager, query))
        seen = []
        for name, engine in _engines(manager, tmp_path):
            with engine:
                batch = engine.run_batch(queries)
            seen.append(name)
            for result, (answer, stats) in zip(batch.results, want):
                assert result.neighbors == answer, name
                assert result.stats.to_dict() == stats.to_dict(), name
                assert not result.degraded
        assert "thread-deadline" in seen

    def test_mutated_shards_match_across_executors(self, data, queries):
        manager = ShardManager(data, L2(), n_shards=2, backend="vpt", rng=3)
        rng = np.random.default_rng(6)
        for _ in range(5):
            manager.insert(data[77] + rng.uniform(-0.01, 0.01, size=data.shape[1]))
        for gid in (77, 78, 79, 400, 401):
            manager.delete(gid)
        want = _sequential(manager, queries)
        for executor in ("serial", "thread"):
            with QueryEngine(manager, executor=executor, workers=2) as engine:
                batch = engine.run_batch(queries)
            for result, (answer, stats) in zip(batch.results, want):
                assert result.neighbors == answer
                assert result.stats.to_dict() == stats.to_dict()


class TestBetweenRounds:
    def test_deadline_expiring_between_rounds_times_the_shard_out(self, data):
        """Round one answers in time; round two of every shard is held
        past the deadline, so the paused shards count as timed out, the
        first round's distances still count, and no permit leaks."""
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        query = Query.knn(data[40] + 0.02, 3)
        assert all(_paused(manager, query))
        calls: dict[int, int] = {}
        release = threading.Event()

        def hold_round_two(qi, shard, attempt):
            calls[shard] = calls.get(shard, 0) + 1
            if calls[shard] > 1:
                release.wait(timeout=5.0)

        engine = QueryEngine(
            manager, executor=ThreadedExecutor(2), timeout=0.3,
            max_pending=2, fault_hook=hold_round_two,
        )
        try:
            result = engine.run_batch([query]).results[0]
            release.set()
            assert result.degraded
            assert result.shards_timed_out == 2
            assert result.stats.shard_outcomes == {0: SHARD_TIMEOUT, 1: SHARD_TIMEOUT}
            assert result.stats.distance_calls > 0
            time.sleep(0.05)
            engine.fault_hook = None
            again = engine.run_batch([query], timeout=30.0).results[0]
            assert again.neighbors == manager.knn_search(query.query, 3)
        finally:
            release.set()
            engine.close()

    def test_deadline_passing_in_round_one_skips_round_two(self, data):
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        query = Query.knn(data[40] + 0.02, 3)
        release = threading.Event()

        def hold_shard_one(qi, shard, attempt):
            if shard == 1:
                release.wait(timeout=5.0)

        try:
            with QueryEngine(
                manager, workers=2, timeout=0.2, fault_hook=hold_shard_one
            ) as engine:
                result = engine.run_batch([query]).results[0]
                release.set()
        finally:
            release.set()
        # Shard 0 paused in time but got no round two.
        assert result.shards_timed_out == 2
        assert result.neighbors == []

    def test_replica_dropped_between_rounds_reruns_exactly(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="mvpt", replication_factor=2, rng=3
        )
        oracle = LinearScan(data, L2())
        query = Query.knn(data[40] + 0.02, 3)
        values, states = zip(*(_round(manager, s, query) for s in range(2)))
        assert all(states)
        resumed = second_round(list(values), list(states))
        dropped = manager.drop_replica(0, 0)
        try:
            stats = QueryStats()
            final = [
                _round(manager, 0, query, resumed[0], stats=stats)[0],
                _round(manager, 1, query, resumed[1])[0],
            ]
        finally:
            manager.replicas[0][0] = dropped
        assert stats.retries == 1  # shard 0 ran again on replica 1
        merged = sorted(n for value in final for n in value)[: query.k]
        assert merged == oracle.knn_search(query.query, query.k)

    def test_engine_fails_round_two_over_to_a_sibling(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="mvpt", replication_factor=2, rng=3
        )
        query = Query.knn(data[40] + 0.02, 3)
        assert _paused(manager, query)[0] is not None
        want = manager.knn_search(query.query, query.k)
        calls = {0: 0}

        def drop_before_round_two(qi, shard, attempt, replica):
            if shard == 0:
                calls[0] += 1
                if calls[0] == 2:
                    manager.drop_replica(0, replica)

        with QueryEngine(
            manager, executor=SerialExecutor(), fault_hook=drop_before_round_two
        ) as engine:
            result = engine.run_batch([query]).results[0]
        assert result.neighbors == want
        assert not result.degraded
        assert result.stats.failovers == 1
        assert result.stats.retries == 1

    def test_store_file_replaced_between_rounds_reruns_exactly(self, data, tmp_path):
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        paths = save_shard_stores(manager, tmp_path)
        query = Query.knn(data[60] + 0.02, 3)
        first = [
            remote_store_search(str(paths[(s, 0)]), "l2", query, ROUND_ONE)
            for s in range(2)
        ]
        values = [value for value, _, _ in first]
        states = [state for _, _, state in first]
        assert all(states)
        resumed = second_round(values, states)
        # A rebuilt shard 0: the same points in a different tree.
        rebuilt = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=9)
        write_store(
            rebuilt.shards[0], paths[(0, 0)],
            global_ids=np.asarray(manager.shard_ids[0], dtype=np.int64),
        )
        final = []
        for shard in range(2):
            value, stats, outcome = remote_store_search(
                str(paths[(shard, 0)]), "l2", query, resumed[shard]
            )
            assert not isinstance(outcome, PausedShard)
            assert stats.retries == (1 if shard == 0 else 0)
            final.append(value)
        merged = sorted(n for value in final for n in value)[: query.k]
        assert merged == LinearScan(data, L2()).knn_search(query.query, query.k)

    def test_an_index_smaller_than_k_takes_no_outside_bound(self):
        """A round two that starts from the root on an index holding
        fewer than ``k`` points (a store replaced by a smaller one)
        returns every point: the other shards' candidates, however
        close, cannot bound it."""
        points = np.arange(10.0, 40.0)[:, None]
        tree = VPTree(points, L2(), leaf_capacity=2, rng=0)
        state = PausedShard(
            None, ("replaced",), [], np.zeros(0), outside=np.arange(1.0, 41.0)
        )
        stats = QueryStats()
        got, bound = search(tree, Query.knn(np.zeros(1), 40), stats=stats, resume=state)
        assert sorted(n.id for n in got) == list(range(30))
        assert bound is None
        assert stats.retries == 1

    @needs_fork
    def test_store_workers_rerun_a_replaced_file(self, data, tmp_path):
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        paths = save_shard_stores(manager, tmp_path)
        rebuilt = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=9)
        query = Query.knn(data[60] + 0.02, 3)
        calls = {0: 0}

        def replace_before_round_two(qi, shard, attempt):
            if shard == 0:
                calls[0] += 1
                if calls[0] == 2:
                    write_store(
                        rebuilt.shards[0], paths[(0, 0)],
                        global_ids=np.asarray(manager.shard_ids[0], dtype=np.int64),
                    )

        with QueryEngine(
            manager, executor="process", workers=2, store_paths=paths,
            metric_spec="l2", fault_hook=replace_before_round_two,
        ) as engine:
            result = engine.run_batch([query]).results[0]
        assert calls[0] == 2
        assert result.stats.retries == 1
        assert result.neighbors == LinearScan(data, L2()).knn_search(query.query, 3)

    def test_store_rewritten_with_the_same_tree_resumes(self, data, tmp_path):
        """The stamp is the store's payload digest: a file replaced by
        the same tree (a new inode, maybe the same mtime) still resumes,
        paying no distance twice."""
        manager = ShardManager(data, L2(), n_shards=2, backend="mvpt", rng=3)
        paths = save_shard_stores(manager, tmp_path)
        query = Query.knn(data[60] + 0.02, 3)
        first = [
            remote_store_search(str(paths[(s, 0)]), "l2", query, ROUND_ONE)
            for s in range(2)
        ]
        resumed = second_round([v for v, _, _ in first], [o for _, _, o in first])
        assert resumed[0] is not None
        write_store(
            manager.shards[0], paths[(0, 0)],
            global_ids=np.asarray(manager.shard_ids[0], dtype=np.int64),
        )
        _, stats, _ = remote_store_search(str(paths[(0, 0)]), "l2", query, resumed[0])
        assert stats.retries == 0


def _shells(seed: int, n: int = 1000, dim: int = 8) -> np.ndarray:
    """Two contiguous shards of points on shells around the origin.

    Shard 0 holds one point at distance 1.0 (row 0) and ``n - 1`` at
    2 to 3; shard 1 one point at 1.5 (row ``n``) and the rest at 1.6 to
    3.  A 1-NN at the origin pauses both shards, shard 0 having paid
    its 1.0 point; for the seeds below shard 1 has not yet paid its 1.5
    point, so round two prunes it with shard 0's 1.0.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for near, lo in ((1.0, 2.0), (1.5, 1.6)):
        unit = rng.normal(size=(n, dim))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        shell = unit * rng.uniform(lo, 3.0, size=(n, 1))
        shell[0] = unit[0] * near
        rows.append(shell)
    return np.vstack(rows)


def _delete_between_rounds(monkeypatch, manager, gid: int) -> list:
    """Make the candidate exchange delete ``gid`` once, after round one."""
    paused: list = []

    def exchange(values, states):
        if not paused:
            paused.extend(states)
            manager.delete(gid)
        return second_round(values, states)

    monkeypatch.setattr("repro.serve.sharding.second_round", exchange)
    monkeypatch.setattr("repro.serve.engine.second_round", exchange)
    return paused


def _live_answer(manager, data, query) -> list[tuple[float, int]]:
    live = np.array(manager.live_ids())
    oracle = LinearScan(data[live], L2())
    return [
        (n.distance, int(live[n.id])) for n in oracle.knn_search(query.query, query.k)
    ]


SHELL_SEEDS = [4, 6, 7, 9]


class TestWritesBetweenRounds:
    """A delete between the rounds takes away a candidate the other
    shards prune with: shard 0's 1.0 point is deleted after round one,
    shard 1 resumes on its unchanged slot and prunes with 1.0, missing
    its 1.5 point, and shard 0 runs again without the 1.0 point.  The
    merge then finds its k-th distance past shard 1's threshold and
    runs shard 1 again in one round."""

    def _deployment(self, seed):
        data = _shells(seed)
        manager = ShardManager(
            data, L2(), n_shards=2, backend="mvpt", assignment="contiguous", rng=3
        )
        return data, manager, Query.knn(np.zeros(data.shape[1]), 1)

    @pytest.mark.parametrize("seed", SHELL_SEEDS)
    def test_sequential_manager(self, monkeypatch, seed):
        data, manager, query = self._deployment(seed)
        paused = _delete_between_rounds(monkeypatch, manager, 0)
        stats = QueryStats()
        got = manager.knn_search(query.query, query.k, stats=stats)
        assert all(state is not None for state in paused)
        assert paused[0].near[0] < 1.1 and paused[1].near[0] > 1.55
        assert [(n.distance, n.id) for n in got] == _live_answer(manager, data, query)
        assert got[0].id == len(data) // 2
        # Shard 0's stale stamp; then both shards pruned with outside
        # candidates, and both run again.
        assert stats.retries == 3

    @pytest.mark.parametrize("executor", ["serial", "thread", "thread-deadline"])
    @pytest.mark.parametrize("seed", SHELL_SEEDS[:2])
    def test_engine(self, monkeypatch, executor, seed):
        data, manager, query = self._deployment(seed)
        want_stats = QueryStats()
        _delete_between_rounds(monkeypatch, manager, 0)
        want = manager.knn_search(query.query, query.k, stats=want_stats)
        data, manager, query = self._deployment(seed)  # the same, unwritten
        _delete_between_rounds(monkeypatch, manager, 0)
        timeout = 30.0 if executor == "thread-deadline" else None
        kind = "serial" if executor == "serial" else "thread"
        with QueryEngine(manager, executor=kind, workers=2, timeout=timeout) as engine:
            result = engine.run_batch([query]).results[0]
        assert not result.degraded
        assert result.neighbors == want
        assert [(n.distance, n.id) for n in want] == _live_answer(manager, data, query)
        assert result.stats.to_dict() == want_stats.to_dict()

    def test_every_write_changes_the_stamp(self, data):
        """The stamp names the slot's live set exactly: the epoch, the
        replica and a count of the writes that reached the shard."""
        manager = ShardManager(
            data, L2(), n_shards=2, backend="mvpt", replication_factor=2, rng=3
        )
        query = Query.knn(data[40] + 0.02, 3)
        stamps = [_round(manager, 0, query)[1].stamp]
        manager.delete(manager.shard_ids[0][7])
        stamps.append(_round(manager, 0, query)[1].stamp)
        gid = manager.insert(data[5] + 0.5)
        assert gid % 2 == 0  # it lands in shard 0
        stamps.append(_round(manager, 0, query)[1].stamp)
        stamps.append(_round(manager, 0, query, replica=1)[1].stamp)
        manager.delete(manager.shard_ids[1][3])  # another shard: no change
        stamps.append(_round(manager, 0, query)[1].stamp)
        assert len(set(stamps)) == 4
        assert stamps[-1] == stamps[2]
