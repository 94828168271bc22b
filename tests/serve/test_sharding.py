"""ShardManager: partition correctness and exact merging.

The merge edge cases here are the ones that break naive sharded k-NN
implementations: ties at the k-th distance straddling shards, shards
with no qualifying points, more shards than data, and k larger than the
dataset.
"""

import threading

import numpy as np
import pytest

from repro import LinearScan, Neighbor
from repro.metric import L2, EditDistance
from repro.serve import (
    SHARD_BACKENDS,
    ShardManager,
    assign_shards,
    merge_knn,
    merge_range,
)


class TestAssignShards:
    @pytest.mark.parametrize("assignment", ["round-robin", "contiguous"])
    @pytest.mark.parametrize("n,shards", [(1, 1), (7, 3), (30, 4), (3, 8)])
    def test_partition_is_disjoint_and_covering(self, n, shards, assignment):
        ids = assign_shards(n, shards, assignment)
        assert len(ids) == shards
        flat = [i for shard in ids for i in shard]
        assert sorted(flat) == list(range(n))

    def test_round_robin_balances_sizes(self):
        sizes = [len(s) for s in assign_shards(10, 3, "round-robin")]
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_is_blocks(self):
        for shard in assign_shards(17, 4, "contiguous"):
            assert shard == list(range(shard[0], shard[-1] + 1))

    def test_unknown_assignment_raises(self):
        with pytest.raises(ValueError, match="unknown assignment"):
            assign_shards(10, 2, "random")


class TestMergeFunctions:
    def test_merge_range_sorted_union(self):
        assert merge_range([[5, 9], [], [1, 7]]) == [1, 5, 7, 9]

    def test_merge_knn_tie_at_kth_resolved_by_id(self):
        # Two shards both offer distance 1.0 at the cut; the lower
        # global id must win, exactly like a single index would pick.
        a = [Neighbor(0.5, 4), Neighbor(1.0, 9)]
        b = [Neighbor(1.0, 2), Neighbor(1.0, 7)]
        assert merge_knn([a, b], 2) == [Neighbor(0.5, 4), Neighbor(1.0, 2)]

    def test_merge_knn_with_empty_candidate_lists(self):
        a = [Neighbor(0.2, 1)]
        assert merge_knn([[], a, []], 3) == a

    def test_merge_knn_k_exceeds_candidates(self):
        a = [Neighbor(0.2, 1), Neighbor(0.4, 0)]
        assert merge_knn([a], 10) == a

    def test_merge_knn_equals_a_full_sort_under_heavy_ties(self):
        # Few distinct distances, so most cuts fall inside a tie; the
        # selection must equal sorting every (distance, id) pair.
        rng = np.random.default_rng(11)
        for _ in range(200):
            ids = rng.permutation(60)
            lists, start = [], 0
            for size in rng.integers(0, 15, size=4):
                lists.append(sorted(
                    Neighbor(float(rng.integers(0, 4)) / 2, int(i))
                    for i in ids[start:start + size]
                ))
                start += size
            everything = sorted(n for part in lists for n in part)
            for k in (0, 1, 3, 7, len(everything), len(everything) + 5):
                assert merge_knn(lists, k) == everything[:k]

    def test_merge_knn_returns_the_candidate_objects(self):
        # Integer distances (edit distance) stay integers.
        a = [Neighbor(1, 3), Neighbor(2, 0)]
        b = [Neighbor(1, 1)]
        merged = merge_knn([a, b], 2)
        assert merged == [Neighbor(1, 1), Neighbor(1, 3)]
        assert merged[0] is b[0] and merged[1] is a[0]
        assert all(type(n.distance) is int for n in merged)


class TestShardManagerPartition:
    @pytest.mark.parametrize("assignment", ["round-robin", "contiguous"])
    def test_shard_ids_partition_dataset(self, uniform_data, assignment):
        manager = ShardManager(
            uniform_data, L2(), n_shards=5, backend="vpt",
            assignment=assignment, rng=0,
        )
        flat = sorted(i for ids in manager.shard_ids for i in ids)
        assert flat == list(range(len(uniform_data)))
        assert sum(manager.shard_sizes()) == len(uniform_data)

    def test_more_shards_than_points_leaves_empty_shards(self):
        data = np.random.default_rng(0).random((3, 4))
        manager = ShardManager(data, L2(), n_shards=8, backend="linear", rng=0)
        assert sum(1 for s in manager.shards if s is None) == 5
        assert manager.range_search(data[0], 10.0) == [0, 1, 2]

    def test_unknown_backend_raises(self, uniform_data):
        with pytest.raises(ValueError, match="unknown shard backend"):
            ShardManager(uniform_data, L2(), backend="btree")

    def test_callable_backend(self, uniform_data):
        manager = ShardManager(
            uniform_data, L2(), n_shards=3,
            backend=lambda objects, metric, rng: LinearScan(objects, metric),
        )
        assert manager.backend_name is None
        assert all(isinstance(s, LinearScan) for s in manager.shards)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            ShardManager(np.empty((0, 4)), L2(), n_shards=2)

    def test_rejects_nonpositive_shards(self, uniform_data):
        with pytest.raises(ValueError, match="n_shards"):
            ShardManager(uniform_data, L2(), n_shards=0)


class TestShardManagerSearch:
    """Sequential ShardManager answers == linear scan, per edge case."""

    @pytest.fixture(scope="class")
    def deployment(self, uniform_data):
        manager = ShardManager(
            uniform_data, L2(), n_shards=4, backend="vpt", rng=7
        )
        return manager, LinearScan(uniform_data, L2())

    def test_range_matches_oracle(self, deployment, uniform_data):
        manager, oracle = deployment
        for radius in (0.0, 0.4, 0.9, 10.0):
            query = uniform_data[11]
            assert manager.range_search(query, radius) == oracle.range_search(
                query, radius
            )

    def test_zero_result_range(self, deployment):
        manager, oracle = deployment
        query = np.full(10, 50.0)
        assert manager.range_search(query, 0.5) == []
        assert oracle.range_search(query, 0.5) == []

    def test_knn_matches_oracle(self, deployment, uniform_data):
        manager, oracle = deployment
        for k in (1, 5, 17):
            query = uniform_data[42]
            assert manager.knn_search(query, k) == oracle.knn_search(query, k)

    def test_knn_k_larger_than_dataset(self):
        data = np.random.default_rng(3).random((6, 4))
        manager = ShardManager(data, L2(), n_shards=3, backend="linear")
        oracle = LinearScan(data, L2())
        query = data[1]
        got = manager.knn_search(query, 6)
        assert got == oracle.knn_search(query, 6)
        assert len(got) == 6

    def test_knn_ties_at_kth_across_shards(self):
        # Points equidistant from the query land in different shards
        # (round-robin); the global cut must break ties by id.
        data = np.array(
            [[1.0], [-1.0], [1.0], [-1.0], [2.0], [0.5]], dtype=float
        )
        manager = ShardManager(data, L2(), n_shards=2, backend="linear")
        oracle = LinearScan(data, L2())
        query = np.zeros(1)
        for k in (1, 2, 3, 4):
            assert manager.knn_search(query, k) == oracle.knn_search(query, k)

    def test_discrete_backend_over_words(self, word_data):
        manager = ShardManager(
            list(word_data), EditDistance(), n_shards=3, backend="bkt"
        )
        oracle = LinearScan(list(word_data), EditDistance())
        query = word_data[0]
        assert manager.range_search(query, 2.0) == oracle.range_search(query, 2.0)
        assert manager.knn_search(query, 5) == oracle.knn_search(query, 5)


class TestReplicaTableThreadSafety:
    """Regression: the replica table is guarded by ``_replicas_lock``.

    Before the lock existed, ``drop_replica``/``recover`` raced against
    the ``shards`` view used by searches; this churns both sides and
    checks every concurrent answer stays exact.
    """

    def test_concurrent_drop_recover_churn_stays_exact(self, uniform_data):
        objects = uniform_data[:60]
        manager = ShardManager(
            objects, L2(), n_shards=3, backend="linear", rng=2,
            replication_factor=2,
        )
        oracle = LinearScan(objects, L2())
        query = objects[7] + 0.01
        expected = oracle.range_search(query, 0.6)
        done = threading.Event()
        errors: list[Exception] = []

        def churn():
            try:
                for i in range(30):
                    manager.drop_replica(i % 3, 1)
                    manager.recover(rng=i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def search():
            try:
                while not done.is_set():
                    assert manager.range_search(query, 0.6) == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn)] + [
            threading.Thread(target=search) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # The table converges: every shard ends fully replicated.
        manager.recover(rng=99)
        for shard in range(3):
            assert manager.live_replicas(shard) == [0, 1]

    def test_recover_rebuilds_only_missing_slots(self, uniform_data):
        objects = uniform_data[:40]
        manager = ShardManager(
            objects, L2(), n_shards=2, backend="linear", rng=5,
            replication_factor=2,
        )
        assert manager.recover(rng=0) == []
        manager.drop_replica(1, 0)
        assert manager.recover(rng=1) == [(1, 0)]
        assert manager.live_replicas(1) == [0, 1]


@pytest.mark.parametrize("backend", sorted(set(SHARD_BACKENDS) - {"bkt"}))
def test_every_vector_backend_matches_oracle(backend, uniform_data):
    """Sharded search is exact under every index family in the registry."""
    manager = ShardManager(
        uniform_data, L2(), n_shards=3, backend=backend, rng=13
    )
    oracle = LinearScan(uniform_data, L2())
    query = uniform_data[5] + 0.01
    assert manager.range_search(query, 0.6) == oracle.range_search(query, 0.6)
    assert manager.knn_search(query, 9) == oracle.knn_search(query, 9)
