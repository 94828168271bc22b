"""Disk-backed serving pieces: worker cache, shard stores, recovery.

Covers the seams between ``repro.store`` and ``repro.serve``: the
per-worker store cache (stat-keyed reopen on rebuild), the shard-store
writer, metric specs, and ``ShardManager.recover(stores=...)`` — which
must open a good store with *zero* distance computations and refuse a
corrupt one by falling back to an in-memory rebuild.
"""

import numpy as np
import pytest

from repro.metric import L2
from repro.metric.base import CountingMetric
from repro.serve.sharding import Query, ShardManager
from repro.store import (
    METRIC_SPECS,
    metric_from_spec,
    open_worker_index,
    remote_store_search,
    save_shard_stores,
    write_store,
)
from repro.store.sharded import store_name

N, DIM = 120, 6


@pytest.fixture()
def data():
    return np.random.default_rng(20).random((N, DIM))


@pytest.fixture()
def manager(data):
    return ShardManager(
        data, L2(), n_shards=3, backend="vpt", replication_factor=2, rng=4
    )


class TestMetricSpecs:
    def test_named_specs_resolve(self):
        for name in METRIC_SPECS:
            assert metric_from_spec(name) is not None

    def test_tuple_spec_passes_kwargs(self):
        scaled = metric_from_spec(("l2", {"scale": 2.0}))
        plain = metric_from_spec("l2")
        assert scaled.distance(np.zeros(2), np.ones(2)) == pytest.approx(
            plain.distance(np.zeros(2), np.ones(2)) / 2.0
        )

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="l2"):
            metric_from_spec("cosine-ish")


class TestSaveShardStores:
    def test_every_live_replica_gets_a_file(self, manager, tmp_path):
        paths = save_shard_stores(manager, tmp_path)
        assert set(paths) == {
            (shard, replica)
            for shard in range(manager.n_shards)
            for replica in range(manager.replication_factor)
        }
        for (shard, replica), path in paths.items():
            assert path.name == store_name(shard, replica)
            assert path.exists()

    def test_lost_replica_slot_is_skipped(self, manager, tmp_path):
        manager.drop_replica(1, 0)
        paths = save_shard_stores(manager, tmp_path)
        assert (1, 0) not in paths
        assert (1, 1) in paths

    def test_global_ids_map_back_to_dataset(self, manager, data, tmp_path):
        from repro.store import open_index

        paths = save_shard_stores(manager, tmp_path)
        with open_index(paths[(2, 0)], L2()) as index:
            local = index.range_search(data[manager.shard_ids[2][0]], 1e-9)
            mapped = index.to_global(local)
            assert manager.shard_ids[2][0] in mapped


class TestWorkerCache:
    def test_reopen_only_on_changed_stat(self, data, tmp_path):
        from repro.indexes.vptree import VPTree

        path = tmp_path / "shard.rsx"
        write_store(VPTree(data, L2(), m=2, leaf_capacity=4, rng=0), path)
        first = open_worker_index(str(path), "l2")
        again = open_worker_index(str(path), "l2")
        assert again is first  # unchanged stat: cached handle reused
        write_store(VPTree(data, L2(), m=2, leaf_capacity=5, rng=1), path)
        rebuilt = open_worker_index(str(path), "l2")
        assert rebuilt is not first  # replaced file: fresh mmap

    def test_remote_search_matches_local(self, manager, data, tmp_path):
        paths = save_shard_stores(manager, tmp_path)
        query = data[3]
        for kind in ("range", "knn"):
            request = (
                Query.range(query, 0.5) if kind == "range" else Query.knn(query, 5)
            )
            value, stats, report = remote_store_search(
                str(paths[(0, 0)]), "l2", request
            )
            assert report is None  # exact tier: no approx certificate
            if kind == "range":
                assert sorted(value) == sorted(
                    manager.shard_range_search(0, query, 0.5, replica=0)
                )
            else:
                assert value == manager.shard_knn_search(
                    0, query, 5, replica=0
                )
            assert stats.distance_calls > 0


class TestRecoverFromStores:
    def test_good_store_recovers_with_zero_distance_calls(
        self, manager, data, tmp_path
    ):
        paths = save_shard_stores(manager, tmp_path)
        counter = CountingMetric(L2())
        restored = ShardManager(
            data, counter, n_shards=3, backend="vpt",
            replication_factor=2, rng=4,
        )
        restored.drop_replica(0, 1)
        counter.count = 0
        recovered = restored.recover(stores=paths)
        assert recovered == [(0, 1)]
        assert counter.count == 0  # opened from disk, never rebuilt
        assert restored.store_refusal_count == 0
        query = data[7]
        assert restored.shard_knn_search(
            0, query, 5, replica=1
        ) == manager.shard_knn_search(0, query, 5, replica=1)

    def test_corrupt_store_is_refused_and_rebuilt(
        self, manager, data, tmp_path
    ):
        paths = save_shard_stores(manager, tmp_path)
        victim = paths[(1, 0)]
        blob = bytearray(victim.read_bytes())
        blob[-2] ^= 0x40
        victim.write_bytes(bytes(blob))
        counter = CountingMetric(L2())
        restored = ShardManager(
            data, counter, n_shards=3, backend="vpt",
            replication_factor=2, rng=4,
        )
        restored.drop_replica(1, 0)
        counter.count = 0
        recovered = restored.recover(stores=paths)
        assert recovered == [(1, 0)]
        assert restored.store_refusal_count == 1  # refusal was counted
        assert counter.count > 0  # fell back to an in-memory rebuild
        assert restored.replica(1, 0) is not None

    def test_missing_store_path_falls_back_to_rebuild(self, manager, data):
        counter = CountingMetric(L2())
        restored = ShardManager(
            data, counter, n_shards=3, backend="vpt",
            replication_factor=2, rng=4,
        )
        restored.drop_replica(2, 1)
        counter.count = 0
        assert restored.recover(stores={}) == [(2, 1)]
        assert counter.count > 0
