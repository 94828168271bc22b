"""One build per replicated shard.

A read-only base (every static tree, scan and table index) is built
once per shard and served by all of that shard's replica slots, which
share its id tables and keep their own tombstones.  A base that takes
writes in place (``DynamicMVPTree``, store-backed indexes) keeps one
build per slot.  Set-up, rolling rebuilds, split/merge rebuilds and
``recover()`` all follow that rule; replica 0 draws from the rng
exactly as an unreplicated deployment does.
"""

import json

import numpy as np
import pytest

from repro import LinearScan, Neighbor
from repro._util import as_rng, gather
from repro.check.invariants import verify_shard_manager
from repro.metric import L2
from repro.persist.serialize import index_from_dict, index_to_dict
from repro.serve import Query, QueryEngine, ShardManager
from repro.serve.lifecycle import RebuildCoordinator
from repro.serve import sharding
from repro.serve.sharding import SHARD_BACKENDS, assign_shards

STATIC = ["vpt", "mvpt", "laesa", "linear"]


class CountingBuilder:
    """A shard builder that counts its calls."""

    def __init__(self, builder):
        self.builder = builder
        self.calls = 0

    def __call__(self, objects, metric, rng):
        self.calls += 1
        return self.builder(objects, metric, rng)


@pytest.fixture()
def data():
    return np.random.default_rng(11).random((60, 6))


def counted(monkeypatch, backend):
    builder = CountingBuilder(SHARD_BACKENDS[backend])
    monkeypatch.setitem(SHARD_BACKENDS, backend, builder)
    return builder


def count_builds(manager):
    manager._builder = CountingBuilder(manager._builder)
    return manager._builder


def assert_matches_scan(manager, objects, queries, *, radius=0.5, k=6):
    oracle = LinearScan(objects, L2())
    for query in queries:
        assert manager.range_search(query, radius) == oracle.range_search(
            query, radius
        )
        assert manager.knn_search(query, k) == oracle.knn_search(query, k)


class TestSetUp:
    @pytest.mark.parametrize("backend", STATIC)
    def test_static_backend_builds_once_per_populated_shard(
        self, monkeypatch, backend
    ):
        objects = np.random.default_rng(1).random((4, 3))
        builder = counted(monkeypatch, backend)
        manager = ShardManager(
            objects, L2(), n_shards=6, backend=backend,
            replication_factor=3, rng=0,
        )
        assert builder.calls == 4
        for shard in range(6):
            first = manager.replica(shard, 0)
            assert all(manager.replica(shard, r) is first for r in (1, 2))
            slots = [manager._slots[r][shard] for r in range(3)]
            assert all(slot.ids is slots[0].ids for slot in slots)
            assert len({id(slot.dead) for slot in slots}) == 3
        assert verify_shard_manager(manager) == []

    def test_dynamic_builds_once_per_replica(self, monkeypatch, data):
        builder = counted(monkeypatch, "dynamic")
        manager = ShardManager(
            data, L2(), n_shards=3, backend="dynamic",
            replication_factor=2, rng=0,
        )
        assert builder.calls == 6
        for shard in range(3):
            assert manager.replica(shard, 0) is not manager.replica(shard, 1)
            assert manager._slots[0][shard].ids is not manager._slots[1][shard].ids


def parent_style_rows(objects, backend, n_shards, replication, seed):
    """Every replica built from scratch, in (replica, shard) order."""
    generator = as_rng(seed)
    metric = L2()
    return [
        [
            SHARD_BACKENDS[backend](gather(objects, ids), metric, generator)
            for ids in assign_shards(len(objects), n_shards, "round-robin")
        ]
        for _ in range(replication)
    ]


def tables(index) -> str:
    return json.dumps(index_to_dict(index), sort_keys=True)


class TestSameDraws:
    @pytest.mark.parametrize("backend", ["vpt", "mvpt", "gmvpt"])
    def test_replica_zero_equals_a_from_scratch_build(self, data, backend):
        manager = ShardManager(
            data, L2(), n_shards=3, backend=backend,
            replication_factor=2, rng=5,
        )
        reference = parent_style_rows(data, backend, 3, 2, 5)
        for shard in range(3):
            assert tables(manager.replica(shard, 0)) == tables(reference[0][shard])

    def test_dynamic_replicas_equal_from_scratch_builds(self, data):
        manager = ShardManager(
            data, L2(), n_shards=3, backend="dynamic",
            replication_factor=2, rng=5,
        )
        reference = parent_style_rows(data, "dynamic", 3, 2, 5)
        for r in range(2):
            for shard in range(3):
                assert tables(manager.replica(shard, r)) == tables(
                    reference[r][shard]
                )


class TestRebuildsBuildOncePerShard:
    def test_rebuild_shard(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="vpt",
            replication_factor=3, rng=0,
        )
        for gid in (0, 2, 4):
            manager.delete(gid)
        manager.insert(data[7] + 0.01)
        builder = count_builds(manager)
        epochs = RebuildCoordinator(manager, rng=1).rebuild_shard(0)
        assert builder.calls == 1
        assert epochs == sorted(epochs) and len(epochs) == 3
        base = manager.replica(0, 0)
        assert all(manager.replica(0, r) is base for r in range(3))
        assert manager.memtable(0) == []
        assert all(manager.slot_state(0, r)[1] == set() for r in range(3))
        assert verify_shard_manager(manager) == []

    def test_dynamic_rebuild_builds_once_per_replica(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="dynamic",
            replication_factor=2, rng=0,
        )
        builder = count_builds(manager)
        RebuildCoordinator(manager, rng=1).rebuild_shard(1)
        assert builder.calls == 2
        assert manager.replica(1, 0) is not manager.replica(1, 1)
        assert verify_shard_manager(manager) == []

    def test_split_rebuilds_each_shard_once(self, data):
        manager = ShardManager(
            data, L2(), n_shards=3, backend="vpt",
            replication_factor=2, rng=0,
        )
        for gid in manager.shard_ids[1][:15] + manager.shard_ids[2][:15]:
            manager.delete(gid)
        builder = count_builds(manager)
        coordinator = RebuildCoordinator(
            manager, split_factor=1.5, min_split_size=4, merge_factor=0, rng=1
        )
        actions = coordinator.maybe_rebalance()
        assert actions["split"] == (0, 3)
        assert builder.calls == 2
        for shard in (0, 3):
            assert manager.replica(shard, 1) is manager.replica(shard, 0)
        assert verify_shard_manager(manager) == []
        assert_matches_scan_live(manager, data)

    def test_merge_rebuilds_the_destination_once(self, data):
        manager = ShardManager(
            data, L2(), n_shards=3, backend="vpt",
            replication_factor=2, rng=0,
        )
        for gid in manager.shard_ids[1][2:] + manager.shard_ids[2][2:]:
            manager.delete(gid)
        builder = count_builds(manager)
        coordinator = RebuildCoordinator(
            manager, split_factor=100.0, merge_factor=2.0, rng=1
        )
        actions = coordinator.maybe_rebalance()
        src, dst = actions["merged"]
        assert builder.calls == 1
        assert manager.replica(src, 0) is None
        assert manager.replica(dst, 1) is manager.replica(dst, 0)
        assert verify_shard_manager(manager) == []
        assert_matches_scan_live(manager, data)


def assert_matches_scan_live(manager, objects):
    gids = manager.live_ids()
    oracle = LinearScan(objects[gids], L2())
    for query in objects[:5] + 0.02:
        want = sorted(gids[i] for i in oracle.range_search(query, 0.6))
        assert manager.range_search(query, 0.6) == want
        want_knn = [
            Neighbor(n.distance, gids[n.id]) for n in oracle.knn_search(query, 5)
        ]
        assert manager.knn_search(query, 5) == want_knn


class TestRecover:
    def test_losing_both_replicas_of_a_shard_builds_once(self, data):
        manager = ShardManager(
            data, L2(), n_shards=3, backend="vpt",
            replication_factor=2, rng=0,
        )
        manager.drop_replica(1, 0)
        manager.drop_replica(1, 1)
        manager.delete(manager.shard_ids[1][3])
        builder = count_builds(manager)
        assert manager.recover(rng=4) == [(1, 0), (1, 1)]
        assert builder.calls == 1
        assert manager.replica(1, 0) is manager.replica(1, 1)
        assert manager._slots[0][1].ids is manager._slots[1][1].ids
        assert verify_shard_manager(manager) == []
        assert_matches_scan_live(manager, data)

    def test_dynamic_recovery_builds_each_lost_slot(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="dynamic",
            replication_factor=2, rng=0,
        )
        manager.drop_replica(0, 0)
        manager.drop_replica(0, 1)
        builder = count_builds(manager)
        assert manager.recover(rng=4) == [(0, 0), (0, 1)]
        assert builder.calls == 2
        assert manager.replica(0, 0) is not manager.replica(0, 1)
        assert verify_shard_manager(manager) == []


class TestSharedBaseWrites:
    def test_delete_tombstones_every_slot(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="vpt",
            replication_factor=3, rng=0,
        )
        manager.delete(6)
        live = manager.shard_ids[0]
        oracle = LinearScan(data[live], L2())
        want = [
            Neighbor(n.distance, live[n.id])
            for n in oracle.knn_search(data[6], 3)
        ]
        for r in range(3):
            assert manager.slot_state(0, r)[1] == {6}
            assert manager.shard_knn_search(0, data[6], 3, replica=r) == want
        assert verify_shard_manager(manager) == []

    def test_failover_from_a_dropped_replica_zero_is_exact(self, data):
        manager = ShardManager(
            data, L2(), n_shards=3, backend="vpt",
            replication_factor=2, rng=0,
        )
        manager.drop_replica(1, 0)
        queries = [data[i] + 0.03 for i in range(6)]
        batch = [Query.range(q, 0.5) for q in queries] + [
            Query.knn(q, 6) for q in queries
        ]
        oracle = LinearScan(data, L2())
        with QueryEngine(manager, workers=2) as engine:
            results = engine.run_batch(batch).results
        for query, result in zip(queries, results[:6]):
            assert not result.degraded
            assert result.ids == oracle.range_search(query, 0.5)
        for query, result in zip(queries, results[6:]):
            assert not result.degraded
            assert result.neighbors == oracle.knn_search(query, 6)
        assert_matches_scan(manager, data, queries)

    def test_dynamic_insert_is_absorbed_once_per_replica_object(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="dynamic",
            replication_factor=3, rng=0,
        )
        before = [len(manager.replica(0, r)) for r in range(3)]
        gid = manager.insert(data[4] + 0.01)
        assert gid % 2 == 0
        assert [len(manager.replica(0, r)) for r in range(3)] == [
            n + 1 for n in before
        ]
        assert len({id(manager.replica(0, r)) for r in range(3)}) == 3
        assert all(manager.slot_state(0, r)[0][-1] == gid for r in range(3))
        assert manager.memtable(0) == []
        assert verify_shard_manager(manager) == []


def rows_by_gid(manager, data):
    """Base rows followed by the inserted ones, indexed by gid."""
    tail = manager._tail
    return np.vstack([data, np.asarray(tail)]) if tail else data


class TestSwapReconciliation:
    """A swap given the snapshot shares its id tables between slots;
    the resulting state must equal a swap given a plain id list."""

    @pytest.mark.parametrize("writes", [5, 80])
    def test_snapshot_swap_equals_a_plain_id_list_swap(self, data, writes):
        pair = [
            ShardManager(
                data, L2(), n_shards=2, backend="vpt",
                replication_factor=2, rng=0,
            )
            for _ in range(2)
        ]
        snaps = [m.snapshot_shard(0) for m in pair]
        rng = np.random.default_rng(writes)
        for _ in range(writes):
            if rng.random() < 0.5:
                row = rng.random(6)
                for m in pair:
                    m.insert(row)
            else:
                live = pair[0].shard_ids[0]
                if live:
                    victim = live[int(rng.integers(len(live)))]
                    for m in pair:
                        m.delete(victim)
        for m, snap, as_list in zip(pair, snaps, (False, True)):
            index = m._builder(snap.rows, m.metric, np.random.default_rng(3))
            for r in range(2):
                m.swap_replica(0, r, index, snap.ids if as_list else snap)
        assert pair[0].mutation_state() == pair[1].mutation_state()
        assert pair[0]._slots[0][0].ids is pair[0]._slots[1][0].ids
        for m in pair:
            assert verify_shard_manager(m) == []
            assert_matches_scan_live(m, rows_by_gid(m, data))

    def test_a_split_after_the_snapshot_is_tombstoned(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="vpt",
            replication_factor=2, rng=0,
        )
        snap = manager.snapshot_shard(0)
        manager.delete(snap.ids[0])
        new_shard = manager.split_shard(0)
        index = manager._builder(snap.rows, manager.metric, None)
        manager.swap_replica(0, 0, index, snap)
        moved = set(manager.shard_ids[new_shard])
        assert manager.slot_state(0, 0)[1] == moved | {snap.ids[0]}
        assert verify_shard_manager(manager) == []
        assert_matches_scan_live(manager, data)


class TestWritesDuringARoll:
    """Writes that land while a roll is under way — during the row
    gather of its snapshot, during its build, between two slots' swaps —
    are reconciled at every swap: a deleted point never comes back and
    an inserted one is never lost."""

    @staticmethod
    def roll_with_writes(monkeypatch, manager, data, hook):
        """Roll shard 0, inserting a point into it and deleting one of
        its base points at ``hook``; returns ``(inserted, deleted)``."""
        victim = manager.shard_ids[0][4]
        done: list[int] = []

        def write():
            if not done:
                done.append(manager.insert(data[7] + 0.01))
                manager.delete(victim)

        if hook == "gather":
            real = sharding._gather

            def gather(objects, tail, ids):
                write()
                return real(objects, tail, ids)

            monkeypatch.setattr(sharding, "_gather", gather)
        elif hook == "build":
            real_builder = manager._builder

            def builder(objects, metric, rng):
                write()
                return real_builder(objects, metric, rng)

            manager._builder = builder
        else:
            real_swap = manager.swap_replica

            def swap(shard, replica, index, base_ids):
                if replica == 1:
                    write()
                return real_swap(shard, replica, index, base_ids)

            monkeypatch.setattr(manager, "swap_replica", swap)
        RebuildCoordinator(manager, rng=5).rebuild_shard(0)
        monkeypatch.undo()
        return done[0], victim

    @pytest.mark.parametrize("hook", ["gather", "build", "between-swaps"])
    @pytest.mark.parametrize("backend", ["vpt", "dynamic"])
    def test_roll_reconciles_concurrent_writes(
        self, monkeypatch, data, backend, hook
    ):
        manager = ShardManager(
            data, L2(), n_shards=2, backend=backend,
            replication_factor=2, rng=0,
        )
        inserted, deleted = self.roll_with_writes(
            monkeypatch, manager, data, hook
        )
        assert inserted % 2 == 0
        assert inserted in manager.shard_ids[0]
        assert deleted not in manager.shard_ids[0]
        for r in range(2):
            base_ids, dead = manager.slot_state(0, r)
            assert deleted not in base_ids or deleted in dead
            if inserted not in base_ids:
                assert inserted in manager.memtable(0)
        assert verify_shard_manager(manager) == []
        objects = rows_by_gid(manager, data)
        assert_matches_scan_live(manager, objects)
        for r in range(2):
            live = manager.shard_ids[0]
            oracle = LinearScan(objects[live], L2())
            for query in (objects[inserted], data[deleted]):
                want = [
                    Neighbor(n.distance, live[n.id])
                    for n in oracle.knn_search(query, 4)
                ]
                assert manager.shard_knn_search(0, query, 4, replica=r) == want


class TestPersistKeepsSharing:
    def test_shared_base_round_trips_as_one_object(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="vpt",
            replication_factor=2, rng=0,
        )
        manager.delete(3)
        encoded = index_to_dict(manager)
        assert encoded["replicas"][1] == [{"replica_of": 0}, {"replica_of": 0}]
        restored = index_from_dict(json.loads(json.dumps(encoded)), data, L2())
        for shard in range(2):
            assert restored.replica(shard, 1) is restored.replica(shard, 0)
            assert restored._slots[1][shard].ids is restored._slots[0][shard].ids
        assert restored.mutation_state() == manager.mutation_state()
        assert verify_shard_manager(restored) == []
        assert_matches_scan_live(restored, data)

    def test_files_with_a_copy_per_replica_still_load(self, data):
        manager = ShardManager(
            data, L2(), n_shards=2, backend="vpt",
            replication_factor=2, rng=0,
        )
        encoded = index_to_dict(manager)
        encoded["replicas"][1] = list(encoded["replicas"][0])
        restored = index_from_dict(encoded, data, L2())
        assert restored.replica(0, 1) is not restored.replica(0, 0)
        assert verify_shard_manager(restored) == []
        assert_matches_scan_live(restored, data)
