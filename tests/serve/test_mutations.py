"""Live mutability: streaming inserts, deletes, and store-fed recovery.

The contract under test: a mutated deployment answers exactly over its
*live* id-set at every instant — memtable rows and tombstoned bases are
invisible in the answers, (distance, id) tie-breaks hold across the
base/memtable union, and ``recover(stores=)`` swaps prebuilt ``.rsx``
stores in without ever serving a wrong or torn answer, even with
concurrent readers.
"""

import threading

import numpy as np
import pytest

from repro import LinearScan, Neighbor
from repro.check.invariants import verify_shard_manager
from repro.metric import L2
from repro.persist.serialize import index_from_dict, index_to_dict
from repro.serve import Query, QueryEngine, ShardManager
from repro.serve.sharding import _gather
from repro.store.sharded import save_shard_stores


@pytest.fixture()
def tracked(uniform_data):
    """A small deployment plus a gid -> row ledger for oracle checks."""
    objects = uniform_data[:48]
    manager = ShardManager(
        objects, L2(), n_shards=3, backend="vpt", rng=7,
        replication_factor=2,
    )
    ledger = {gid: np.asarray(row) for gid, row in enumerate(objects)}
    return manager, ledger


def live_oracle(manager, ledger):
    """LinearScan over the live rows, plus the positional -> gid map.

    ``live_ids()`` is sorted, so the oracle's positional tie-break
    order coincides with gid order and the mapping preserves exact
    (distance, id) ordering.
    """
    gids = manager.live_ids()
    rows = np.array([ledger[g] for g in gids])
    return gids, LinearScan(rows, L2())


def assert_exact(manager, ledger, queries, *, radius=0.6, k=7):
    gids, oracle = live_oracle(manager, ledger)
    for query in queries:
        want_range = sorted(gids[i] for i in oracle.range_search(query, radius))
        assert manager.range_search(query, radius) == want_range
        want_knn = [
            Neighbor(n.distance, gids[n.id])
            for n in oracle.knn_search(query, k)
        ]
        assert manager.knn_search(query, k) == want_knn


class TestInsertDelete:
    def test_insert_assigns_sequential_gids(self, tracked):
        manager, ledger = tracked
        rng = np.random.default_rng(0)
        for expected in (48, 49, 50):
            row = rng.random(10)
            gid = manager.insert(row)
            assert gid == expected
            ledger[gid] = row
        assert manager.next_id() == 51
        assert_exact(manager, ledger, [ledger[48], ledger[3]])

    def test_delete_is_exactly_once(self, tracked):
        manager, _ = tracked
        manager.delete(5)
        with pytest.raises(KeyError, match="already deleted"):
            manager.delete(5)
        with pytest.raises(KeyError, match="no live object"):
            manager.delete(999)

    def test_interleaved_churn_stays_exact(self, tracked):
        manager, ledger = tracked
        rng = np.random.default_rng(3)
        for step in range(12):
            row = rng.random(10)
            ledger[manager.insert(row)] = row
            victim = manager.live_ids()[step % len(manager.live_ids())]
            manager.delete(victim)
            del ledger[victim]
        assert_exact(manager, ledger, [ledger[g] for g in manager.live_ids()[:3]])
        assert len(manager.live_ids()) == 48
        assert len(manager.removed_ids()) == 12


class TestMemtableTieBreaks:
    """Duplicate points split between base and memtable: the union must
    resolve equal distances by global id, exactly as a single index
    over the live set would."""

    def test_base_gid_beats_memtable_duplicate(self, tracked):
        manager, ledger = tracked
        dup = np.array(ledger[4])
        gid = manager.insert(dup)
        ledger[gid] = dup
        # Both copies sit at distance 0; the base-resident lower gid
        # must come first, and k=1 must return it alone.
        top2 = manager.knn_search(ledger[4], 2)
        assert [n.id for n in top2] == [4, gid]
        assert top2[0].distance == top2[1].distance == 0.0
        assert [n.id for n in manager.knn_search(ledger[4], 1)] == [4]

    def test_deleting_base_copy_promotes_memtable_copy(self, tracked):
        manager, ledger = tracked
        dup = np.array(ledger[4])
        first = manager.insert(dup)
        second = manager.insert(np.array(dup))
        ledger[first] = dup
        ledger[second] = np.array(dup)
        manager.delete(4)
        del ledger[4]
        # Two memtable twins remain; id order breaks their tie too.
        assert [n.id for n in manager.knn_search(dup, 2)] == [first, second]
        assert [n.id for n in manager.knn_search(dup, 1)] == [first]
        assert_exact(manager, ledger, [dup])

    def test_tie_at_kth_across_base_and_memtable(self, tracked):
        manager, ledger = tracked
        dup = np.array(ledger[10])
        gid = manager.insert(dup)
        ledger[gid] = dup
        gids, oracle = live_oracle(manager, ledger)
        for k in (1, 2, 3, 9):
            want = [
                Neighbor(n.distance, gids[n.id])
                for n in oracle.knn_search(dup, k)
            ]
            assert manager.knn_search(dup, k) == want

    def test_memtable_knn_matches_oracle_with_duplicates_everywhere(self, tracked):
        # Several exact copies of two base points sit in the memtable
        # (the top-k there is an argpartition + (distance, id) lexsort);
        # every k, ties at the k-th distance included, must equal the
        # oracle, on the exact and the certified tier alike.
        manager, ledger = tracked
        for source, copies in ((4, 5), (9, 3)):
            for _ in range(copies):
                row = np.array(ledger[source])
                ledger[manager.insert(row)] = row
        manager.delete(9)
        del ledger[9]
        gids, oracle = live_oracle(manager, ledger)
        for query in (ledger[4], (ledger[4] + ledger[10]) / 2):
            for k in (1, 3, 5, 6, 8, 12):
                want = [
                    Neighbor(n.distance, gids[n.id])
                    for n in oracle.knn_search(query, k)
                ]
                assert manager.knn_search(query, k) == want
                assert manager.approx_knn_search(query, k)[0] == want

    def test_duplicates_across_shards_and_memtables(self, uniform_data):
        # Copies of one point in every shard's base and in memtables:
        # both the base/memtable union and the cross-shard merge cut
        # inside the tie at distance 0, on the manager and through the
        # engine.
        objects = np.array(uniform_data[:48])
        objects[1:6] = objects[0]  # gid mod 3 places copies in every shard
        manager = ShardManager(objects, L2(), n_shards=3, backend="vpt", rng=7)
        ledger = {gid: np.asarray(row) for gid, row in enumerate(objects)}
        for _ in range(4):
            ledger[manager.insert(np.array(objects[0]))] = objects[0]
        manager.delete(2)
        del ledger[2]
        copies = {0, 1, 3, 4, 5}
        assert all(copies & set(ids) for ids in manager.shard_ids)
        assert all(manager.memtable(shard) for shard in range(3))
        gids, oracle = live_oracle(manager, ledger)
        queries = [
            Query.knn(q, k)
            for q in (objects[0], (objects[0] + objects[7]) / 2)
            for k in (1, 2, 5, 8, 9, 12)
        ]
        want = [
            [Neighbor(n.distance, gids[n.id]) for n in oracle.knn_search(q.query, q.k)]
            for q in queries
        ]
        assert [manager.knn_search(q.query, q.k) for q in queries] == want
        for executor in ("serial", "thread"):
            with QueryEngine(manager, executor=executor, workers=2) as engine:
                results = engine.run_batch(queries).results
            assert [r.neighbors for r in results] == want


def _assert_deletes_stay_exact(manager, ledger, victims, queries):
    """Delete each victim in turn; after every delete the answers must
    equal the oracle over the live set and the structure must verify."""
    for gid in victims:
        manager.delete(gid)
        del ledger[gid]
        assert_exact(manager, ledger, queries)
        assert verify_shard_manager(manager) == []


def _first_middle_last(ids):
    return [ids[0], ids[len(ids) // 2], ids[-1]]


class TestDeletePositions:
    """Deletes find their gid by binary search in the shard's ordered
    live list (and a ``dynamic`` slot's local position the same way),
    and memtable entries by key: every position, every place a gid can
    live, and every topology must leave answers exact."""

    @pytest.fixture(params=["vpt", "dynamic"])
    def deployment(self, request, uniform_data):
        objects = uniform_data[:60]
        manager = ShardManager(
            objects, L2(), n_shards=3, backend=request.param, rng=11,
            replication_factor=2,
        )
        ledger = {gid: np.asarray(row) for gid, row in enumerate(objects)}
        # Exact duplicates put tied distances into every k-NN check;
        # on "vpt" they sit in the memtable, on "dynamic" the slots
        # absorb them into their bases.
        for source in (4, 4, 17):
            row = np.array(ledger[source])
            ledger[manager.insert(row)] = row
        return manager, ledger

    @staticmethod
    def queries(ledger):
        return [ledger[4], ledger[17], (ledger[4] + ledger[30]) / 2]

    def test_every_position_across_split_and_merge(self, deployment):
        manager, ledger = deployment
        queries = self.queries(ledger)

        def round_of_deletes(shard):
            victims = _first_middle_last(manager.shard_ids[shard])
            _assert_deletes_stay_exact(manager, ledger, victims, queries)
            # A fresh insert: memtable-only on "vpt", absorbed into
            # both dynamic slots (and deleted from them in place).
            row = np.asarray(ledger[30]) + 0.01
            gid = manager.insert(row)
            ledger[gid] = row
            _assert_deletes_stay_exact(manager, ledger, [gid], queries)

        round_of_deletes(1)
        new_shard = manager.split_shard(1)
        round_of_deletes(1)
        round_of_deletes(new_shard)
        manager.merge_shards(new_shard, 2)
        round_of_deletes(2)
        assert manager.shard_ids[new_shard] == []

    def test_memtable_only_gid(self, deployment):
        manager, ledger = deployment
        gid = manager.insert(np.asarray(ledger[8]) + 0.02)
        ledger[gid] = np.asarray(ledger[8]) + 0.02
        shard = gid % manager.n_shards
        if manager.backend_name == "vpt":
            assert manager.memtable(shard)[-1] == gid
        _assert_deletes_stay_exact(manager, ledger, [gid], self.queries(ledger))
        assert gid not in manager.memtable(shard)

    def test_gid_tombstoned_in_one_replica(self, deployment):
        # A split tombstones the moved ids out of shard 0's bases; a
        # merge back routes them through shard 0's memtable; a fresh
        # base for replica 0 alone leaves them tombstoned in replica 1.
        manager, ledger = deployment
        new_shard = manager.split_shard(0)
        moved = list(manager.shard_ids[new_shard])
        manager.merge_shards(new_shard, 0)
        snap = manager.snapshot_shard(0)
        fresh = manager._builder(snap.rows, manager.metric, np.random.default_rng(1))
        manager.swap_replica(0, 0, fresh, snap.ids)
        victim = moved[len(moved) // 2]
        assert victim not in manager.slot_state(0, 0)[1]
        assert victim in manager.slot_state(0, 1)[1]
        assert victim in manager.memtable(0)
        _assert_deletes_stay_exact(
            manager, ledger, [victim, moved[0], moved[-1]], self.queries(ledger)
        )

    def test_key_errors_and_persisted_state_are_unchanged(self, deployment):
        manager, ledger = deployment
        new_shard = manager.split_shard(0)
        victims = [
            manager.shard_ids[0][0], manager.shard_ids[new_shard][-1], 62,
        ]
        for gid in victims:
            manager.delete(gid)
        for gid in victims:
            with pytest.raises(KeyError, match="already deleted"):
                manager.delete(gid)
        for gid in (-1, manager.next_id(), 10_000):
            with pytest.raises(KeyError, match="no live object"):
                manager.delete(gid)
        state = manager.mutation_state()
        restored = index_from_dict(
            index_to_dict(manager), manager.objects, manager.metric
        )
        assert restored.mutation_state() == state
        assert restored.memtable(new_shard) == manager.memtable(new_shard)
        restored.delete(manager.shard_ids[new_shard][0])
        with pytest.raises(KeyError, match="already deleted"):
            restored.delete(victims[0])


class TestRecoverFromStores:
    def test_store_recovery_needs_no_builder(self, tracked, tmp_path):
        manager, ledger = tracked
        paths = save_shard_stores(manager, tmp_path)
        manager.drop_replica(0, 1)
        manager.drop_replica(2, 0)
        # Proof the stores were used: with no builder, any in-memory
        # rebuild would raise TypeError.
        manager._builder = None
        recovered = manager.recover(stores=paths)
        assert set(recovered) == {(0, 1), (2, 0)}
        assert manager.store_refusal_count == 0
        assert_exact(manager, ledger, [ledger[1], ledger[17]])

    def test_corrupt_store_falls_back_to_rebuild(self, tracked, tmp_path):
        manager, ledger = tracked
        paths = save_shard_stores(manager, tmp_path)
        blob = paths[(1, 0)].read_bytes()
        paths[(1, 0)].write_bytes(blob[: len(blob) // 2])  # torn write
        manager.drop_replica(1, 0)
        assert manager.recover(stores=paths, rng=5) == [(1, 0)]
        assert manager.store_refusal_count == 1
        assert_exact(manager, ledger, [ledger[1], ledger[17]])

    def test_stale_store_is_reconciled_at_swap(self, tracked, tmp_path):
        manager, ledger = tracked
        paths = save_shard_stores(manager, tmp_path)
        # Mutations land *after* the stores were written: the stale
        # base must tombstone the deletions and route the inserts
        # through the memtable.
        rng = np.random.default_rng(9)
        for _ in range(4):
            row = rng.random(10)
            ledger[manager.insert(row)] = row
        for victim in (0, 1, 2):
            manager.delete(victim)
            del ledger[victim]
        manager.drop_replica(0, 0)
        manager.drop_replica(0, 1)
        assert set(manager.recover(stores=paths)) == {(0, 0), (0, 1)}
        assert_exact(manager, ledger, [ledger[g] for g in manager.live_ids()[:4]])

    def test_store_recovery_races_concurrent_queries(self, tracked, tmp_path):
        manager, ledger = tracked
        paths = save_shard_stores(manager, tmp_path)
        gids, oracle = live_oracle(manager, ledger)
        query = ledger[7] + 0.01
        expected_range = sorted(
            gids[i] for i in oracle.range_search(query, 0.6)
        )
        expected_knn = [
            Neighbor(n.distance, gids[n.id]) for n in oracle.knn_search(query, 5)
        ]
        done = threading.Event()
        errors: list[Exception] = []

        def churn():
            try:
                for i in range(25):
                    manager.drop_replica(i % 3, 1)
                    manager.recover(stores=paths)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def search():
            try:
                while not done.is_set():
                    assert manager.range_search(query, 0.6) == expected_range
                    assert manager.knn_search(query, 5) == expected_knn
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
        for shard in range(3):
            assert manager.live_replicas(shard) == [0, 1]


def _parent_gather(manager, ids):
    """The per-row gather the block gather replaced, as a reference."""
    base_n = len(manager._objects)
    rows = [
        manager._objects[i] if i < base_n else manager._tail[i - base_n]
        for i in ids
    ]
    return np.asarray(rows) if isinstance(manager._objects, np.ndarray) else rows


@pytest.mark.parametrize("as_list", [False, True], ids=["ndarray", "list"])
def test_gather_mixes_base_and_tail_rows_like_the_per_row_gather(as_list):
    data = np.random.default_rng(4).random((60, 3))
    objects = [row for row in data] if as_list else data
    manager = ShardManager(objects, L2(), n_shards=2, backend="linear", rng=0)
    for row in np.random.default_rng(5).random((7, 3)):
        manager.insert(row)
    ids = [61, 3, 66, 0, 59, 60, 62, 12, 65]
    with manager._replicas_lock:
        got = _gather(manager._objects, manager._tail, ids)
        want = _parent_gather(manager, ids)
        base_only = _gather(manager._objects, manager._tail, [5, 1])
    if as_list:
        assert isinstance(got, list)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    else:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.asarray(base_only), data[[5, 1]])
    snap = manager.snapshot_shard(1)
    want = _parent_gather(manager, snap.ids)
    np.testing.assert_array_equal(np.asarray(snap.rows), np.asarray(want))

