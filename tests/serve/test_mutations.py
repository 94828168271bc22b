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
from repro.metric import L2
from repro.serve import ShardManager
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
        got = manager._gather_locked(ids)
        want = _parent_gather(manager, ids)
        base_only = manager._gather_locked([5, 1])
    if as_list:
        assert isinstance(got, list)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    else:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.asarray(base_only), data[[5, 1]])
    gids, rows = manager.shard_dataset(1)
    want = _parent_gather(manager, gids)
    np.testing.assert_array_equal(np.asarray(rows), np.asarray(want))

