"""repro.check coverage of the serving subsystem.

Satellite checks for the serve package: the lint rules apply to
``src/repro/serve/`` sources, and the structural verifier enforces the
shard-partition invariant (disjoint, covering) plus recursive per-shard
verification on every built :class:`ShardManager`.
"""

import numpy as np
import pytest

from repro.check.builders import build_verification_indexes
from repro.check.invariants import verify_structure
from repro.metric import L2
from repro.serve import ShardManager
from tests.check.test_lint_rules import lint_snippet


@pytest.fixture
def manager():
    data = np.random.default_rng(0).random((40, 5))
    return ShardManager(data, L2(), n_shards=4, backend="vpt", rng=0)


class TestLintCoversServe:
    def test_rc001_fires_on_serve_module(self, tmp_path):
        codes, __ = lint_snippet(
            tmp_path,
            """
            class Engine:
                def run(self, metric, a, b):
                    return metric.distance(a, b)
            """,
            relpath="serve/engine.py",
        )
        assert "RC001" in codes

    def test_registry_builds_shard_manager(self):
        indexes = build_verification_indexes(seed=0, n=48, only=["ShardManager"])
        assert isinstance(indexes["ShardManager"], ShardManager)


class TestShardManagerInvariants:
    def test_clean_manager_verifies(self, manager):
        assert verify_structure(manager) == []

    def test_clean_manager_with_empty_shards_verifies(self):
        data = np.random.default_rng(1).random((3, 4))
        manager = ShardManager(data, L2(), n_shards=6, backend="linear")
        assert verify_structure(manager) == []

    def test_duplicated_id_across_shards(self, manager):
        manager.shard_ids[1].append(manager.shard_ids[0][0])
        violations = verify_structure(manager)
        assert any(
            v.invariant == "shard-partition" and "more than one shard" in v.message
            for v in violations
        )

    def test_missing_id(self, manager):
        dropped = manager.shard_ids[2].pop()
        violations = verify_structure(manager)
        matching = [
            v for v in violations
            if v.invariant == "shard-partition" and "no shard" in v.message
        ]
        assert matching and str(dropped) in matching[0].message

    def test_alien_id(self, manager):
        manager.shard_ids[0].append(10_000)
        violations = verify_structure(manager)
        assert any(v.invariant == "shard-partition" for v in violations)

    def test_swapped_live_ids_flag_shard_order(self, manager):
        # Swapping two ids keeps the partition intact, but a delete's
        # binary search over the list would miss them.
        ids = manager.shard_ids[2]
        ids[1], ids[3] = ids[3], ids[1]
        violations = verify_structure(manager)
        assert [(v.invariant, v.location) for v in violations] == [
            ("shard-order", "shard[2]")
        ]
        assert f"position 2: {ids[1]} then {ids[2]}" in violations[0].message

    def test_swapped_slot_ids_flag_shard_order(self):
        data = np.random.default_rng(2).random((40, 5))
        manager = ShardManager(
            data, L2(), n_shards=2, backend="dynamic", rng=0,
            replication_factor=2,
        )
        slot_ids = manager._slots[1][0].ids
        slot_ids[0], slot_ids[-1] = slot_ids[-1], slot_ids[0]
        violations = [
            v for v in verify_structure(manager) if v.invariant == "shard-order"
        ]
        assert [v.location for v in violations] == ["shard[0]/replica[1]"]

    def test_dynamic_tree_in_two_slots_flags_replica_share(self):
        # An absorbing base in two slots would take every insert twice.
        data = np.random.default_rng(2).random((40, 5))
        manager = ShardManager(
            data, L2(), n_shards=2, backend="dynamic", rng=0,
            replication_factor=2,
        )
        manager.replicas[1][0] = manager.replicas[0][0]
        violations = [
            v for v in verify_structure(manager) if v.invariant == "replica-share"
        ]
        assert [v.location for v in violations] == ["shard[0]/replica[1]"]
        assert "DynamicMVPTree updates in place" in violations[0].message

    def test_shared_base_with_differing_ids_flags_replica_share(self):
        data = np.random.default_rng(2).random((40, 5))
        manager = ShardManager(
            data, L2(), n_shards=2, backend="vpt", rng=0,
            replication_factor=2,
        )
        assert verify_structure(manager) == []
        # Replica 1 of shard 1 keeps the shared base but gets its own,
        # different, id table.
        slot = manager._slots[1][1]
        slot.ids = list(slot.ids)
        slot.ids[-1] += 1000
        violations = [
            v for v in verify_structure(manager) if v.invariant == "replica-share"
        ]
        assert [v.location for v in violations] == ["shard[1]/replica[1]"]
        assert "base ids differ" in violations[0].message

    def test_churned_registry_manager_shares_its_bases(self):
        manager = build_verification_indexes(seed=0, only=["ShardManager"])[
            "ShardManager"
        ]
        rows = manager.replicas
        populated = [s for s in range(manager.n_shards) if rows[0][s] is not None]
        assert populated
        assert all(rows[1][s] is rows[0][s] for s in populated)

    def test_churned_registry_manager_verifies(self):
        # The registry build is put through inserts, deletes, a split,
        # a merge and a rebuild pass before it is verified.
        manager = build_verification_indexes(seed=0, only=["ShardManager"])[
            "ShardManager"
        ]
        assert manager.n_shards == 4
        assert len(manager.removed_ids()) == 5
        assert any(manager.memtable(s) for s in range(manager.n_shards))
        assert verify_structure(manager) == []

    def test_live_set_drift_flags_slot_consistency(self, manager):
        # Moving a gid between shard lists keeps the partition intact
        # but leaves both shards' slots serving the wrong id-set: the
        # donor still serves it (phantom), the receiver cannot
        # (unreachable).
        moved = manager.shard_ids[3].pop()
        manager.shard_ids[0].append(moved)
        violations = verify_structure(manager)
        drifted = [v for v in violations if v.invariant == "slot-consistency"]
        assert any("phantom" in v.message and f"[{moved}]" in v.message
                   for v in drifted)
        assert any("unreachable" in v.message for v in drifted)

    def test_missing_shard_index(self, manager):
        # An unreplicated manager losing its only copy of a populated
        # shard can no longer answer exactly: replica coverage is gone.
        manager.shards[1] = None
        violations = verify_structure(manager)
        assert any(
            v.invariant == "replica-coverage" and "shard[1]" in v.location
            for v in violations
        )

    def test_lost_replica_with_live_sibling_is_legal(self):
        data = np.random.default_rng(2).random((40, 5))
        manager = ShardManager(
            data, L2(), n_shards=3, backend="vpt", replication_factor=2, rng=0
        )
        manager.drop_replica(1, 0)
        assert verify_structure(manager) == []

    def test_all_replicas_lost_flags_coverage(self):
        data = np.random.default_rng(3).random((40, 5))
        manager = ShardManager(
            data, L2(), n_shards=3, backend="vpt", replication_factor=2, rng=0
        )
        manager.drop_replica(1, 0)
        manager.drop_replica(1, 1)
        violations = verify_structure(manager)
        assert any(
            v.invariant == "replica-coverage" and "shard[1]" in v.location
            for v in violations
        )
        # recover() rebuilds exactly the lost slots and restores health.
        rebuilt = manager.recover(rng=9)
        assert set(rebuilt) == {(1, 0), (1, 1)}
        assert verify_structure(manager) == []

    def test_replica_size_mismatch_is_located(self):
        data = np.random.default_rng(4).random((40, 5))
        manager = ShardManager(
            data, L2(), n_shards=2, backend="linear", replication_factor=2, rng=0
        )
        from repro.indexes.linear import LinearScan

        manager.replicas[1][0] = LinearScan(data[:3], L2())
        violations = verify_structure(manager)
        assert any(
            v.invariant == "shard-size" and "shard[0]/replica[1]" in v.location
            for v in violations
        )

    def test_inner_shard_corruption_is_located(self, manager):
        # Corrupt shard 2's vp-tree cutoff; the violation must surface
        # through the manager with the shard-qualified location.
        shard = manager.shards[2]
        shard.root.cutoffs[0] = shard.root.cutoffs[-1] + 1.0
        violations = verify_structure(manager)
        assert violations
        assert all(v.location.startswith("shard[2]/") for v in violations)
