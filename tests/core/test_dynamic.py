"""Tests for the dynamic mvp-tree (paper section 6 future work)."""

import numpy as np
import pytest

from repro import DynamicMVPTree, LinearScan
from repro.metric import L2, CountingMetric
from tests.nodeview import GMVPLeafNode, root_node


def live_oracle(tree, data, metric):
    live = [i for i in range(len(data)) if tree.is_live(i)]

    def range_search(query, radius):
        return [i for i in live if metric.distance(data[i], query) <= radius]

    def knn(query, k):
        order = sorted(((metric.distance(data[i], query), i) for i in live))
        return [i for __, i in order[:k]]

    return live, range_search, knn


class TestConstruction:
    def test_starts_empty(self, l2):
        tree = DynamicMVPTree([], l2, rng=0)
        assert len(tree) == 0
        assert root_node(tree) is None

    def test_requires_metric(self):
        with pytest.raises(TypeError, match="metric"):
            DynamicMVPTree([])

    def test_validates_parameters(self, l2):
        with pytest.raises(ValueError, match="overflow_factor"):
            DynamicMVPTree([], l2, overflow_factor=0.5)
        with pytest.raises(ValueError, match="rebuild_threshold"):
            DynamicMVPTree([], l2, rebuild_threshold=0.0)
        with pytest.raises(ValueError, match="m must be"):
            DynamicMVPTree([], l2, m=1)
        with pytest.raises(ValueError, match="k must be"):
            DynamicMVPTree([], l2, k=0)
        with pytest.raises(ValueError, match="p must be"):
            DynamicMVPTree([], l2, p=-1)

    def test_bulk_construction_matches_static(self, uniform_data, l2, vector_queries):
        from repro import MVPTree

        static = MVPTree(uniform_data, l2, m=3, k=9, p=5, rng=7)
        dynamic = DynamicMVPTree(uniform_data, l2, m=3, k=9, p=5, rng=7)
        for query in vector_queries[:4]:
            assert dynamic.range_search(query, 0.5) == static.range_search(
                query, 0.5
            )


class TestInsert:
    def test_incremental_build_matches_oracle(self, l2):
        rng = np.random.default_rng(1)
        tree = DynamicMVPTree([], l2, m=2, k=4, p=3, rng=0)
        data = []
        for __ in range(250):
            vector = rng.random(6)
            data.append(vector)
            tree.insert(vector)
        oracle = LinearScan(data, l2)
        for radius in (0.1, 0.4, 0.9):
            query = rng.random(6)
            assert tree.range_search(query, radius) == oracle.range_search(
                query, radius
            )

    def test_ids_are_sequential(self, l2):
        tree = DynamicMVPTree([], l2, rng=0)
        assert [tree.insert(np.array([float(i)])) for i in range(5)] == list(
            range(5)
        )

    def test_knn_after_inserts(self, l2):
        rng = np.random.default_rng(2)
        tree = DynamicMVPTree([], l2, m=3, k=6, p=4, rng=0)
        data = []
        for __ in range(200):
            vector = rng.random(5)
            data.append(vector)
            tree.insert(vector)
        oracle = LinearScan(data, l2)
        for __ in range(5):
            query = rng.random(5)
            got = tree.knn_search(query, 7)
            expected = oracle.knn_search(query, 7)
            assert [n.id for n in got] == [n.id for n in expected]

    def test_inserted_points_carry_path_entries(self, l2):
        # PATH filtering must cover inserted points: their stored path
        # rows must equal true ancestor distances.
        rng = np.random.default_rng(3)
        tree = DynamicMVPTree([], l2, m=2, k=4, p=4, rng=0)
        data = []
        for __ in range(150):
            vector = rng.random(4)
            data.append(vector)
            tree.insert(vector)

        def walk(node, ancestors):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                for pos, idx in enumerate(node.ids):
                    for t in range(node.path_len):
                        expected = l2.distance(data[idx], data[ancestors[t]])
                        assert node.paths[pos, t] == pytest.approx(expected)
                return
            extended = ancestors + list(node.vp_ids)
            for child in node.children:
                walk(child, extended)

        walk(root_node(tree), [])

    def test_leaf_overflow_triggers_local_rebuild(self, l2):
        rng = np.random.default_rng(4)
        tree = DynamicMVPTree([], l2, m=2, k=3, p=2, rng=0, overflow_factor=1.0)
        for __ in range(100):
            tree.insert(rng.random(4))
        assert tree.leaf_rebuild_count > 0
        # Leaves respect the overflow bound afterwards.

        def max_leaf(node):
            if node is None:
                return 0
            if isinstance(node, GMVPLeafNode):
                return len(node.ids)
            return max(max_leaf(child) for child in node.children)

        assert max_leaf(root_node(tree)) <= tree.overflow_factor * tree.k

    def test_mixed_bulk_and_incremental(self, uniform_data, l2):
        half = len(uniform_data) // 2
        tree = DynamicMVPTree(list(uniform_data[:half]), l2, m=2, k=6, p=3, rng=0)
        for vector in uniform_data[half:]:
            tree.insert(vector)
        oracle = LinearScan(uniform_data, l2)
        query = uniform_data[0]
        for radius in (0.2, 0.6):
            assert tree.range_search(query, radius) == oracle.range_search(
                query, radius
            )

    def test_works_with_edit_distance(self, word_data, edit_distance):
        tree = DynamicMVPTree([], edit_distance, m=2, k=4, p=2, rng=0)
        corpus = []
        for word in word_data[:80]:
            corpus.append(word)
            tree.insert(word)
        oracle = LinearScan(corpus, edit_distance)
        assert tree.range_search("banana", 3) == oracle.range_search("banana", 3)


class TestDelete:
    @pytest.fixture()
    def populated(self, l2):
        rng = np.random.default_rng(5)
        data = [rng.random(5) for __ in range(200)]
        tree = DynamicMVPTree(data, l2, m=2, k=6, p=3, rng=0)
        return tree, data

    def test_deleted_points_vanish_from_all_queries(self, populated, l2):
        tree, data = populated
        tree.delete(10)
        tree.delete(20)
        query = data[10]
        assert 10 not in tree.range_search(query, 10.0)
        assert 10 not in [n.id for n in tree.knn_search(query, 200)]
        assert 10 not in [n.id for n in tree.farthest_search(query, 200)]
        assert 10 not in tree.outside_range_search(query, 0.0)

    def test_delete_validation(self, populated):
        tree, __ = populated
        with pytest.raises(KeyError, match="no object"):
            tree.delete(10_000)
        tree.delete(5)
        with pytest.raises(KeyError, match="already deleted"):
            tree.delete(5)

    def test_len_and_is_live(self, populated):
        tree, data = populated
        assert len(tree) == 200
        tree.delete(7)
        assert len(tree) == 199
        assert not tree.is_live(7)
        assert tree.is_live(8)

    def test_knn_returns_k_live_results(self, populated, l2):
        tree, data = populated
        # Delete the 5 nearest neighbors of a query; k-NN must still
        # return k live answers.
        query = data[0]
        oracle = LinearScan(data, l2)
        nearest = [n.id for n in oracle.knn_search(query, 5)]
        for idx in nearest:
            tree.delete(idx)
        got = tree.knn_search(query, 5)
        assert len(got) == 5
        assert not set(n.id for n in got) & set(nearest)

    def test_threshold_triggers_rebuild(self, l2):
        rng = np.random.default_rng(6)
        data = [rng.random(4) for __ in range(100)]
        tree = DynamicMVPTree(data, l2, m=2, k=4, p=2, rng=0,
                              rebuild_threshold=0.2)
        for idx in range(25):
            tree.delete(idx)
        assert tree.rebuild_count >= 1
        assert tree.deleted_count < 20  # tombstones were purged

    def test_rebuild_preserves_answers(self, populated, l2):
        tree, data = populated
        for idx in range(0, 100, 2):
            tree.delete(idx)
        tree.rebuild()
        live = [i for i in range(len(data)) if tree.is_live(i)]
        query = data[1]
        expected = [i for i in live if l2.distance(data[i], query) <= 0.5]
        assert tree.range_search(query, 0.5) == expected

    def test_delete_everything(self, l2):
        data = [np.array([float(i)]) for i in range(10)]
        tree = DynamicMVPTree(data, l2, m=2, k=2, p=1, rng=0,
                              rebuild_threshold=1.0)
        for idx in range(10):
            tree.delete(idx)
        assert len(tree) == 0
        assert tree.range_search(np.array([0.0]), 100.0) == []
        assert tree.knn_search(np.array([0.0]), 3) == []

    def test_reinsert_after_delete_everything(self, l2):
        tree = DynamicMVPTree([np.array([1.0])], l2, m=2, k=2, p=1, rng=0,
                              rebuild_threshold=1.0)
        tree.delete(0)
        tree.rebuild()
        new_id = tree.insert(np.array([2.0]))
        assert tree.range_search(np.array([2.0]), 0.1) == [new_id]


class TestInterleaved:
    def test_random_workload_matches_oracle(self, l2):
        rng = np.random.default_rng(7)
        tree = DynamicMVPTree([], l2, m=2, k=4, p=3, rng=0,
                              overflow_factor=1.5, rebuild_threshold=0.25)
        data = []
        for step in range(400):
            if rng.random() < 0.7 or len(tree) < 5:
                vector = rng.random(5)
                data.append(vector)
                tree.insert(vector)
            else:
                candidates = [i for i in range(len(data)) if tree.is_live(i)]
                tree.delete(int(rng.choice(candidates)))

        live, range_oracle, knn_oracle = live_oracle(tree, data, l2)
        assert len(tree) == len(live)
        for __ in range(5):
            query = rng.random(5)
            for radius in (0.2, 0.6):
                assert tree.range_search(query, radius) == range_oracle(
                    query, radius
                )
            assert [n.id for n in tree.knn_search(query, 8)] == knn_oracle(
                query, 8
            )

    def test_structure_verifies_after_each_phase(self, l2):
        """The invariant verifier passes after inserts, deletes, rebuilds,
        and reinserts — the states unique to the dynamic tree."""
        from repro.check.invariants import verify_structure

        rng = np.random.default_rng(11)
        data = [rng.random(5) for __ in range(60)]
        tree = DynamicMVPTree(data[:30], l2, m=2, k=4, p=3, rng=0,
                              overflow_factor=1.5, rebuild_threshold=0.4)

        def assert_clean(phase):
            violations = verify_structure(tree)
            assert violations == [], f"{phase}:\n" + "\n".join(
                v.format() for v in violations
            )

        assert_clean("fresh build")
        for vector in data[30:]:
            tree.insert(vector)
        assert_clean("after inserts")
        for idx in range(0, 30, 3):
            tree.delete(idx)
        assert_clean("after deletes (tombstones live)")
        tree.rebuild()
        assert_clean("after full rebuild")
        for __ in range(10):
            tree.insert(rng.random(5))
        candidates = [i for i in range(len(data)) if tree.is_live(i)]
        for idx in candidates[:5]:
            tree.delete(idx)
        assert_clean("after reinserts + second wave of deletes")

    def test_structure_verifies_during_random_workload(self, l2):
        from repro.check.invariants import verify_structure

        rng = np.random.default_rng(12)
        tree = DynamicMVPTree([], l2, m=2, k=3, p=2, rng=0,
                              overflow_factor=1.5, rebuild_threshold=0.3)
        data = []
        for step in range(150):
            if rng.random() < 0.7 or len(tree) < 5:
                vector = rng.random(4)
                data.append(vector)
                tree.insert(vector)
            else:
                candidates = [i for i in range(len(data)) if tree.is_live(i)]
                tree.delete(int(rng.choice(candidates)))
            if step % 25 == 24:
                violations = verify_structure(tree)
                assert violations == [], f"step {step}:\n" + "\n".join(
                    v.format() for v in violations
                )

    def test_search_costs_stay_sublinear_after_updates(self, l2):
        counting = CountingMetric(L2())
        rng = np.random.default_rng(8)
        tree = DynamicMVPTree([], counting, m=3, k=20, p=4, rng=0)
        for __ in range(1000):
            tree.insert(rng.random(10))
        counting.reset()
        tree.range_search(rng.random(10), 0.3)
        assert counting.count < 1000  # still prunes after pure inserts
