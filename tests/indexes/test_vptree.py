"""Tests for the vp-tree (paper section 3.3)."""

import numpy as np
import pytest

from repro import LinearScan, VPTree
from repro.metric import L2, CountingMetric
from tests.nodeview import VPInternalNode, VPLeafNode, root_node


@pytest.fixture(params=[2, 3, 5], ids=["m2", "m3", "m5"])
def tree(request, uniform_data, l2):
    return VPTree(uniform_data, l2, m=request.param, rng=11)


class TestConstruction:
    def test_rejects_empty_dataset(self, l2):
        with pytest.raises(ValueError, match="empty"):
            VPTree(np.empty((0, 3)), l2)

    def test_rejects_bad_branching(self, uniform_data, l2):
        with pytest.raises(ValueError, match="m must be"):
            VPTree(uniform_data, l2, m=1)

    def test_rejects_bad_leaf_capacity(self, uniform_data, l2):
        with pytest.raises(ValueError, match="leaf_capacity"):
            VPTree(uniform_data, l2, leaf_capacity=0)

    def test_single_point_tree(self, l2):
        tree = VPTree(np.array([[0.5, 0.5]]), l2)
        assert tree.range_search(np.array([0.5, 0.5]), 0.1) == [0]
        assert tree.height == 1

    def test_every_id_stored_exactly_once(self, tree, uniform_data):
        seen = []

        def walk(node):
            if node is None:
                return
            if isinstance(node, VPLeafNode):
                seen.extend(node.ids)
                return
            seen.append(node.vp_id)
            for child in node.children:
                walk(child)

        walk(root_node(tree))
        assert sorted(seen) == list(range(len(uniform_data)))

    def test_cost_is_n_log_n_order(self, uniform_data):
        counting = CountingMetric(L2())
        n = len(uniform_data)
        for m in (2, 3):
            counting.reset()
            VPTree(uniform_data, counting, m=m, rng=0)
            build = counting.count
            # O(n log_m n) with a small constant; assert a generous bound.
            bound = 3 * n * np.log(n) / np.log(m)
            assert build <= bound

    def test_higher_order_reduces_construction_cost(self, uniform_data):
        # "creating an m-way vp-tree decreases the number of distance
        # computations by a factor of log2 m" (section 3.3).
        costs = {}
        for m in (2, 4):
            counting = CountingMetric(L2())
            VPTree(uniform_data, counting, m=m, rng=0)
            costs[m] = counting.count
        assert costs[4] < costs[2]

    def test_node_accounting(self, tree):
        assert tree.node_count == tree.leaf_count + tree.vantage_point_count
        assert tree.height >= 1

    def test_deterministic_for_same_seed(self, uniform_data, l2, vector_queries):
        a = VPTree(uniform_data, l2, m=3, rng=42)
        b = VPTree(uniform_data, l2, m=3, rng=42)
        for query in vector_queries[:3]:
            assert a.range_search(query, 0.6) == b.range_search(query, 0.6)

    def test_leaf_capacity_respected(self, uniform_data, l2):
        tree = VPTree(uniform_data, l2, m=2, leaf_capacity=8, rng=1)

        def max_leaf(node):
            if node is None:
                return 0
            if isinstance(node, VPLeafNode):
                return len(node.ids)
            return max(max_leaf(child) for child in node.children)

        assert 0 < max_leaf(root_node(tree)) <= 8

    def test_bigger_leaves_make_shorter_trees(self, uniform_data, l2):
        small = VPTree(uniform_data, l2, m=2, leaf_capacity=1, rng=1)
        big = VPTree(uniform_data, l2, m=2, leaf_capacity=16, rng=1)
        assert big.height < small.height

    def test_children_cover_disjoint_shells(self, tree):
        # Sibling shells may touch at the boundary but must be ordered:
        # inner radius of child i+1 >= inner radius of child i.
        def walk(node):
            if node is None or isinstance(node, VPLeafNode):
                return
            previous_hi = -1.0
            for lo, hi in node.bounds:
                if lo > hi:  # empty child sentinel
                    continue
                assert lo >= previous_hi - 1e-12
                previous_hi = hi if hi > previous_hi else previous_hi
            for child in node.children:
                walk(child)

        walk(root_node(tree))

    def test_selector_strategies_all_build_correct_trees(
        self, uniform_data, l2, vector_queries
    ):
        oracle = LinearScan(uniform_data, l2)
        expected = oracle.range_search(vector_queries[0], 0.7)
        for selector in ("random", "farthest", "max_spread"):
            tree = VPTree(uniform_data, l2, m=2, selector=selector, rng=3)
            assert tree.range_search(vector_queries[0], 0.7) == expected

    def test_cutoff_bounds_mode_is_exact_but_looser(
        self, uniform_data, l2, vector_queries
    ):
        oracle = LinearScan(uniform_data, l2)
        costs = {}
        for mode in ("tight", "cutoff"):
            counting = CountingMetric(L2())
            tree = VPTree(uniform_data, counting, m=3, bounds=mode, rng=3)
            counting.reset()
            for query in vector_queries[:4]:
                assert tree.range_search(query, 0.5) == oracle.range_search(
                    query, 0.5
                )
            costs[mode] = counting.count
        assert costs["tight"] <= costs["cutoff"]

    def test_invalid_bounds_mode_rejected(self, uniform_data, l2):
        with pytest.raises(ValueError, match="bounds"):
            VPTree(uniform_data, l2, bounds="loose")


class TestRangeSearch:
    @pytest.mark.parametrize("radius", [0.0, 0.2, 0.5, 0.8, 2.0])
    def test_matches_linear_scan(self, tree, uniform_data, l2, vector_queries, radius):
        oracle = LinearScan(uniform_data, l2)
        for query in vector_queries[:5]:
            assert tree.range_search(query, radius) == oracle.range_search(
                query, radius
            )

    def test_query_equal_to_vantage_point(self, tree, uniform_data, l2):
        # Querying with a dataset member exercises the d == 0 edges.
        oracle = LinearScan(uniform_data, l2)
        for i in (0, 42, 299):
            assert tree.range_search(uniform_data[i], 0.3) == oracle.range_search(
                uniform_data[i], 0.3
            )

    def test_search_cost_bounded_by_n(self, uniform_data, vector_queries):
        counting = CountingMetric(L2())
        tree = VPTree(uniform_data, counting, m=2, rng=5)
        counting.reset()
        tree.range_search(vector_queries[0], 0.5)
        assert counting.count <= len(uniform_data)

    def test_small_radius_cheaper_than_linear(self, uniform_data, vector_queries):
        counting = CountingMetric(L2())
        tree = VPTree(uniform_data, counting, m=2, rng=5)
        counting.reset()
        tree.range_search(vector_queries[0], 0.15)
        assert counting.count < len(uniform_data)

    def test_on_clustered_workload(self, clustered_data, l2, vector_queries):
        tree = VPTree(clustered_data, l2, m=3, rng=2)
        oracle = LinearScan(clustered_data, l2)
        for radius in (0.2, 0.6, 1.2):
            assert tree.range_search(vector_queries[0], radius) == (
                oracle.range_search(vector_queries[0], radius)
            )


class TestKnnSearch:
    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_matches_linear_scan(self, tree, uniform_data, l2, vector_queries, k):
        oracle = LinearScan(uniform_data, l2)
        for query in vector_queries[:4]:
            got = tree.knn_search(query, k)
            expected = oracle.knn_search(query, k)
            assert [n.id for n in got] == [n.id for n in expected]
            assert [n.distance for n in got] == pytest.approx(
                [n.distance for n in expected]
            )

    def test_member_query_returns_itself_first(self, tree, uniform_data):
        assert tree.nearest(uniform_data[7]).id == 7

    def test_k_equal_to_n(self, tree, uniform_data, vector_queries):
        neighbors = tree.knn_search(vector_queries[0], len(uniform_data))
        assert len(neighbors) == len(uniform_data)
        assert sorted(n.id for n in neighbors) == list(range(len(uniform_data)))

    def test_invalid_k_rejected(self, tree, vector_queries):
        with pytest.raises(ValueError, match="k"):
            tree.knn_search(vector_queries[0], -1)


class TestFarthestSearch:
    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_linear_scan(self, tree, uniform_data, l2, vector_queries, k):
        oracle = LinearScan(uniform_data, l2)
        for query in vector_queries[:4]:
            got = tree.farthest_search(query, k)
            expected = oracle.farthest_search(query, k)
            assert [n.id for n in got] == [n.id for n in expected]

    def test_farthest_first_ordering(self, tree, vector_queries):
        got = tree.farthest_search(vector_queries[0], 6)
        distances = [n.distance for n in got]
        assert distances == sorted(distances, reverse=True)


class TestNodeStructure:
    def test_root_is_internal_for_nontrivial_data(self, tree):
        assert isinstance(root_node(tree), VPInternalNode)

    def test_internal_nodes_have_m_children(self, tree):
        def walk(node):
            if node is None or isinstance(node, VPLeafNode):
                return
            assert len(node.children) == tree.m
            assert len(node.cutoffs) == tree.m - 1
            assert len(node.bounds) == tree.m
            for child in node.children:
                walk(child)

        walk(root_node(tree))

    def test_cutoffs_nondecreasing(self, tree):
        def walk(node):
            if node is None or isinstance(node, VPLeafNode):
                return
            assert node.cutoffs == sorted(node.cutoffs)
            for child in node.children:
                walk(child)

        walk(root_node(tree))
