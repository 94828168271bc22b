"""Tests for GNAT ([Bri95])."""

import numpy as np
import pytest

from repro import GNAT, LinearScan, VPTree
from repro.metric import L2, CountingMetric
from tests.nodeview import GNATInternalNode, GNATLeafNode, root_node


@pytest.fixture(params=[4, 8], ids=["deg4", "deg8"])
def tree(request, uniform_data, l2):
    return GNAT(uniform_data, l2, degree=request.param, rng=31)


class TestConstruction:
    def test_rejects_empty_dataset(self, l2):
        with pytest.raises(ValueError, match="empty"):
            GNAT(np.empty((0, 3)), l2)

    def test_rejects_bad_degree(self, uniform_data, l2):
        with pytest.raises(ValueError, match="degree"):
            GNAT(uniform_data, l2, degree=1)

    def test_rejects_inconsistent_degree_bounds(self, uniform_data, l2):
        with pytest.raises(ValueError, match="min_degree"):
            GNAT(uniform_data, l2, min_degree=10, max_degree=5)

    def test_rejects_bad_leaf_capacity(self, uniform_data, l2):
        with pytest.raises(ValueError, match="leaf_capacity"):
            GNAT(uniform_data, l2, leaf_capacity=0)

    def test_rejects_bad_candidate_factor(self, uniform_data, l2):
        with pytest.raises(ValueError, match="candidate_factor"):
            GNAT(uniform_data, l2, candidate_factor=0)

    def test_single_point(self, l2):
        tree = GNAT(np.array([[0.3, 0.3]]), l2)
        assert tree.range_search(np.array([0.3, 0.3]), 0.01) == [0]

    def test_every_id_stored_exactly_once(self, tree, uniform_data):
        seen = []

        def walk(node):
            if node is None:
                return
            if isinstance(node, GNATLeafNode):
                seen.extend(node.ids)
                return
            seen.extend(node.split_ids)
            for child in node.children:
                walk(child)

        walk(root_node(tree))
        assert sorted(seen) == list(range(len(uniform_data)))

    def test_range_tables_cover_members(self, uniform_data, l2):
        tree = GNAT(uniform_data, l2, degree=4, leaf_capacity=200, rng=0)
        root = root_node(tree)
        assert isinstance(root, GNATInternalNode)
        degree = len(root.split_ids)

        def members(node, out):
            if node is None:
                return
            if isinstance(node, GNATLeafNode):
                out.extend(node.ids)
                return
            out.extend(node.split_ids)
            for child in node.children:
                members(child, out)

        for j in range(degree):
            subtree: list[int] = [root.split_ids[j]]
            members(root.children[j], subtree)
            for i in range(degree):
                lo, hi = root.ranges[i][j]
                pivot = uniform_data[root.split_ids[i]]
                for idx in subtree:
                    distance = l2.distance(uniform_data[idx], pivot)
                    assert lo - 1e-12 <= distance <= hi + 1e-12

    def test_construction_costlier_than_vptree(self, uniform_data):
        # The trade [Bri95] reports and the paper recounts.
        gnat_counting = CountingMetric(L2())
        GNAT(uniform_data, gnat_counting, degree=8, rng=0)
        vp_counting = CountingMetric(L2())
        VPTree(uniform_data, vp_counting, m=2, rng=0)
        assert gnat_counting.count > vp_counting.count


class TestRangeSearch:
    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.7, 2.0])
    def test_matches_linear_scan(self, tree, uniform_data, l2, vector_queries, radius):
        oracle = LinearScan(uniform_data, l2)
        for query in vector_queries[:5]:
            assert tree.range_search(query, radius) == oracle.range_search(
                query, radius
            )

    def test_member_query(self, tree, uniform_data, l2):
        oracle = LinearScan(uniform_data, l2)
        for i in (0, 100, 299):
            assert tree.range_search(uniform_data[i], 0.35) == oracle.range_search(
                uniform_data[i], 0.35
            )

    def test_clustered_workload(self, clustered_data, l2, vector_queries):
        tree = GNAT(clustered_data, l2, degree=6, rng=5)
        oracle = LinearScan(clustered_data, l2)
        for radius in (0.2, 0.8):
            assert tree.range_search(vector_queries[0], radius) == (
                oracle.range_search(vector_queries[0], radius)
            )

    def test_range_elimination_skips_split_distances(self, uniform_data):
        # At a tiny radius the range table should eliminate most
        # datasets without computing their split-point distance, so the
        # total is far below n.
        counting = CountingMetric(L2())
        tree = GNAT(uniform_data, counting, degree=8, leaf_capacity=4, rng=0)
        counting.reset()
        tree.range_search(uniform_data[0], 0.05)
        assert counting.count < len(uniform_data) / 2


class TestKnnSearch:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_linear_scan(self, tree, uniform_data, l2, vector_queries, k):
        oracle = LinearScan(uniform_data, l2)
        for query in vector_queries[:4]:
            got = tree.knn_search(query, k)
            expected = oracle.knn_search(query, k)
            assert [n.id for n in got] == [n.id for n in expected]

    def test_member_is_own_nearest(self, tree, uniform_data):
        assert tree.nearest(uniform_data[50]).id == 50


class TestAdaptiveDegree:
    def test_degrees_clamped(self, uniform_data, l2):
        tree = GNAT(uniform_data, l2, degree=8, min_degree=2, max_degree=10, rng=0)

        def walk(node):
            if node is None or isinstance(node, GNATLeafNode):
                return
            assert 2 <= len(node.split_ids) <= 10
            for child in node.children:
                walk(child)

        walk(root_node(tree))
