"""Tests for the generalized hyperplane tree ([Uhl91])."""

import numpy as np
import pytest

from repro import GHTree, LinearScan
from repro.metric import L2, CountingMetric
from tests.nodeview import GHLeafNode, root_node


@pytest.fixture(params=["random", "farthest"])
def tree(request, uniform_data, l2):
    return GHTree(uniform_data, l2, pivots=request.param, rng=21)


class TestConstruction:
    def test_rejects_empty_dataset(self, l2):
        with pytest.raises(ValueError, match="empty"):
            GHTree(np.empty((0, 3)), l2)

    def test_rejects_bad_leaf_capacity(self, uniform_data, l2):
        with pytest.raises(ValueError, match="leaf_capacity"):
            GHTree(uniform_data, l2, leaf_capacity=0)

    def test_rejects_unknown_pivot_strategy(self, uniform_data, l2):
        with pytest.raises(ValueError, match="pivots"):
            GHTree(uniform_data, l2, pivots="median")

    def test_single_point(self, l2):
        tree = GHTree(np.array([[0.1, 0.2]]), l2)
        assert tree.range_search(np.array([0.1, 0.2]), 0.01) == [0]

    def test_two_points(self, l2):
        tree = GHTree(np.array([[0.0, 0.0], [1.0, 1.0]]), l2, rng=0)
        assert tree.range_search(np.zeros(2), 0.5) == [0]
        assert tree.range_search(np.ones(2), 0.5) == [1]

    def test_every_id_stored_exactly_once(self, tree, uniform_data):
        seen = []

        def walk(node):
            if node is None:
                return
            if isinstance(node, GHLeafNode):
                seen.extend(node.ids)
                return
            seen.append(node.p1_id)
            seen.append(node.p2_id)
            walk(node.left)
            walk(node.right)

        walk(root_node(tree))
        assert sorted(seen) == list(range(len(uniform_data)))

    def test_points_assigned_to_closer_pivot(self, uniform_data, l2):
        tree = GHTree(uniform_data, l2, leaf_capacity=50, rng=0)
        root = root_node(tree)

        def collect(node, out):
            if node is None:
                return
            if isinstance(node, GHLeafNode):
                out.extend(node.ids)
                return
            out.extend([node.p1_id, node.p2_id])
            collect(node.left, out)
            collect(node.right, out)

        left_ids, right_ids = [], []
        collect(root.left, left_ids)
        collect(root.right, right_ids)
        p1, p2 = uniform_data[root.p1_id], uniform_data[root.p2_id]
        for i in left_ids:
            assert l2.distance(uniform_data[i], p1) <= l2.distance(
                uniform_data[i], p2
            )
        for i in right_ids:
            assert l2.distance(uniform_data[i], p2) <= l2.distance(
                uniform_data[i], p1
            )

    def test_covering_radii_are_correct(self, uniform_data, l2):
        tree = GHTree(uniform_data, l2, leaf_capacity=50, rng=0)
        root = root_node(tree)

        def collect(node, out):
            if node is None:
                return
            if isinstance(node, GHLeafNode):
                out.extend(node.ids)
                return
            out.extend([node.p1_id, node.p2_id])
            collect(node.left, out)
            collect(node.right, out)

        left_ids = []
        collect(root.left, left_ids)
        p1 = uniform_data[root.p1_id]
        for i in left_ids:
            assert l2.distance(uniform_data[i], p1) <= root.r1 + 1e-12

    def test_farthest_pivots_balance_better(self, uniform_data, l2):
        random_heights = [
            GHTree(uniform_data, l2, pivots="random", rng=seed).height
            for seed in range(5)
        ]
        farthest_heights = [
            GHTree(uniform_data, l2, pivots="farthest", rng=seed).height
            for seed in range(5)
        ]
        assert np.mean(farthest_heights) <= np.mean(random_heights) + 1


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
        assert tree.range_search(uniform_data[3], 0.4) == oracle.range_search(
            uniform_data[3], 0.4
        )

    def test_cost_bounded_by_n(self, uniform_data, vector_queries):
        counting = CountingMetric(L2())
        tree = GHTree(uniform_data, counting, rng=1)
        counting.reset()
        tree.range_search(vector_queries[0], 0.3)
        assert counting.count <= len(uniform_data)


class TestKnnSearch:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_linear_scan(self, tree, uniform_data, l2, vector_queries, k):
        oracle = LinearScan(uniform_data, l2)
        for query in vector_queries[:4]:
            got = tree.knn_search(query, k)
            expected = oracle.knn_search(query, k)
            assert [n.id for n in got] == [n.id for n in expected]

    def test_member_is_own_nearest(self, tree, uniform_data):
        assert tree.nearest(uniform_data[11]).id == 11

    def test_farthest_not_supported(self, tree, vector_queries):
        with pytest.raises(NotImplementedError):
            tree.farthest_search(vector_queries[0], 1)


class TestLeafCapacity:
    def test_bucket_leaves_match_oracle(self, clustered_data, l2, vector_queries):
        oracle = LinearScan(clustered_data, l2)
        tree = GHTree(clustered_data, l2, leaf_capacity=10, rng=4)
        for query in vector_queries[:3]:
            assert tree.range_search(query, 0.5) == oracle.range_search(query, 0.5)
