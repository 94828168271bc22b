"""Tests for the extra query variants of paper section 2.

* outside-range search ("objects that are farther than a given range
  from a query object can also be asked") — linear scan, vp-tree,
  mvp-tree, multi-vantage tree, distance matrix; and farthest search
  on the multi-vantage tree.
* (1+epsilon)-approximate k-NN on the trees.
"""

import numpy as np
import pytest

from repro import DistanceMatrixIndex, GMVPTree, LinearScan, MVPTree, VPTree
from repro.metric import L2, CountingMetric


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(3).random((400, 8))


@pytest.fixture(scope="module")
def oracle(data):
    return LinearScan(data, L2())


@pytest.fixture(scope="module")
def queries():
    return [np.random.default_rng(4).random(8) for __ in range(8)]


def brute_outside(data, metric, query, radius):
    return [
        i for i, point in enumerate(data) if metric.distance(point, query) > radius
    ]


class TestOutsideRangeSearch:
    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.7, 1.2, 10.0])
    def test_linear_scan(self, data, oracle, queries, radius):
        metric = L2()
        for query in queries[:4]:
            assert oracle.outside_range_search(query, radius) == brute_outside(
                data, metric, query, radius
            )

    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.7, 1.2, 10.0])
    def test_vptree(self, data, oracle, queries, radius):
        tree = VPTree(data, L2(), m=3, rng=0)
        for query in queries[:4]:
            assert tree.outside_range_search(query, radius) == (
                oracle.outside_range_search(query, radius)
            )

    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.7, 1.2, 10.0])
    def test_mvptree(self, data, oracle, queries, radius):
        tree = MVPTree(data, L2(), m=3, k=12, p=4, rng=0)
        for query in queries[:4]:
            assert tree.outside_range_search(query, radius) == (
                oracle.outside_range_search(query, radius)
            )

    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.7, 1.2, 10.0])
    def test_gmvptree(self, data, oracle, queries, radius):
        tree = GMVPTree(data, L2(), m=2, v=3, k=8, p=5, rng=0)
        for query in queries[:4]:
            assert tree.outside_range_search(query, radius) == (
                oracle.outside_range_search(query, radius)
            )

    @pytest.mark.parametrize("k", [1, 7, 400])
    def test_gmvptree_farthest(self, data, oracle, queries, k):
        tree = GMVPTree(data, L2(), m=2, v=3, k=8, p=5, rng=0)
        for query in queries[:4]:
            got = tree.farthest_search(query, k)
            want = oracle.farthest_search(query, k)
            assert [n.id for n in got] == [n.id for n in want]
            np.testing.assert_allclose(
                [n.distance for n in got], [n.distance for n in want]
            )

    @pytest.mark.parametrize("radius", [0.0, 0.5, 1.2])
    def test_distance_matrix(self, data, oracle, queries, radius):
        index = DistanceMatrixIndex(data[:120], L2())
        small_oracle = LinearScan(data[:120], L2())
        for query in queries[:4]:
            assert index.outside_range_search(query, radius) == (
                small_oracle.outside_range_search(query, radius)
            )

    def test_complement_of_range_search(self, data, queries):
        tree = MVPTree(data, L2(), m=2, k=8, p=3, rng=1)
        for radius in (0.3, 0.8):
            inside = set(tree.range_search(queries[0], radius))
            outside = set(tree.outside_range_search(queries[0], radius))
            assert inside | outside == set(range(len(data)))
            assert inside & outside == set()

    def test_zero_radius_returns_everything_but_exact_matches(self, data):
        tree = VPTree(data, L2(), m=2, rng=2)
        outside = tree.outside_range_search(data[5], 0.0)
        assert 5 not in outside
        assert len(outside) == len(data) - 1

    def test_subtree_acceptance_saves_computations(self, data):
        # A query far from everything with a small radius: the whole
        # tree is provably outside after the root vantage distances.
        counting = CountingMetric(L2())
        tree = MVPTree(data, counting, m=2, k=20, p=3, rng=0)
        counting.reset()
        far_query = np.full(8, 100.0)
        result = tree.outside_range_search(far_query, 1.0)
        assert result == list(range(len(data)))
        assert counting.count <= 2  # root vantage points only

    def test_negative_radius_rejected(self, data):
        tree = VPTree(data, L2(), rng=0)
        with pytest.raises(ValueError, match="radius"):
            tree.outside_range_search(data[0], -1)

    def test_unsupported_structures_raise(self, data, word_data, edit_distance):
        from repro import BKTree, GHTree

        with pytest.raises(NotImplementedError):
            GHTree(data, L2(), rng=0).outside_range_search(data[0], 1.0)
        with pytest.raises(NotImplementedError):
            BKTree(word_data, edit_distance).outside_range_search("x", 1)


class TestApproximateKnn:
    @pytest.mark.parametrize("tree_cls", ["vp", "mvp"])
    def test_epsilon_zero_is_exact(self, data, oracle, queries, tree_cls):
        tree = (
            VPTree(data, L2(), m=2, rng=0)
            if tree_cls == "vp"
            else MVPTree(data, L2(), m=3, k=12, p=4, rng=0)
        )
        for query in queries[:4]:
            got = tree.knn_search(query, 5, epsilon=0.0)
            expected = oracle.knn_search(query, 5)
            assert [n.id for n in got] == [n.id for n in expected]

    @pytest.mark.parametrize("tree_cls", ["vp", "mvp"])
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_approximation_guarantee(self, data, oracle, queries, tree_cls, epsilon):
        tree = (
            VPTree(data, L2(), m=2, rng=0)
            if tree_cls == "vp"
            else MVPTree(data, L2(), m=3, k=12, p=4, rng=0)
        )
        k = 5
        for query in queries:
            got = tree.knn_search(query, k, epsilon=epsilon)
            true_kth = oracle.knn_search(query, k)[-1].distance
            assert len(got) == k
            # The reported kth distance is within (1 + epsilon) of truth.
            assert got[-1].distance <= (1 + epsilon) * true_kth + 1e-9
            # And results are genuine distances, sorted.
            distances = [n.distance for n in got]
            assert distances == sorted(distances)

    def test_epsilon_reduces_cost(self, data, queries):
        counting = CountingMetric(L2())
        tree = MVPTree(data, counting, m=3, k=40, p=5, rng=0)
        costs = {}
        for epsilon in (0.0, 1.0):
            counting.reset()
            for query in queries:
                tree.knn_search(query, 5, epsilon=epsilon)
            costs[epsilon] = counting.count
        assert costs[1.0] < costs[0.0]

    def test_negative_epsilon_rejected(self, data, queries):
        tree = VPTree(data, L2(), rng=0)
        with pytest.raises(ValueError, match="epsilon"):
            tree.knn_search(queries[0], 3, epsilon=-0.5)
        mvp = MVPTree(data, L2(), rng=0)
        with pytest.raises(ValueError, match="epsilon"):
            mvp.knn_search(queries[0], 3, epsilon=-0.5)
