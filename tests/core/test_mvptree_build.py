"""Construction tests for the mvp-tree (paper section 4.2)."""

import numpy as np
import pytest

from repro import MVPTree
from repro.core.gmvptree import GMVPInternalNode, GMVPLeafNode
from repro.metric import L2, CountingMetric


@pytest.fixture(
    params=[(2, 4, 2), (3, 9, 5), (3, 80, 5)], ids=["2-4-2", "3-9-5", "3-80-5"]
)
def tree(request, uniform_data, l2):
    m, k, p = request.param
    return MVPTree(uniform_data, l2, m=m, k=k, p=p, rng=17)


class TestParameterValidation:
    def test_rejects_empty_dataset(self, l2):
        with pytest.raises(ValueError, match="empty"):
            MVPTree(np.empty((0, 3)), l2)

    def test_rejects_bad_m(self, uniform_data, l2):
        with pytest.raises(ValueError, match="m must be"):
            MVPTree(uniform_data, l2, m=1)

    def test_rejects_bad_k(self, uniform_data, l2):
        with pytest.raises(ValueError, match="k must be"):
            MVPTree(uniform_data, l2, k=0)

    def test_rejects_negative_p(self, uniform_data, l2):
        with pytest.raises(ValueError, match="p must be"):
            MVPTree(uniform_data, l2, p=-1)

    def test_p_zero_allowed(self, uniform_data, l2, vector_queries):
        tree = MVPTree(uniform_data, l2, m=2, k=5, p=0, rng=0)
        assert len(tree.range_search(vector_queries[0], 0.5)) >= 0


class TestTinyDatasets:
    def test_single_object(self, l2):
        tree = MVPTree(np.array([[0.5, 0.5]]), l2, m=2, k=2, p=2)
        assert tree.range_search(np.array([0.5, 0.5]), 0.0) == [0]
        assert tree.vantage_point_count == 1
        assert tree.leaf_count == 1

    def test_two_objects(self, l2):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        tree = MVPTree(data, l2, m=2, k=2, p=2, rng=0)
        assert tree.range_search(np.zeros(2), 0.1) == [0]
        assert tree.range_search(np.ones(2), 0.1) == [1]
        assert tree.vantage_point_count == 2
        assert tree.leaf_data_point_count == 0

    def test_three_objects(self, l2):
        data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        tree = MVPTree(data, l2, m=2, k=2, p=2, rng=0)
        for i in range(3):
            assert tree.range_search(data[i], 0.0) == [i]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 11, 12, 13, 30])
    def test_all_small_sizes_searchable(self, l2, n):
        data = np.random.default_rng(n).random((n, 4))
        tree = MVPTree(data, l2, m=3, k=9, p=3, rng=0)
        assert tree.range_search(data[0], 0.0) == [0]
        assert sorted(tree.range_search(data[0], 10.0)) == list(range(n))


class TestStructureInvariants:
    def test_every_id_stored_exactly_once(self, tree, uniform_data):
        seen = []

        def walk(node):
            if node is None:
                return
            seen.extend(node.vp_ids)
            if isinstance(node, GMVPLeafNode):
                seen.extend(node.ids)
                return
            for child in node.children:
                walk(child)

        walk(tree.root)
        assert sorted(seen) == list(range(len(uniform_data)))

    def test_internal_fanout_is_m_squared(self, tree):
        def walk(node):
            if node is None or isinstance(node, GMVPLeafNode):
                return
            assert len(node.vp_ids) == 2
            assert len(node.children) == tree.m**2
            # M1: one row of m - 1 cutoffs; M2: m rows of m - 1.
            assert len(node.cutoffs[0]) == 1
            assert len(node.cutoffs[0][0]) == tree.m - 1
            assert len(node.cutoffs[1]) == tree.m
            assert all(len(row) == tree.m - 1 for row in node.cutoffs[1])
            # One (vp1 shell, vp2 shell) pair per child.
            assert len(node.bounds) == tree.m**2
            assert all(len(shells) == 2 for shells in node.bounds)
            for child in node.children:
                walk(child)

        walk(tree.root)

    def test_leaf_capacity_respected(self, tree):
        def walk(node):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                assert len(node.ids) <= tree.k
                return
            for child in node.children:
                walk(child)

        walk(tree.root)

    def test_leaf_d1_d2_are_true_distances(self, uniform_data, l2):
        tree = MVPTree(uniform_data, l2, m=2, k=10, p=3, rng=4)

        def walk(node):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                if node.ids:
                    assert len(node.vp_ids) == 2
                # D1 = dists[0], D2 = dists[1].
                for t, vp_id in enumerate(node.vp_ids[: node.dists.shape[0]]):
                    for pos, idx in enumerate(node.ids):
                        assert node.dists[t][pos] == pytest.approx(
                            l2.distance(uniform_data[idx], uniform_data[vp_id])
                        )
                return
            for child in node.children:
                walk(child)

        walk(tree.root)

    def test_leaf_vp2_is_farthest_from_vp1(self, uniform_data, l2):
        # Paper step 2.4: "Let Sv2 be the farthest point from Sv1 in S."
        tree = MVPTree(uniform_data, l2, m=2, k=10, p=3, rng=4)

        def walk(node):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                if len(node.vp_ids) == 2 and node.ids:
                    vp1 = uniform_data[node.vp_ids[0]]
                    vp2_distance = l2.distance(uniform_data[node.vp_ids[1]], vp1)
                    assert vp2_distance >= node.dists[0].max() - 1e-12
                return
            for child in node.children:
                walk(child)

        walk(tree.root)

    def test_paths_are_true_ancestor_distances(self, uniform_data, l2):
        tree = MVPTree(uniform_data, l2, m=2, k=6, p=4, rng=4)

        def walk(node, ancestors):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                assert node.path_len == min(tree.p, len(ancestors))
                assert node.paths.shape == (len(node.ids), node.path_len)
                for pos, idx in enumerate(node.ids):
                    for t in range(node.path_len):
                        expected = l2.distance(
                            uniform_data[idx], uniform_data[ancestors[t]]
                        )
                        assert node.paths[pos, t] == pytest.approx(expected)
                return
            extended = ancestors + list(node.vp_ids)
            for child in node.children:
                walk(child, extended)

        walk(tree.root, [])

    def test_no_nan_in_paths(self, tree):
        def walk(node):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                assert not np.isnan(node.paths).any()
                return
            for child in node.children:
                walk(child)

        walk(tree.root)

    def test_second_level_partition_bounds_correct(self, uniform_data, l2):
        tree = MVPTree(uniform_data, l2, m=3, k=9, p=5, rng=4)

        def leaf_members(node, out):
            if node is None:
                return
            out.extend(node.vp_ids)
            if isinstance(node, GMVPLeafNode):
                out.extend(node.ids)
                return
            for child in node.children:
                leaf_members(child, out)

        root = tree.root
        assert isinstance(root, GMVPInternalNode)
        vp1 = uniform_data[root.vp_ids[0]]
        vp2 = uniform_data[root.vp_ids[1]]
        m = tree.m
        for i in range(m):
            for j in range(m):
                child = root.children[i * m + j]
                if child is None:
                    continue
                (lo1, hi1), (lo2, hi2) = root.bounds[i * m + j]
                members: list[int] = []
                leaf_members(child, members)
                for idx in members:
                    d1 = l2.distance(uniform_data[idx], vp1)
                    d2 = l2.distance(uniform_data[idx], vp2)
                    assert lo1 - 1e-12 <= d1 <= hi1 + 1e-12
                    assert lo2 - 1e-12 <= d2 <= hi2 + 1e-12


class TestAccounting:
    def test_counts_are_consistent(self, tree, uniform_data):
        assert tree.node_count == tree.leaf_count + tree.internal_count
        # 2 vantage points per internal node; 1 or 2 per leaf.
        assert tree.vantage_point_count <= 2 * tree.node_count
        assert tree.vantage_point_count >= 2 * tree.internal_count + tree.leaf_count
        assert (
            tree.vantage_point_count + tree.leaf_data_point_count
            == len(uniform_data)
        )

    def test_large_k_keeps_most_points_in_leaves(self, uniform_data, l2):
        # "It is a good idea to keep k large so that most of the data
        # items are kept in the leaves" (section 4.2).
        small_k = MVPTree(uniform_data, l2, m=3, k=5, p=5, rng=0)
        large_k = MVPTree(uniform_data, l2, m=3, k=80, p=5, rng=0)
        assert large_k.leaf_data_point_count > small_k.leaf_data_point_count
        assert large_k.vantage_point_count < small_k.vantage_point_count

    def test_height_decreases_with_k(self, uniform_data, l2):
        tall = MVPTree(uniform_data, l2, m=2, k=2, p=5, rng=0)
        short = MVPTree(uniform_data, l2, m=2, k=40, p=5, rng=0)
        assert short.height < tall.height

    def test_full_tree_vantage_point_formula(self, l2):
        # A full mvp-tree of height h has 2*(m^2h - 1)/(m^2 - 1) vantage
        # points (section 4.2).  Build an exactly-full tree: height 2,
        # m=2 -> root (2 vps) + 4 leaves (2 vps each) = 10 vps, and
        # 4 leaves x k data points.
        m, k = 2, 3
        n = 2 + m**2 * (k + 2)  # root vps + 4 full leaves
        data = np.random.default_rng(0).random((n, 5))
        tree = MVPTree(data, l2, m=m, k=k, p=2, rng=1)
        if tree.height == 2 and tree.leaf_count == m**2:
            expected_vps = 2 * (m ** (2 * 2) - 1) // (m**2 - 1)
            assert tree.vantage_point_count == expected_vps
            assert tree.leaf_data_point_count == m**2 * k


class TestConstructionCost:
    def test_cost_is_n_log_n_order(self, uniform_data):
        counting = CountingMetric(L2())
        MVPTree(uniform_data, counting, m=3, k=9, p=5, rng=0)
        n = len(uniform_data)
        assert counting.count <= 3 * n * np.log(n) / np.log(3)

    def test_fewer_vantage_points_than_vptree(self, uniform_data, l2):
        # "Because of using more than one vantage points in a node, the
        # mvp-tree has less vantage points compared to a vp-tree."
        from repro import VPTree

        vp = VPTree(uniform_data, l2, m=2, rng=0)
        mvp = MVPTree(uniform_data, l2, m=2, k=10, p=5, rng=0)
        assert mvp.vantage_point_count < vp.vantage_point_count

    def test_deterministic_given_seed(self, uniform_data, l2, vector_queries):
        a = MVPTree(uniform_data, l2, m=3, k=9, p=5, rng=99)
        b = MVPTree(uniform_data, l2, m=3, k=9, p=5, rng=99)
        for query in vector_queries[:3]:
            assert a.range_search(query, 0.5) == b.range_search(query, 0.5)

    def test_selector_strategies_build_correct_trees(
        self, uniform_data, l2, vector_queries
    ):
        from repro import LinearScan

        oracle = LinearScan(uniform_data, l2)
        expected = oracle.range_search(vector_queries[0], 0.6)
        for selector in ("random", "farthest", "max_spread"):
            tree = MVPTree(
                uniform_data, l2, m=2, k=8, p=3, selector=selector, rng=3
            )
            assert tree.range_search(vector_queries[0], 0.6) == expected
