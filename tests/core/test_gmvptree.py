"""Tests for the generalized mvp-tree (v vantage points per node)."""

import numpy as np
import pytest

from repro import GMVPTree, LinearScan, MVPTree, QueryStats
from repro.check.invariants import verify_structure
from repro.metric import L2, CountingMetric
from tests.nodeview import GMVPInternalNode, GMVPLeafNode, root_node


@pytest.fixture(params=[(2, 2, 4, 2), (2, 3, 10, 6), (3, 2, 9, 5), (2, 4, 20, 8)],
                ids=["m2v2", "m2v3", "m3v2", "m2v4"])
def tree(request, uniform_data, l2):
    m, v, k, p = request.param
    return GMVPTree(uniform_data, l2, m=m, v=v, k=k, p=p, rng=31)


class TestParameterValidation:
    def test_rejects_empty_dataset(self, l2):
        with pytest.raises(ValueError, match="empty"):
            GMVPTree(np.empty((0, 3)), l2)

    def test_rejects_bad_params(self, uniform_data, l2):
        with pytest.raises(ValueError, match="m must be"):
            GMVPTree(uniform_data, l2, m=1)
        with pytest.raises(ValueError, match="v must be"):
            GMVPTree(uniform_data, l2, v=1)
        with pytest.raises(ValueError, match="k must be"):
            GMVPTree(uniform_data, l2, k=0)
        with pytest.raises(ValueError, match="p must be"):
            GMVPTree(uniform_data, l2, p=-1)


class TestTinyDatasets:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12, 20])
    def test_all_small_sizes_searchable(self, l2, n):
        data = np.random.default_rng(n).random((n, 4))
        tree = GMVPTree(data, l2, m=2, v=3, k=4, p=4, rng=0)
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

        walk(root_node(tree))
        assert sorted(seen) == list(range(len(uniform_data)))

    def test_internal_fanout_is_m_pow_v(self, tree):
        def walk(node):
            if node is None or isinstance(node, GMVPLeafNode):
                return
            assert len(node.vp_ids) == tree.v
            assert len(node.children) == tree.m**tree.v
            assert len(node.bounds) == tree.m**tree.v
            assert all(len(b) == tree.v for b in node.bounds)
            for child in node.children:
                walk(child)

        walk(root_node(tree))

    def test_accounting_identity(self, tree, uniform_data):
        assert (
            tree.vantage_point_count + tree.leaf_data_point_count
            == len(uniform_data)
        )
        assert tree.node_count == tree.leaf_count + tree.internal_count

    def test_leaf_dists_are_true_distances(self, uniform_data, l2):
        tree = GMVPTree(uniform_data, l2, m=2, v=3, k=8, p=4, rng=2)

        def walk(node):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                for t, vp_id in enumerate(node.vp_ids):
                    if not node.ids:
                        continue
                    for pos, idx in enumerate(node.ids):
                        assert node.dists[t][pos] == pytest.approx(
                            l2.distance(uniform_data[idx], uniform_data[vp_id])
                        )
                return
            for child in node.children:
                walk(child)

        walk(root_node(tree))

    def test_bounds_cover_subtree_members(self, uniform_data, l2):
        tree = GMVPTree(uniform_data, l2, m=2, v=2, k=8, p=4, rng=2)

        def members(node, out):
            if node is None:
                return
            out.extend(node.vp_ids)
            if isinstance(node, GMVPLeafNode):
                out.extend(node.ids)
                return
            for child in node.children:
                members(child, out)

        root = root_node(tree)
        assert isinstance(root, GMVPInternalNode)
        for child, child_bounds in zip(root.children, root.bounds):
            subtree: list[int] = []
            members(child, subtree)
            for t, vp_id in enumerate(root.vp_ids):
                lo, hi = child_bounds[t]
                for idx in subtree:
                    d = l2.distance(uniform_data[idx], uniform_data[vp_id])
                    assert lo - 1e-9 <= d <= hi + 1e-9

    def test_paths_are_true_ancestor_distances(self, uniform_data, l2):
        tree = GMVPTree(uniform_data, l2, m=2, v=3, k=6, p=7, rng=3)

        def walk(node, ancestors):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                assert node.path_len == min(tree.p, len(ancestors))
                for pos, idx in enumerate(node.ids):
                    for t in range(node.path_len):
                        assert node.paths[pos, t] == pytest.approx(
                            l2.distance(uniform_data[idx], uniform_data[ancestors[t]])
                        )
                return
            for child in node.children:
                walk(child, ancestors + list(node.vp_ids))

        walk(root_node(tree), [])


class TestSearch:
    @pytest.mark.parametrize("radius", [0.0, 0.2, 0.5, 1.0, 5.0])
    def test_range_matches_oracle(self, tree, uniform_data, l2, vector_queries, radius):
        oracle = LinearScan(uniform_data, l2)
        for query in vector_queries[:5]:
            assert tree.range_search(query, radius) == oracle.range_search(
                query, radius
            )

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_knn_matches_oracle(self, tree, uniform_data, l2, vector_queries, k):
        oracle = LinearScan(uniform_data, l2)
        for query in vector_queries[:4]:
            got = tree.knn_search(query, k)
            expected = oracle.knn_search(query, k)
            assert [n.id for n in got] == [n.id for n in expected]

    def test_member_queries(self, tree, uniform_data, l2):
        oracle = LinearScan(uniform_data, l2)
        for i in (0, 99, 299):
            assert tree.range_search(uniform_data[i], 0.3) == oracle.range_search(
                uniform_data[i], 0.3
            )
            assert tree.nearest(uniform_data[i]).id == i

    def test_approximate_knn_guarantee(self, uniform_data, l2, vector_queries):
        tree = GMVPTree(uniform_data, l2, m=2, v=3, k=10, p=6, rng=4)
        oracle = LinearScan(uniform_data, l2)
        epsilon = 0.5
        for query in vector_queries[:5]:
            got = tree.knn_search(query, 5, epsilon=epsilon)
            true_kth = oracle.knn_search(query, 5)[-1].distance
            assert got[-1].distance <= (1 + epsilon) * true_kth + 1e-9

    def test_search_cost_bounded_by_n(self, uniform_data, vector_queries):
        counting = CountingMetric(L2())
        tree = GMVPTree(uniform_data, counting, m=2, v=3, k=10, p=6, rng=0)
        counting.reset()
        tree.range_search(vector_queries[0], 0.4)
        assert counting.count <= len(uniform_data)

    def test_edit_distance_workload(self, word_data, edit_distance):
        tree = GMVPTree(word_data, edit_distance, m=2, v=2, k=6, p=4, rng=2)
        oracle = LinearScan(word_data, edit_distance)
        for radius in (0, 1, 3):
            assert tree.range_search("banana", radius) == oracle.range_search(
                "banana", radius
            )


def _pairs(a, b):
    """Walk two trees in lockstep, yielding matching node pairs
    (recursive; depth <= tree height)."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert type(a) is type(b)
    yield a, b
    if isinstance(a, GMVPInternalNode):
        for child_a, child_b in zip(a.children, b.children, strict=True):
            yield from _pairs(child_a, child_b)


class TestVersusClassic:
    @pytest.mark.parametrize("bounds", ["tight", "cutoff"])
    def test_v2_builds_the_mvptree_node_for_node(self, uniform_data, l2, bounds):
        # MVPTree is GMVPTree(v=2): one build, so the same seed gives
        # the same vantage points, children, D1/D2, PATH and cutoffs.
        # Only the shells differ, and every MVP (region) shell contains
        # the GMVP (per-child) one.
        gmvp = GMVPTree(uniform_data, l2, m=3, v=2, k=9, p=5, rng=7)
        mvp = MVPTree(uniform_data, l2, m=3, k=9, p=5, bounds=bounds, rng=7)
        for name in ("node_count", "leaf_count", "vantage_point_count", "height"):
            assert getattr(gmvp, name) == getattr(mvp, name)
        internal = 0
        for g, c in _pairs(root_node(gmvp), root_node(mvp)):
            assert g.vp_ids == c.vp_ids
            if isinstance(g, GMVPLeafNode):
                assert g.ids == c.ids and g.path_len == c.path_len
                np.testing.assert_array_equal(g.dists, c.dists)
                np.testing.assert_array_equal(g.paths, c.paths)
                continue
            internal += 1
            assert g.cutoffs == c.cutoffs
            for child, g_shells, c_shells in zip(g.children, g.bounds, c.bounds):
                if child is None:
                    continue
                for (g_lo, g_hi), (c_lo, c_hi) in zip(g_shells, c_shells):
                    assert c_lo <= g_lo <= g_hi <= c_hi
        assert internal == gmvp.internal_count > 0

    def test_v2_costs_match_mvptree_closely(self, l2):
        # Per-child shells admit a subset of the children the region
        # shells admit, so GMVPTree(v=2) answers every range query
        # exactly like MVPTree from the same seed and never pays more
        # distance computations for it.
        data = np.random.default_rng(5).random((2000, 15))
        queries = [np.random.default_rng(6).random(15) for __ in range(10)]
        queries += list(data[:10])  # members: the shells cut into their balls
        gmvp = GMVPTree(data, l2, m=2, v=2, k=40, p=6, rng=0)
        mvp = MVPTree(data, l2, m=2, k=40, p=6, rng=0)
        cheaper = 0
        for query in queries:
            for radius in (0.4, 0.8):
                g_stats, m_stats = QueryStats(), QueryStats()
                assert gmvp.range_search(
                    query, radius, stats=g_stats
                ) == mvp.range_search(query, radius, stats=m_stats)
                assert g_stats.distance_calls <= m_stats.distance_calls
                cheaper += g_stats.distance_calls < m_stats.distance_calls
        assert cheaper > 0

    def test_zero_diameter_groups_become_one_leaf_for_every_v(self, l2):
        # 2,950 identical points: no shell can separate them, so every
        # v falls back to one oversized leaf instead of peeling one
        # vantage point per level.
        rng = np.random.default_rng(8)
        data = np.vstack([np.full((2950, 4), 0.5), rng.random((50, 4))])
        rng.shuffle(data)
        mvp = MVPTree(data, l2, m=3, k=9, p=5, rng=0)
        gmvp = GMVPTree(data, l2, m=3, v=2, k=9, p=5, rng=0)
        assert gmvp.node_count == mvp.node_count < 100
        v3 = GMVPTree(data, l2, m=3, v=3, k=9, p=5, rng=0)
        assert v3.node_count < 100
        for tree in (mvp, gmvp, v3):
            assert verify_structure(tree) == []
            assert len(tree.range_search(data[0], 0.0)) >= 2950

    def test_more_vps_shrink_height(self, uniform_data, l2):
        shallow = GMVPTree(uniform_data, l2, m=2, v=4, k=10, p=4, rng=0)
        deep = GMVPTree(uniform_data, l2, m=2, v=2, k=10, p=4, rng=0)
        assert shallow.height <= deep.height
