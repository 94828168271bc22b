"""Property-based tests: structural invariants of the trees.

Random datasets and parameters must always produce trees that (a)
partition the ids exactly, (b) respect capacity limits, (c) keep their
precomputed distances truthful, and (d) never exceed the linear-scan
cost bound the paper states in section 4.3.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

from repro import MVPTree, VPTree
from repro.metric import L2, CountingMetric
from tests.nodeview import GMVPLeafNode, VPLeafNode, root_node

coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@st.composite
def datasets(draw, max_n=50):
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(1, 5))
    return draw(npst.arrays(np.float64, (n, dim), elements=coords))


@st.composite
def mvp_params(draw):
    return (
        draw(st.integers(2, 4)),  # m
        draw(st.integers(1, 10)),  # k
        draw(st.integers(0, 6)),  # p
    )


class TestMVPTreeInvariants:
    @given(data=datasets(), params=mvp_params(), seed=st.integers(0, 2**10))
    def test_ids_partitioned_exactly(self, data, params, seed):
        m, k, p = params
        tree = MVPTree(data, L2(), m=m, k=k, p=p, rng=seed)
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
        assert sorted(seen) == list(range(len(data)))

    @given(data=datasets(), params=mvp_params(), seed=st.integers(0, 2**10))
    def test_accounting_identity(self, data, params, seed):
        m, k, p = params
        tree = MVPTree(data, L2(), m=m, k=k, p=p, rng=seed)
        assert (
            tree.vantage_point_count + tree.leaf_data_point_count == len(data)
        )
        assert tree.node_count == tree.leaf_count + tree.internal_count

    @given(data=datasets(), params=mvp_params(), seed=st.integers(0, 2**10))
    def test_leaf_capacity_and_paths(self, data, params, seed):
        m, k, p = params
        metric = L2()
        tree = MVPTree(data, metric, m=m, k=k, p=p, rng=seed)

        def walk(node):
            if node is None or not isinstance(node, GMVPLeafNode):
                if node is not None:
                    for child in node.children:
                        walk(child)
                return
            # Zero-diameter groups deliberately fall back to a single
            # oversized leaf — no vantage point can separate points the
            # metric puts at distance 0.  Judged by the metric, not by
            # bitwise equality: tiny coordinates can underflow to a
            # computed distance of exactly 0.0 without being identical.
            bucket = data[node.ids]
            zero_diameter = len(node.ids) and all(
                metric.distance(row, bucket[0]) == 0.0 for row in bucket
            )
            if not zero_diameter:
                assert len(node.ids) <= k
            assert node.path_len <= p
            assert node.paths.shape == (len(node.ids), node.path_len)
            assert not np.isnan(node.paths).any()
            # D1/D2 (dists rows 0/1) are truthful.
            for pos, idx in enumerate(node.ids):
                for t, vp_id in enumerate(node.vp_ids):
                    assert node.dists[t][pos] == pytest.approx(
                        metric.distance(data[idx], data[vp_id])
                    )

        walk(root_node(tree))

    @given(data=datasets(max_n=40), params=mvp_params(),
           radius=st.floats(0, 20), seed=st.integers(0, 2**10))
    def test_search_cost_never_exceeds_n(self, data, params, radius, seed):
        m, k, p = params
        counting = CountingMetric(L2())
        tree = MVPTree(data, counting, m=m, k=k, p=p, rng=seed)
        counting.reset()
        tree.range_search(data[0] if len(data) else np.zeros(2), radius)
        assert counting.count <= len(data)


class TestVPTreeInvariants:
    @given(data=datasets(), m=st.integers(2, 5), leaf=st.integers(1, 6),
           seed=st.integers(0, 2**10))
    def test_ids_partitioned_exactly(self, data, m, leaf, seed):
        tree = VPTree(data, L2(), m=m, leaf_capacity=leaf, rng=seed)
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
        assert sorted(seen) == list(range(len(data)))

    @given(data=datasets(), m=st.integers(2, 5), seed=st.integers(0, 2**10))
    def test_bounds_cover_subtree_members(self, data, m, seed):
        metric = L2()
        tree = VPTree(data, metric, m=m, rng=seed)

        def members(node, out):
            if node is None:
                return
            if isinstance(node, VPLeafNode):
                out.extend(node.ids)
                return
            out.append(node.vp_id)
            for child in node.children:
                members(child, out)

        def walk(node):
            if node is None or isinstance(node, VPLeafNode):
                return
            vp = data[node.vp_id]
            for child, (lo, hi) in zip(node.children, node.bounds):
                subtree: list[int] = []
                members(child, subtree)
                for idx in subtree:
                    distance = metric.distance(data[idx], vp)
                    assert lo - 1e-9 <= distance <= hi + 1e-9
                walk(child)

        walk(root_node(tree))

    @given(data=datasets(max_n=40), m=st.integers(2, 4),
           radius=st.floats(0, 20), seed=st.integers(0, 2**10))
    def test_search_cost_never_exceeds_n(self, data, m, radius, seed):
        counting = CountingMetric(L2())
        tree = VPTree(data, counting, m=m, rng=seed)
        counting.reset()
        tree.range_search(data[0], radius)
        assert counting.count <= len(data)
