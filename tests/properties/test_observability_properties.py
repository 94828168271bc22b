"""Property-based tests: the observability layer never lies.

For every index class, on random metric spaces and random queries:

* ``QueryStats.distance_calls`` equals the delta a
  :class:`CountingMetric` measures over the same call — the paper's
  cost metric and its itemised breakdown are the same number.
* ``leaf_points_seen == leaf_points_scanned + leaf_points_filtered``
  (every bucketed point is either paid for or filtered for free).
* ``nodes_visited == internal_visited + leaf_visited``.
* Passing ``stats=`` never changes the answer.
* Multi-vantage range search books exactly one ``vpN-shell`` prune per
  existing child of a visited internal node that it does not visit.
"""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

from repro import (
    GNAT,
    LAESA,
    BKTree,
    DistanceMatrixIndex,
    DynamicMVPTree,
    GHTree,
    GMVPTree,
    LinearScan,
    MVPTree,
    QueryStats,
    TransformIndex,
    VPTree,
)
from repro.metric import L2, CountingMetric, EditDistance
from repro.metric.base import Metric
from repro.store import open_index, write_store
from repro.transforms import DFTTransform
from tests.nodeview import GMVPLeafNode, root_node

coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)

VECTOR_BUILDERS = {
    "vptree": lambda data, metric, seed: VPTree(data, metric, m=2, rng=seed),
    "mvptree": lambda data, metric, seed: MVPTree(
        data, metric, m=2, k=4, p=3, rng=seed
    ),
    "gmvptree": lambda data, metric, seed: GMVPTree(
        data, metric, m=2, v=3, k=4, p=4, rng=seed
    ),
    "ghtree": lambda data, metric, seed: GHTree(data, metric, rng=seed),
    "gnat": lambda data, metric, seed: GNAT(
        data, metric, degree=3, rng=seed
    ),
    "laesa": lambda data, metric, seed: LAESA(
        data, metric, n_pivots=3, rng=seed
    ),
    "linear": lambda data, metric, seed: LinearScan(data, metric),
    "matrix": lambda data, metric, seed: DistanceMatrixIndex(data, metric),
    "dynamic": lambda data, metric, seed: DynamicMVPTree(
        list(data), metric, m=2, k=3, p=2, rng=seed
    ),
}


@st.composite
def vector_datasets(draw, min_n=2, max_n=30):
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, 4))
    data = draw(npst.arrays(np.float64, (n, dim), elements=coords))
    query = draw(npst.arrays(np.float64, (dim,), elements=coords))
    return data, query


def check_invariants(stats: QueryStats, counting: CountingMetric) -> None:
    assert stats.distance_calls == counting.count
    assert (
        stats.leaf_points_seen
        == stats.leaf_points_scanned + stats.leaf_points_filtered
    )
    assert stats.nodes_visited == stats.internal_visited + stats.leaf_visited


class TestVectorIndexes:
    @given(
        case=vector_datasets(),
        radius=st.floats(0, 8),
        seed=st.integers(0, 2**10),
        name=st.sampled_from(sorted(VECTOR_BUILDERS)),
    )
    def test_range_search_stats_are_truthful(self, case, radius, seed, name):
        data, query = case
        counting = CountingMetric(L2())
        index = VECTOR_BUILDERS[name](data, counting, seed)
        plain = index.range_search(query, radius)

        counting.reset()
        stats = QueryStats()
        observed = index.range_search(query, radius, stats=stats)
        assert observed == plain
        check_invariants(stats, counting)

    @given(
        case=vector_datasets(),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**10),
        name=st.sampled_from(sorted(VECTOR_BUILDERS)),
    )
    def test_knn_search_stats_are_truthful(self, case, k, seed, name):
        data, query = case
        counting = CountingMetric(L2())
        index = VECTOR_BUILDERS[name](data, counting, seed)
        plain = index.knn_search(query, k)

        counting.reset()
        stats = QueryStats()
        observed = index.knn_search(query, k, stats=stats)
        assert [n.id for n in observed] == [n.id for n in plain]
        check_invariants(stats, counting)

    @given(case=vector_datasets(), seed=st.integers(0, 2**10))
    def test_stats_accumulate_over_a_batch(self, case, seed):
        data, query = case
        counting = CountingMetric(L2())
        tree = MVPTree(data, counting, m=2, k=4, p=2, rng=seed)
        counting.reset()
        stats = QueryStats()
        for radius in (0.1, 1.0, 5.0):
            tree.range_search(query, radius, stats=stats)
        check_invariants(stats, counting)


class TestTransformIndex:
    @given(
        data=npst.arrays(
            np.float64,
            st.tuples(st.integers(2, 20), st.just(8)),
            elements=coords,
        ),
        query=npst.arrays(np.float64, (8,), elements=coords),
        radius=st.floats(0, 20),
    )
    def test_range_search_stats_are_truthful(self, data, query, radius):
        counting = CountingMetric(L2())
        index = TransformIndex(data, counting, DFTTransform(2))
        plain = index.range_search(query, radius)
        counting.reset()
        stats = QueryStats()
        assert index.range_search(query, radius, stats=stats) == plain
        check_invariants(stats, counting)


class TestBKTree:
    @given(
        words=st.lists(
            st.text(alphabet="abc", min_size=0, max_size=5),
            min_size=1,
            max_size=25,
        ),
        query=st.text(alphabet="abcd", min_size=0, max_size=5),
        radius=st.integers(0, 4),
    )
    def test_range_search_stats_are_truthful(self, words, query, radius):
        counting = CountingMetric(EditDistance())
        tree = BKTree(words, counting)
        plain = tree.range_search(query, radius)
        counting.reset()
        stats = QueryStats()
        assert tree.range_search(query, radius, stats=stats) == plain
        check_invariants(stats, counting)
        # Every BK-tree node counts as internal: no leaf buckets.
        assert stats.leaf_visited == 0
        assert stats.leaf_points_seen == 0


class _ProbeMetric(Metric):
    """L2 that records which dataset rows it was evaluated on."""

    def __init__(self, data):
        self._inner = L2()
        self._row_id = {row.tobytes(): i for i, row in enumerate(data)}
        self.evaluated: set = set()

    def distance(self, a, b) -> float:
        self.evaluated.add(self._row_id.get(np.asarray(a).tobytes()))
        return self._inner.distance(a, b)

    def batch_distance(self, xs, y) -> np.ndarray:
        self.evaluated.update(
            self._row_id.get(row.tobytes()) for row in np.asarray(xs)
        )
        return self._inner.batch_distance(xs, y)


def _internal_nodes(node) -> list:
    """Every internal node under ``node`` (recursive; depth <= height)."""
    if node is None or isinstance(node, GMVPLeafNode):
        return []
    out = [node]
    for child in node.children:
        out.extend(_internal_nodes(child))
    return out


def _churned_dynamic(data, metric):
    tree = DynamicMVPTree(list(data[:1200]), metric, m=3, k=6, p=3, rng=1)
    for row in data[1200:]:
        tree.insert(row)
    for idx in np.random.default_rng(2).choice(len(data), 60, replace=False):
        tree.delete(int(idx))
    return tree


SHELL_TREES = {
    "mvpt-tight": lambda data, metric: MVPTree(data, metric, m=3, k=6, p=3, rng=1),
    "mvpt-cutoff": lambda data, metric: MVPTree(
        data, metric, m=3, k=6, p=3, bounds="cutoff", rng=1
    ),
    "gmvpt-v3": lambda data, metric: GMVPTree(
        data, metric, m=2, v=3, k=6, p=4, rng=1
    ),
    "dynamic-churn": _churned_dynamic,
}


class TestShellPruneAccounting:
    """Every existing child of a visited internal node is either visited
    or counted in exactly one ``vpN-shell`` prune (range search)."""

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(11).random((1500, 5))

    def check(self, index, tree, probe, data):
        internal = _internal_nodes(root_node(tree))
        queries = list(data[:4]) + list(np.random.default_rng(12).random((2, 5)))
        for query in queries:
            for radius in (0.1, 0.25):
                probe.evaluated.clear()
                stats = QueryStats()
                index.range_search(query, radius, stats=stats)
                visited = [n for n in internal if n.vp_ids[0] in probe.evaluated]
                children = sum(
                    child is not None for n in visited for child in n.children
                )
                shell_prunes = sum(
                    count
                    for kind, count in stats.prunes.items()
                    if re.fullmatch(r"vp\d+-shell", kind)
                )
                assert len(visited) == stats.internal_visited
                assert children == stats.nodes_visited - 1 + shell_prunes

    @pytest.mark.parametrize("name", sorted(SHELL_TREES))
    def test_in_memory(self, data, name):
        probe = _ProbeMetric(data)
        tree = SHELL_TREES[name](data, probe)
        self.check(tree, tree, probe, data)

    def test_store_backed_mvpt(self, data, tmp_path):
        tree = SHELL_TREES["mvpt-tight"](data, L2())
        path = write_store(tree, tmp_path / "shard.rsx")
        probe = _ProbeMetric(data)
        with open_index(path, probe) as index:
            self.check(index, tree, probe, data)
