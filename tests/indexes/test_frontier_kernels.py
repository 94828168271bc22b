"""The frontier kernels' evaluation sequence and their leaf tables.

* Observation never changes what a search evaluates: with stats off,
  with a :class:`QueryStats`, and with a recording trace sink, every
  tree family pays the same ids in the same order and returns the same
  answer and certificate (exact k-NN, budgeted k-NN, exact range,
  budgeted range).  Exact range books each prune to its own section 4.3
  bound only when observed, so this also pins that the attribution
  never changes what is paid.
* The point-major leaf tables the multi-vantage kernels search match
  the tree's leaf nodes, in memory and mapped from a store.
* The tables derived where a tree's tables are made equal those the
  first search used to derive, and building, searching, storing and
  reopening a tree makes no node object.
"""

import numpy as np
import pytest

from repro import (
    DynamicMVPTree,
    GMVPTree,
    MVPTree,
    QueryStats,
    RecordingTraceSink,
    VPTree,
)
from repro.approx import approx_knn_search, approx_range_search
from repro.bench.digest import RecordingMetric
from repro.indexes import kernels
from repro.metric import L2
from repro.store import open_index, write_store
from tests.nodeview import GMVPLeafNode, root_node


def _dynamic(points, metric):
    tree = DynamicMVPTree(points[:-200], metric, m=3, k=5, p=5, rng=2)
    for row in points[-200:]:
        tree.insert(row)
    for idx in (3, 17, 40, 99, 250):
        tree.delete(idx)
    return tree


BUILDERS = {
    "vpt": lambda d, m: VPTree(d, m, m=2, leaf_capacity=4, rng=1),
    "mvpt-tight": lambda d, m: MVPTree(d, m, m=3, k=6, p=7, bounds="tight", rng=1),
    "mvpt-cutoff": lambda d, m: MVPTree(d, m, m=3, k=6, p=7, bounds="cutoff", rng=1),
    "gmvpt-v3": lambda d, m: GMVPTree(d, m, m=2, v=3, k=5, p=7, rng=1),
    "dynamic": _dynamic,
}
STORABLE = ("vpt", "mvpt-tight", "mvpt-cutoff", "gmvpt-v3")


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(41)
    centres = rng.random((6, 8))
    return centres[rng.integers(6, size=360)] + rng.normal(0, 0.08, (360, 8))


@pytest.fixture(scope="module")
def queries(points):
    rng = np.random.default_rng(42)
    return points[rng.integers(len(points), size=6)] + rng.normal(0, 0.05, (6, 8))


def _index(name, stored, points, metric, tmp_path):
    tree = BUILDERS[name](points, metric)
    if not stored:
        return tree
    path = tmp_path / f"{name}.rsx"
    write_store(tree, path)
    return open_index(path, metric)


def _calls(index):
    return {
        "knn": lambda q, obs: (index.knn_search(q, 7, **obs), None),
        "bknn": lambda q, obs: approx_knn_search(index, q, 7, budget=60, **obs),
        "bknn-eps": lambda q, obs: approx_knn_search(
            index, q, 7, budget=150, epsilon=0.3, **obs
        ),
        "range": lambda q, obs: (index.range_search(q, 0.35, **obs), None),
        "brange": lambda q, obs: approx_range_search(
            index, q, 0.35, budget=80, **obs
        ),
    }


@pytest.mark.parametrize(
    "name, stored",
    [(name, False) for name in BUILDERS] + [(name, True) for name in STORABLE],
)
def test_observation_does_not_change_the_evaluation(
    name, stored, points, queries, tmp_path
):
    metric = RecordingMetric(points)
    index = _index(name, stored, points, metric, tmp_path)
    observers = {
        "off": dict,
        "stats": lambda: {"stats": QueryStats()},
        "trace": lambda: {"trace": RecordingTraceSink()},
    }
    for label, call in _calls(index).items():
        for q in queries:
            runs = {}
            for mode, observer in observers.items():
                metric.seen = []
                metric.recording = True
                answer, report = call(q, observer())
                metric.recording = False
                runs[mode] = (metric.seen, answer, report)
            assert runs["off"][0], (label, "paid nothing")
            assert runs["stats"] == runs["off"], (label, "stats")
            assert runs["trace"] == runs["off"], (label, "trace")


def _leaves_with_levels(tree):
    """Every leaf node with its level (root 1, then ``v`` per level)."""
    stack = [(root_node(tree), 1)]
    while stack:
        node, level = stack.pop()
        if isinstance(node, GMVPLeafNode):
            yield node, level
        else:
            stack.extend((c, level + tree.v) for c in node.children if c is not None)


def _check_leaf_tables(tree, arrays):
    v, p = tree.v, tree.p
    offsets = np.asarray(arrays.leaf_offsets)
    row_of = {int(i): r for r, i in enumerate(arrays.leaf_ids)}
    slot_of_vps = {
        tuple(int(i) for i in row if i >= 0): s
        for s, row in enumerate(arrays.leaf_vp_ids)
    }
    assert arrays.leaf_dists.shape == (len(row_of), v)
    assert arrays.leaf_paths.shape == (len(row_of), p)
    short_vps = short_paths = 0
    for leaf, level in _leaves_with_levels(tree):
        # The kernels rely on it: a leaf keeps the PATH prefix the
        # query has filled at its level.
        assert leaf.path_len == min(p, level - 1)
        short_vps += len(leaf.vp_ids) < v
        short_paths += bool(leaf.ids) and leaf.path_len < p
        slot = slot_of_vps[tuple(leaf.vp_ids)]
        assert list(arrays.leaf_vp_ids[slot]) == list(leaf.vp_ids) + [-1] * (
            v - len(leaf.vp_ids)
        )
        assert offsets[slot + 1] - offsets[slot] == len(leaf.ids)
        dists = np.asarray(leaf.dists).reshape(len(leaf.vp_ids), len(leaf.ids))
        for j, point in enumerate(leaf.ids):
            row = row_of[int(point)]
            assert row == offsets[slot] + j
            np.testing.assert_array_equal(arrays.leaf_dists[row], dists[:, j])
            expected = np.zeros(p)
            expected[: leaf.path_len] = leaf.paths[j]
            np.testing.assert_array_equal(arrays.leaf_paths[row], expected)
    return short_vps, short_paths


@pytest.mark.parametrize("name", ["mvpt-tight", "mvpt-cutoff", "gmvpt-v3", "dynamic"])
def test_leaf_tables_match_the_leaf_nodes(name, points):
    tree = BUILDERS[name](points, L2())
    short_vps, short_paths = _check_leaf_tables(tree, tree._tables())
    assert short_paths, "no leaf with a PATH row shorter than p"
    if name == "dynamic":
        assert short_vps, "no leaf with fewer than v vantage points"


@pytest.mark.parametrize("name", ["mvpt-tight", "gmvpt-v3"])
def test_store_leaf_tables_match_the_leaf_nodes(name, points, tmp_path):
    tree = BUILDERS[name](points, L2())
    path = tmp_path / f"{name}.rsx"
    write_store(tree, path)
    index = open_index(path, L2())
    try:
        _check_leaf_tables(tree, index._impl._tables())
    finally:
        index.close()


def _parent_derived(arrays, v, p):
    """The derived tables as the first search used to make them, one
    internal node at a time: a reference for :func:`kernels.derive`."""
    leaf_size = np.diff(arrays.leaf_offsets)
    if v == 1:
        leaf_width = np.zeros_like(leaf_size)
        path_cols = None
    else:
        leaf_width = np.count_nonzero(arrays.leaf_vp_ids >= 0, axis=1)
        level = np.zeros(arrays.vp_ids.shape[0], dtype=np.intp)
        nodes = np.array([arrays.root_idx] if arrays.root_kind == 1 else [])
        depth = 1
        while nodes.size:
            level[nodes] = depth
            internal = arrays.child_kind[nodes] == 1
            nodes, depth = arrays.child_idx[nodes][internal], depth + v
        path_cols = 4 + np.minimum(level[:, None] - 1 + np.arange(v), p)
    costs = leaf_width + leaf_size
    kind, slot = arrays.child_kind, arrays.child_idx
    rows = np.zeros(kind.shape + (4,))
    rows[..., 1] = kind
    rows[..., 2] = slot
    rows[..., 3] = np.where(kind == 1, v, 0)
    rows[kind == 2, 3] = costs[slot[kind == 2]]
    internal_sizes = np.zeros(kind.shape[0], dtype=np.int64)
    for n in range(internal_sizes.size - 1, -1, -1):
        internal_sizes[n] = (
            v
            + costs[slot[n][kind[n] == 2]].sum()
            + internal_sizes[slot[n][kind[n] == 1]].sum()
        )
    return {
        "leaf_size": leaf_size,
        "leaf_width": leaf_width,
        "child_rows": rows,
        "path_cols": path_cols,
        "sizes": (internal_sizes, costs),
    }


@pytest.mark.parametrize(
    "name, stored",
    [(name, False) for name in BUILDERS] + [(name, True) for name in STORABLE],
)
def test_derived_tables_match_the_first_search_derivation(
    name, stored, points, tmp_path
):
    index = _index(name, stored, points, L2(), tmp_path)
    index = getattr(index, "_impl", index)
    arrays = index._tables()
    v = 1 if name == "vpt" else index.v
    expected = _parent_derived(arrays, v, getattr(index, "p", 0))
    for table, want in expected.items():
        got = getattr(arrays, table, None)
        if table == "sizes":
            for part, part_want in zip(got, want):
                np.testing.assert_array_equal(part, part_want)
                assert part.dtype == part_want.dtype
        elif want is None:
            assert got is None, table
        else:
            np.testing.assert_array_equal(got, want, err_msg=table)
            assert got.dtype == want.dtype, table


@pytest.mark.parametrize("name", STORABLE)
def test_build_search_store_and_reopen_make_no_node(name, points, queries, tmp_path):
    """The tables are the tree: a build, its searches, a store and a
    reopened tree hold their tables and nothing else."""
    tree = BUILDERS[name](points, L2())
    path = tmp_path / f"{name}.rsx"
    for index in (tree, None):
        if index is None:
            write_store(tree, path)
            index = open_index(path, L2())
        for call in _calls(index).values():
            for q in queries:
                call(q, {})
    for held in (tree, index._impl):
        assert not {"_nodes", "_root", "root"} & set(dir(held))
        assert isinstance(held._tables(), (kernels._VPArrays, kernels._GMVPArrays))
    index.close()

