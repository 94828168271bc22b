"""Exact range search equals a node-at-a-time walk, counter for counter.

The kernels run every tree range search on the batched frontier.  Which
nodes a range search enters does not depend on visit order, so a plain
recursive walk over the node objects, with the paper's section 4.3
bounds and the kernel's comparison (``bound > r + slack(r)``), must find
the same hits and book the same ``QueryStats``: distances, nodes, leaf
points seen/scanned/filtered, and every prune under the bound that made
it (``vp-shell``; ``vpN-shell``; ``leaf-dN``; ``path-filter``).
"""

from collections import Counter

import numpy as np
import pytest

from repro import DynamicMVPTree, GMVPTree, MVPTree, QueryStats, VPTree
from repro._util import slack
from repro.core.gmvptree import GMVPLeafNode
from repro.indexes.vptree import VPLeafNode
from repro.metric import L2
from repro.obs.stats import (
    PRUNE_PATH_FILTER,
    PRUNE_VP_SHELL,
    leaf_dist_kind,
    vp_shell_kind,
)
from repro.store import open_index, write_store

RADII = (0.15, 0.3, 0.6)


class _Walk:
    """One query's reference walk: hits plus the counters it books."""

    def __init__(self, tree, query, radius):
        # Every distance the walk may need, one row each (a row's
        # distance does not depend on the batch it is computed in).
        self.d = L2().batch_distance(np.asarray(tree._objects), query)
        self.radius = radius
        self.limit = radius + slack(radius)
        self.hits = []
        self.stats = QueryStats()
        self.prunes = Counter()

    def pay(self, ids):
        self.stats.distance_calls += len(ids)
        self.hits += [i for i in ids if self.d[i] <= self.radius]

    def enter(self, internal, size=0):
        self.stats.nodes_visited += 1
        if internal:
            self.stats.internal_visited += 1
        else:
            self.stats.leaf_visited += 1
            self.stats.leaf_points_seen += size

    def filtered(self, kind):
        self.prunes[kind] += 1
        self.stats.leaf_points_filtered += 1

    def result(self):
        self.stats.prunes = dict(self.prunes)
        return sorted(self.hits), self.stats

    # -- vp-tree -------------------------------------------------------

    def vp(self, node):
        if isinstance(node, VPLeafNode):
            self.enter(False, len(node.ids))
            self.pay(node.ids)
            self.stats.leaf_points_scanned += len(node.ids)
            return
        self.enter(True)
        self.pay([node.vp_id])
        dq = self.d[node.vp_id]
        for child, (lo, hi) in zip(node.children, node.bounds):
            if child is None:
                continue
            if max(dq - hi, lo - dq) > self.limit:
                self.prunes[PRUNE_VP_SHELL] += 1
            else:
                self.vp(child)

    # -- multi-vantage trees -------------------------------------------

    def gmvp(self, node, path, p):
        if isinstance(node, GMVPLeafNode):
            self.leaf(node, path)
            return
        self.enter(True)
        self.pay(node.vp_ids)
        dq = [self.d[i] for i in node.vp_ids]
        child_path = (path + dq)[:p]
        for child, shells in zip(node.children, node.bounds):
            if child is None:
                continue
            for t, (lo, hi) in enumerate(shells):
                if lo <= hi and max(dq[t] - hi, lo - dq[t]) > self.limit:
                    self.prunes[vp_shell_kind(t)] += 1
                    break
            else:
                self.gmvp(child, child_path, p)

    def leaf(self, node, path):
        self.enter(False, len(node.ids))
        self.pay(node.vp_ids)
        dq = [self.d[i] for i in node.vp_ids]
        for j, point in enumerate(node.ids):
            for t in range(len(node.vp_ids)):
                if abs(node.dists[t][j] - dq[t]) > self.limit:
                    self.filtered(leaf_dist_kind(t))
                    break
            else:
                if any(
                    abs(node.paths[j][s] - path[s]) > self.limit
                    for s in range(node.path_len)
                ):
                    self.filtered(PRUNE_PATH_FILTER)
                else:
                    self.pay([point])
                    self.stats.leaf_points_scanned += 1


def walk(tree, query, radius):
    """The reference answer and stats of ``tree.range_search``."""
    w = _Walk(tree, query, radius)
    if isinstance(tree, VPTree):
        w.vp(tree._root)
    elif tree._root is not None:
        w.gmvp(tree._root, [], tree.p)
    hits, stats = w.result()
    if isinstance(tree, DynamicMVPTree):
        hits = [i for i in hits if i not in tree.tombstone_ids]
    return hits, stats


def _dynamic(points):
    tree = DynamicMVPTree(points[:-150], L2(), m=3, k=9, p=4, rng=2)
    for row in points[-150:]:
        tree.insert(row)
    for idx in range(0, len(points), 9):
        tree.delete(idx)
    return tree


BUILDERS = {
    "vpt": lambda d: VPTree(d, L2(), m=2, leaf_capacity=4, rng=1),
    "vpt-m3": lambda d: VPTree(d, L2(), m=3, rng=1),
    "mvpt-tight": lambda d: MVPTree(d, L2(), m=3, k=13, p=4, bounds="tight", rng=1),
    "mvpt-cutoff": lambda d: MVPTree(d, L2(), m=3, k=13, p=4, bounds="cutoff", rng=1),
    "gmvpt-v3": lambda d: GMVPTree(d, L2(), m=2, v=3, k=12, p=4, rng=1),
    "dynamic": _dynamic,
}
STORED = ("vpt", "mvpt-tight", "gmvpt-v3")


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    centres = rng.random((8, 8))
    return centres[rng.integers(8, size=900)] + rng.normal(0, 0.1, (900, 8))


@pytest.fixture(scope="module")
def queries(points):
    rng = np.random.default_rng(8)
    return points[rng.integers(len(points), size=8)] + rng.normal(0, 0.05, (8, 8))


def _check(index, tree, queries):
    """Assert parity on every query and radius; return the prune kinds
    the walk booked."""
    kinds = Counter()
    for q in queries:
        for radius in RADII:
            stats = QueryStats()
            hits = index.range_search(q, radius, stats=stats)
            expected, expected_stats = walk(tree, q, radius)
            assert sorted(hits) == expected
            assert stats == expected_stats, (radius, stats, expected_stats)
            kinds.update(expected_stats.prunes)
    return kinds


@pytest.mark.parametrize("name", list(BUILDERS))
def test_range_matches_the_walk(name, points, queries):
    tree = BUILDERS[name](points)
    kinds = _check(tree, tree, queries)
    if name.startswith("vpt"):
        assert kinds[PRUNE_VP_SHELL]
    else:
        # Every bound of the vocabulary decides some prune.
        bounds = [vp_shell_kind(t) for t in range(tree.v)]
        bounds += [leaf_dist_kind(t) for t in range(tree.v)] + [PRUNE_PATH_FILTER]
        assert all(kinds[kind] for kind in bounds), kinds


@pytest.mark.parametrize("name", STORED)
def test_store_backed_range_matches_the_walk(name, points, queries, tmp_path):
    tree = BUILDERS[name](points)
    path = tmp_path / f"{name}.rsx"
    write_store(tree, path)
    index = open_index(path, L2())
    try:
        assert _check(index, tree, queries)
    finally:
        index.close()
