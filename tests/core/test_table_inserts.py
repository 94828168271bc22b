"""Inserts patch the flat tables.

A :class:`DynamicMVPTree` insert writes a patched copy of the tables
and swaps it in.  A seeded insert sequence (from an empty tree, with
deletes and a ``rebuild()`` between inserts) must reach every kind of
patch: a point appended to a leaf, a vantage point added to a leaf
without data points, an empty child turned into a new leaf, and an
overflowing leaf spliced into a level-built subtree.  It runs under both
``MVPTree`` shell modes and at ``GMVPTree``'s per-child shells with
``v = 3``; after every step the verifier is clean and every query
answers like a linear scan over the live points.  Readers that search
while inserts land see the tree before or after each insert, whole.
"""

import sys
import threading

import numpy as np
import pytest

from repro import DynamicMVPTree, LinearScan
from repro.check.invariants import verify_structure
from repro.metric import L2
from repro.serve import ShardManager


def _growing(m: int, v: int, bounds):
    """An empty dynamic tree with ``m`` partitions per vantage point,
    ``v`` vantage points per node and ``MVPTree``'s shells in ``bounds``
    mode, or ``GMVPTree``'s per-child shells (``bounds=None``).  The tree
    is empty, so its first insert builds with these settings."""
    tree = DynamicMVPTree([], L2(), m=m, k=2, p=3, rng=7, overflow_factor=2.0)
    tree.v = v
    if bounds is None:
        tree._shells = lambda lo, hi, cutoffs: (lo, hi)
    else:
        tree.bounds_mode = bounds
    return tree


def _events(before, after, tree, rebuilds: int) -> set:
    """Which patches one insert made, read off the tables."""
    if before is None:
        return {"empty tree"}
    if tree.leaf_rebuild_count > rebuilds:
        return {"leaf overflow"}
    if len(after.leaf_offsets) > len(before.leaf_offsets):
        return {"empty child"}
    if np.count_nonzero(after.leaf_vp_ids >= 0) > np.count_nonzero(
        before.leaf_vp_ids >= 0
    ):
        return {"leaf without points"}
    return {"leaf append"}


def _assert_answers(tree, points, removed, query):
    live = np.array(sorted(set(range(len(points))) - removed), dtype=np.intp)
    oracle = LinearScan(points[live], L2())
    radius = 0.35
    assert tree.range_search(query, radius) == sorted(
        live[oracle.range_search(query, radius)].tolist()
    )
    assert tree.outside_range_search(query, radius) == sorted(
        live[oracle.outside_range_search(query, radius)].tolist()
    )
    k = min(5, len(live))
    for got, want in (
        (tree.knn_search(query, k), oracle.knn_search(query, k)),
        (tree.farthest_search(query, k), oracle.farthest_search(query, k)),
    ):
        assert [n.id for n in got] == [int(live[n.id]) for n in want]
        np.testing.assert_allclose(
            [n.distance for n in got], [n.distance for n in want]
        )


@pytest.mark.parametrize(
    "m, v, bounds",
    [(3, 2, "tight"), (3, 2, "cutoff"), (2, 3, None)],
    ids=["mvpt-tight", "mvpt-cutoff", "gmvpt-v3"],
)
def test_seeded_inserts_patch_the_tables(m, v, bounds):
    rng = np.random.default_rng(11)
    points = rng.random((150, 3))
    queries = rng.random((150, 3))
    tree = _growing(m, v, bounds)
    removed: set = set()
    seen: set = set()
    for step, row in enumerate(points):
        before, rebuilds = tree._tables(), tree.leaf_rebuild_count
        assert tree.insert(row) == step
        seen |= _events(before, tree._tables(), tree, rebuilds)
        if step in (40, 90):
            for idx in rng.choice(step, size=4, replace=False).tolist():
                if idx not in removed:
                    tree.delete(idx)
                    removed.add(idx)
        if step == 60:
            tree.rebuild()
        violations = verify_structure(tree)
        assert violations == [], "\n".join(x.format() for x in violations)
        _assert_answers(tree, points[: step + 1], removed, queries[step])
    assert seen == {
        "empty tree",
        "leaf append",
        "leaf without points",
        "empty child",
        "leaf overflow",
    }


def test_knn_readers_see_each_insert_whole():
    """Threads search a one-shard ``dynamic`` deployment while inserts
    land; each answer is the exact 10-NN over the points inserted by
    some moment between the search's start and its end."""
    rng = np.random.default_rng(5)
    base, extra = rng.random((400, 6)), rng.random((300, 6))
    # Each query sits near one inserted point, so the points that land
    # are the ones the answers depend on.
    queries = extra + rng.uniform(-0.02, 0.02, extra.shape)
    manager = ShardManager(base, L2(), n_shards=1, backend="dynamic", rng=1)
    landed = started = 0
    answers: list = []
    errors: list = []
    stop = threading.Event()

    def reader() -> None:
        try:
            while not stop.is_set():
                lo = landed
                q = min(lo, len(extra) - 1)  # near the point landing next
                found = manager.knn_search(queries[q], 10)
                answers.append((q, lo, started, found))
        except Exception as exc:  # a reader that fails must fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(2)]
    try:
        for thread in threads:
            thread.start()
        for row in extra:
            started += 1
            manager.insert(row)
            landed += 1
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        sys.setswitchinterval(interval)

    assert not errors, errors
    points = np.concatenate((base, extra))
    during = [a for a in answers if 0 < a[1] < len(extra)]
    assert during, "no search ran while inserts landed"
    for q, lo, hi, found in answers:
        distances = np.linalg.norm(points - queries[q], axis=1)
        got = [n.id for n in found]
        for j in range(lo, hi + 1):
            n = len(base) + j
            order = np.lexsort((np.arange(n), distances[:n]))[:10]
            if order.tolist() == got:
                np.testing.assert_allclose(
                    [x.distance for x in found], distances[order]
                )
                break
        else:
            raise AssertionError(
                f"query {q} between {lo} and {hi} inserts: {got} matches no state"
            )
