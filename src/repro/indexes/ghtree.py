"""Generalized hyperplane tree ([Uhl91]; paper section 3.2).

At every node two pivot points are picked and the remaining points are
divided into two groups depending on which pivot they are closer to —
the split surface is the generalized hyperplane equidistant from the
pivots, rather than the vp-tree's spherical cut.  "Unlike the vp-trees,
the branching factor can only be two" (the paper), and balance depends
entirely on pivot selection.

Pruning uses two exact rules:

* the hyperplane rule — a subtree on the far side of the hyperplane can
  be skipped when ``(d(q, near) - d(q, far)) > 2r`` cannot hold;
* a covering-radius rule (the bisector-tree tightening) — each subtree
  also records the maximum distance of its points from its own pivot,
  so the subtree is skipped when the query ball misses that covering
  ball entirely.

The tree is its flat tables (:class:`_GHArrays`), which the searches
walk node at a time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional, Sequence

import numpy as np

from repro._util import (
    RngLike,
    as_rng,
    check_non_empty,
    definitely_greater,
    gather,
    slack,
)
from repro.indexes import kernels
from repro.indexes.base import MetricIndex, Neighbor
from repro.metric.base import Metric
from repro.obs.stats import (
    PRUNE_COVERING_RADIUS,
    PRUNE_HYPERPLANE,
    PRUNE_KNN_RADIUS,
    QueryStats,
)
from repro.obs.trace import Observation, TraceSink, make_observation

_NONE, _INTERNAL, _LEAF = kernels._NONE, kernels._INTERNAL, kernels._LEAF


class _GHArrays:
    """Flat tables of a gh-tree, internal nodes and leaves each numbered
    in preorder.  Internal nodes are ``(count, 2)`` tables: the two
    pivots (``pivot_ids``), each side's covering radius around its own
    pivot (``radii``) and each side's child as ``(kind, slot)``
    (``child_kind``/``child_idx``); side 0 holds the points closer to
    pivot 0.  Leaves are ``leaf_offsets``/``leaf_ids`` runs.
    :data:`SECTIONS` are what a codec writes.
    """

    SECTIONS = (
        "pivot_ids",
        "radii",
        "child_kind",
        "child_idx",
        "leaf_offsets",
        "leaf_ids",
    )
    ROOT = ("root_kind", "root_idx")

    __slots__ = (*SECTIONS, *ROOT)


class GHTree(kernels.TableIndex, MetricIndex):
    """Generalized hyperplane tree.

    Parameters
    ----------
    objects, metric:
        Dataset and metric, as for every index.
    leaf_capacity:
        Bucket size below which no further split happens.
    pivots:
        ``"random"`` picks two distinct random pivots; ``"farthest"``
        picks a random first pivot and the point farthest from it (one
        extra batch of distance computations, but splits tend to be
        better separated — the paper notes the structure is only
        well-balanced "if the two pivot points are well-selected").
    rng:
        Seed or generator.
    """

    _TABLES = _GHArrays
    _PARAMS = {"leaf_capacity": "leaf_capacity", "pivots": "pivots"}
    _COUNTERS = ("node_count", "leaf_count", "height")

    def __init__(
        self,
        objects: Sequence,
        metric: Metric,
        *,
        leaf_capacity: int = 1,
        pivots: str = "farthest",
        rng: RngLike = None,
    ):
        check_non_empty(objects, "GHTree")
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        if pivots not in ("random", "farthest"):
            raise ValueError(f"pivots must be 'random' or 'farthest', got {pivots!r}")
        super().__init__(objects, metric)
        self.leaf_capacity = leaf_capacity
        self.pivots = pivots
        self._rng = as_rng(rng)
        self.node_count = 0
        self.leaf_count = 0
        self.height = 0
        nodes: list = []
        leaves: list = []
        root = self._build(list(range(len(objects))), 1, nodes, leaves)
        tables = _GHArrays()
        columns = zip(*nodes) if nodes else ((),) * 4
        for name, column, dtype in zip(
            ("pivot_ids", "radii", "child_kind", "child_idx"),
            columns,
            (np.int64, np.float64, np.int8, np.int64),
        ):
            setattr(tables, name, np.asarray(column, dtype).reshape(-1, 2))
        tables.leaf_offsets = kernels._offsets([len(ids) for ids in leaves])
        tables.leaf_ids = kernels._concat(leaves, np.int64)
        tables.root_kind, tables.root_idx = root
        self._plant(tables)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self, ids: list[int], depth: int, nodes: list, leaves: list):
        """Recursively split ``ids`` at the generalized hyperplane,
        numbering internal nodes (``nodes``: pivots, radii, child kinds
        and slots) and leaves (``leaves``: ids) in preorder; returns the
        subtree's ``(kind, slot)``, ``(0, -1)`` when ``ids`` is empty.

        Recursion depth is bounded by the tree height (each child is
        strictly smaller than its parent), so the default interpreter
        stack suffices.
        """
        if not ids:
            return _NONE, -1
        self.height = max(self.height, depth)
        self.node_count += 1
        if len(ids) <= max(self.leaf_capacity, 1) or len(ids) < 2:
            return self._leaf(ids, leaves)

        p1_id = ids[int(self._rng.integers(len(ids)))]
        rest = [i for i in ids if i != p1_id]
        d_p1 = np.asarray(
            self._batch_dist(None, gather(self._objects, rest), self._objects[p1_id])
        )
        if d_p1.size and float(d_p1.max()) == 0.0:
            # Zero-diameter group (by the triangle inequality): every
            # split puts the whole group on p1's side and removes only
            # two pivots per level, recursing ~n/2 deep.  Fall back to
            # an (oversized) leaf.
            return self._leaf(ids, leaves)
        if self.pivots == "farthest":
            p2_pos = int(np.argmax(d_p1))
        else:
            p2_pos = int(self._rng.integers(len(rest)))
        p2_id = rest[p2_pos]
        rest = rest[:p2_pos] + rest[p2_pos + 1 :]
        d_p1 = np.delete(d_p1, p2_pos)

        if rest:
            d_p2 = np.asarray(
                self._batch_dist(
                    None, gather(self._objects, rest), self._objects[p2_id]
                )
            )
        else:
            d_p2 = np.empty(0)

        closer_to_p1 = d_p1 <= d_p2
        left_ids = [rest[i] for i in np.nonzero(closer_to_p1)[0]]
        right_ids = [rest[i] for i in np.nonzero(~closer_to_p1)[0]]
        r1 = float(d_p1[closer_to_p1].max()) if left_ids else 0.0
        r2 = float(d_p2[~closer_to_p1].max()) if right_ids else 0.0

        slot = len(nodes)
        nodes.append(None)  # preorder: the node before its children
        left = self._build(left_ids, depth + 1, nodes, leaves)
        right = self._build(right_ids, depth + 1, nodes, leaves)
        nodes[slot] = ((p1_id, p2_id), (r1, r2), *zip(left, right))
        return _INTERNAL, slot

    def _leaf(self, ids: list[int], leaves: list) -> tuple[int, int]:
        self.leaf_count += 1
        leaves.append(list(ids))
        return _LEAF, len(leaves) - 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _node(self, tables, slot: int):
        """Internal node ``slot``'s pivots and their covering radii."""
        pivots, radii = tables.pivot_ids, tables.radii
        return (
            pivots.item(slot, 0),
            pivots.item(slot, 1),
            radii.item(slot, 0),
            radii.item(slot, 1),
        )

    def range_search(
        self,
        query,
        radius: float,
        *,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
    ) -> list[int]:
        radius = self.validate_radius(radius)
        obs = make_observation(stats, trace)
        out: list[int] = []
        tables = self._tables()
        self._range(tables, tables.root_kind, tables.root_idx, query, radius, out, obs)
        out.sort()
        return out

    def _range(
        self,
        tables,
        kind: int,
        slot: int,
        query,
        radius: float,
        out: list[int],
        obs: Optional[Observation] = None,
    ) -> None:
        """Recursive range-search walk (depth bounded by tree height)."""
        if kind == _LEAF:
            ids, distances = kernels.scan_leaf(self, tables, slot, query, obs)
            out.extend(i for i, d in zip(ids, distances) if d <= radius)
            return
        if obs is not None:
            obs.enter_internal()
        p1, p2, r1, r2 = self._node(tables, slot)
        d1 = self._dist(obs, query, self._objects[p1])
        d2 = self._dist(obs, query, self._objects[p2])
        if d1 <= radius:
            out.append(p1)
        if d2 <= radius:
            out.append(p2)
        # Hyperplane rule + covering-ball rule, both exact (with
        # epsilon slack so float noise never drops a true answer).
        for d_near, d_far, r_near, side in ((d1, d2, r1, 0), (d2, d1, r2, 1)):
            kind = tables.child_kind.item(slot, side)
            if d_near - d_far > 2 * radius + slack(radius):
                if obs is not None and kind:
                    obs.prune(PRUNE_HYPERPLANE)
                continue
            if d_near - radius > r_near + slack(r_near):
                if obs is not None and kind:
                    obs.prune(PRUNE_COVERING_RADIUS)
                continue
            if kind:
                child = tables.child_idx.item(slot, side)
                self._range(tables, kind, child, query, radius, out, obs)

    def knn_search(
        self,
        query,
        k: int,
        *,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
    ) -> list[Neighbor]:
        k = self.validate_k(k)
        obs = make_observation(stats, trace)
        tables = self._tables()
        best: list[tuple[float, int]] = []

        def consider(distance: float, idx: int) -> None:
            item = (-distance, -idx)
            if len(best) < k:
                heapq.heappush(best, item)
            elif item > best[0]:
                heapq.heapreplace(best, item)

        def threshold() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        counter = itertools.count()
        frontier = [(0.0, next(counter), tables.root_kind, tables.root_idx)]
        while frontier:
            lower_bound, __, kind, slot = heapq.heappop(frontier)
            if definitely_greater(lower_bound, threshold()):
                if obs is not None:
                    obs.prune(PRUNE_KNN_RADIUS)
                continue
            if kind == _LEAF:
                ids, distances = kernels.scan_leaf(self, tables, slot, query, obs)
                for idx, distance in zip(ids, distances):
                    consider(distance, idx)
                continue
            if obs is not None:
                obs.enter_internal()
            p1, p2, r1, r2 = self._node(tables, slot)
            d1 = self._dist(obs, query, self._objects[p1])
            d2 = self._dist(obs, query, self._objects[p2])
            consider(d1, p1)
            consider(d2, p2)
            for side, hyper_bound, cover_bound in (
                (0, (d1 - d2) / 2.0, d1 - r1),
                (1, (d2 - d1) / 2.0, d2 - r2),
            ):
                kind = tables.child_kind.item(slot, side)
                if not kind:
                    continue
                child_bound = max(lower_bound, hyper_bound, cover_bound, 0.0)
                if not definitely_greater(child_bound, threshold()):
                    child = tables.child_idx.item(slot, side)
                    heapq.heappush(frontier, (child_bound, next(counter), kind, child))
                elif obs is not None:
                    # Attribute the skip to whichever bound is decisive.
                    if definitely_greater(hyper_bound, threshold()):
                        obs.prune(PRUNE_HYPERPLANE)
                    elif definitely_greater(cover_bound, threshold()):
                        obs.prune(PRUNE_COVERING_RADIUS)
                    else:
                        obs.prune(PRUNE_KNN_RADIUS)

        return sorted(
            (Neighbor(-d, -i) for d, i in best), key=lambda n: (n.distance, n.id)
        )
