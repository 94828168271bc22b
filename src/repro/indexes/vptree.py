"""Vantage-point tree ([Uhl91], [Yia93]; paper section 3.3).

The vp-tree partitions a metric space into *spherical cuts* around a
vantage point chosen at every node: distances from the vantage point to
all points below the node are computed, the points are sorted by that
distance and split into ``m`` groups of equal cardinality.  Each group
occupies a spherical shell whose inner and outer radii are the minimum
and maximum distance of its points from the vantage point (the paper,
section 1, describes the partitions exactly this way), and those radii
are what the search uses for triangle-inequality pruning — the paper's
Appendix proves this pruning exact.

This implementation generalises the binary tree to order ``m``
("Generalizing binary vp-trees into multi-way vp-trees", section 3.3)
and supports a configurable leaf capacity, random / max-spread /
farthest vantage-point selection, range, k-NN and farthest queries.

Construction requires ``O(n log_m n)`` distance computations, and pays
them one tree level at a time: a count-only pass fixes the shape, the
vantage-point draws are made in the recursive order as the passes reach
them, and each level pass measures all of its nodes' groups against
their vantage points in one segmented metric call and splits them with
one sort (see :mod:`repro.indexes.levels`).  The tree is the one a node-at-a-time
recursion builds, node for node.  The passes write the search kernel's
flat tables (:mod:`repro.indexes.kernels`); the nodes below are a view
made from them for the code that walks nodes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional, Sequence, Union

import numpy as np

from repro._util import (
    RngLike,
    as_rng,
    check_non_empty,
    definitely_greater,
    definitely_less,
    gather,
)
from repro.indexes import kernels, levels
from repro.indexes.base import MetricIndex, Neighbor
from repro.indexes.selection import VantagePointSelector, get_selector
from repro.metric.base import Metric
from repro.obs.stats import QueryStats
from repro.obs.trace import TraceSink, make_observation


class VPInternalNode:
    """Internal node: one vantage point and ``m`` spherical-shell children.

    ``cutoffs`` holds the ``m - 1`` boundary distances used to split the
    sorted distance list (the paper's "cutoff values"); ``bounds[i]``
    holds the exact inner and outer radii of child ``i``'s shell, which
    is what search prunes against.
    """

    __slots__ = ("vp_id", "cutoffs", "bounds", "children")

    def __init__(
        self,
        vp_id: int,
        cutoffs: list[float],
        bounds: list[tuple[float, float]],
        children: list[Union["VPInternalNode", "VPLeafNode", None]],
    ):
        self.vp_id = vp_id
        self.cutoffs = cutoffs
        self.bounds = bounds
        self.children = children


class VPLeafNode:
    """Leaf node: a bucket of data point ids (no precomputed distances —
    that refinement is exactly what the mvp-tree adds)."""

    __slots__ = ("ids",)

    def __init__(self, ids: list[int]):
        self.ids = ids


_Node = Union[VPInternalNode, VPLeafNode]


class VPTree(kernels.TableTree, MetricIndex):
    """Vantage-point tree of order ``m``.

    Parameters
    ----------
    objects:
        Dataset to index (held by reference).
    metric:
        Metric distance function.
    m:
        Branching factor (number of spherical cuts per node); the paper
        evaluates m=2 ("vpt(2)") and m=3 ("vpt(3)").
    leaf_capacity:
        Maximum number of points stored in a leaf bucket.  The paper's
        vp-trees effectively use 1 (every point above the leaves is a
        vantage point), which is the default.
    selector:
        Vantage-point selection strategy; name or
        :class:`~repro.indexes.selection.VantagePointSelector`.
    bounds:
        ``"tight"`` (default) stores each shell's exact inner/outer
        radii (the min/max distances the paper describes in section 1);
        ``"cutoff"`` stores only the intervals implied by the cutoff
        values (0 and infinity at the ends), which is what the paper's
        pseudo-code conditions use directly.  Both are exact; tight
        bounds prune strictly harder (ablated in
        ``benchmarks/bench_ablation_bounds.py``).
    rng:
        Seed or generator for the selection randomness (the paper
        averages over 4 random seeds).

    >>> import numpy as np
    >>> from repro.metric import L2
    >>> data = np.random.default_rng(0).random((100, 8))
    >>> tree = VPTree(data, L2(), m=2, rng=0)
    >>> sorted(tree.range_search(data[7], 0.0))
    [7]
    """

    _TABLES = kernels._VPArrays
    _PARAMS = {"m": "m", "leaf_capacity": "leaf_capacity", "bounds": "bounds_mode"}
    _COUNTERS = ("node_count", "leaf_count", "vantage_point_count", "height")

    def __init__(
        self,
        objects: Sequence,
        metric: Metric,
        *,
        m: int = 2,
        leaf_capacity: int = 1,
        selector: Union[str, VantagePointSelector] = "random",
        bounds: str = "tight",
        rng: RngLike = None,
    ):
        check_non_empty(objects, "VPTree")
        if m < 2:
            raise ValueError(f"branching factor m must be >= 2, got {m}")
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        if bounds not in ("tight", "cutoff"):
            raise ValueError(f"bounds must be 'tight' or 'cutoff', got {bounds!r}")
        super().__init__(objects, metric)
        self.m = m
        self.leaf_capacity = leaf_capacity
        self.bounds_mode = bounds
        self._selector = get_selector(selector)
        self._rng = as_rng(rng)
        self.node_count = 0
        self.leaf_count = 0
        self.vantage_point_count = 0
        self.height = 0
        self._plant(self._build(np.arange(len(objects)), depth=1))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self, ids: np.ndarray, depth: int) -> Optional[kernels._VPArrays]:
        """Partition ``ids`` (an integer array) into spherical shells,
        one tree level per pass (see :mod:`repro.indexes.levels`); adds
        the subtree to the node counters and returns its tables."""
        ids = np.asarray(ids, dtype=np.intp)
        if not ids.size:
            return None
        plan, built, leaves = levels.build(
            lambda zero: self._grow(ids, depth, zero), self._rng
        )
        nodes, vps, cuts, lo, hi = (np.concatenate(part) for part in zip(*built))
        leaf_nodes, sizes, leaf_ids = (np.concatenate(part) for part in zip(*leaves))
        live = int(plan.live.sum())
        self.node_count += live
        self.leaf_count += live - len(nodes)
        self.vantage_point_count += len(nodes)
        self.height = max(self.height, int(plan.depth[plan.live].max()))
        inner, kind, child, leaf_order, rows = levels.layout(
            plan, nodes, leaf_nodes, sizes
        )
        tables = kernels._VPArrays()
        tables.vp_ids = vps[inner]
        tables.cutoffs = cuts[inner]
        tables.child_kind, tables.child_idx = kind, child
        tables.child_lo = np.where(kind > 0, lo[inner], -np.inf)
        tables.child_hi = np.where(kind > 0, hi[inner], np.inf)
        tables.leaf_offsets = levels.offsets(sizes[leaf_order]).astype(np.int64)
        tables.leaf_ids = leaf_ids[rows].astype(np.int64)
        tables.root_kind = kernels._INTERNAL if plan.split[0] else kernels._LEAF
        tables.root_idx = 0
        return tables

    def _node_view(self, tables: kernels._VPArrays) -> _Node:
        """The node graph of ``tables``: empty children get the empty
        shell ``(inf, -inf)``."""
        m, present = self.m, tables.child_kind > 0
        lo = np.where(present, tables.child_lo, np.inf).ravel().tolist()
        hi = np.where(present, tables.child_hi, -np.inf).ravel().tolist()
        shells = list(zip(lo, hi))
        at, ids = tables.leaf_offsets.tolist(), tables.leaf_ids.tolist()
        leaves = [VPLeafNode(ids[a:b]) for a, b in zip(at, at[1:])]
        internals = [
            VPInternalNode(vp_id, cuts, shells[n * m : n * m + m], None)
            for n, (vp_id, cuts) in enumerate(
                zip(tables.vp_ids.tolist(), tables.cutoffs.tolist())
            )
        ]
        return kernels.wire(tables, internals, leaves)

    def _plan(self, n: int, depth: int, zero: set) -> levels.Plan:
        """Count-only pass: every group of more than ``leaf_capacity``
        points draws its vantage point over the whole group and splits
        the rest into ``m`` chunks."""
        return levels.Plan(
            n,
            depth,
            self.leaf_capacity,
            lambda sizes: (sizes[:, None], levels.split_sizes(sizes - 1, self.m)),
            0,
            1,
            zero,
            self._selector,
            self._rng,
        )

    def _grow(self, ids: np.ndarray, depth: int, zero: set):
        """The level passes: returns the plan, the internal nodes in
        blocks of (preorder indices, vantage points, cutoffs, lower and
        upper shell radii) and the leaves in blocks of (preorder
        indices, sizes, point ids back to back).  Raises
        :class:`~repro.indexes.levels.Replan` when a zero-diameter group
        turns up after draws that depend on it."""
        m, cap = self.m, self.leaf_capacity
        plan = self._plan(len(ids), depth, zero)
        none = np.zeros(0, dtype=np.intp)
        built = [(none, none, np.zeros((0, m - 1)), np.zeros((0, m)), np.zeros((0, m)))]
        if len(ids) <= cap:
            root = (np.zeros(1, dtype=np.intp), np.array([len(ids)]), ids)
            return plan, built, [root]
        leaves = []
        # The groups of more than leaf_capacity points still to split;
        # their rows are point ids.
        frontier = levels.Frontier(ids, plan.need)
        while frontier.nodes.size:
            batch, rows, size = frontier.take()
            starts = levels.offsets(size)
            draws = plan.draws(batch)
            vp_rows = levels.pick(self, self._selector, draws, rows, starts[:-1], size)
            keep = np.ones(len(rows), dtype=bool)
            keep[vp_rows] = False
            rest = rows[keep]
            rest_starts = starts - np.arange(len(starts))
            distances = np.asarray(
                self._segment_dist(
                    gather(self._objects, rest),
                    rest_starts,
                    gather(self._objects, rows[vp_rows]),
                ),
                dtype=float,
            )
            flat = np.maximum.reduceat(distances, rest_starts[:-1]) == 0.0
            if flat.any():
                # Zero-diameter groups (all points identical under the
                # metric, by the triangle inequality): no shell can ever
                # separate them, so each becomes one (oversized) leaf.
                for node in batch[flat].tolist():
                    plan.flatten(node)
                leaves.append((batch[flat], size[flat], rows[np.repeat(flat, size)]))
                row_live = np.repeat(~flat, size - 1)
                batch, size, vp_rows = batch[~flat], size[~flat], vp_rows[~flat]
                rest, distances = rest[row_live], distances[row_live]
                rest_starts = levels.offsets(size - 1)
            count = len(batch)
            # Sorted, so every chunk's extremes are its first and last;
            # ties keep the group's order.
            order = np.lexsort((distances, np.repeat(np.arange(count), size - 1)))
            rest, values = rest[order], distances[order]
            chunk = levels.split_sizes(size - 1, m)
            chunk_starts = rest_starts[:-1, None] + np.cumsum(chunk, axis=1) - chunk
            cuts = levels.chunk_cutoffs(values, rest_starts[:-1], chunk)
            top = max(len(values) - 1, 0)
            lo = np.where(chunk > 0, values[np.minimum(chunk_starts, top)], np.inf)
            hi = np.where(
                chunk > 0, values[np.clip(chunk_starts + chunk - 1, 0, top)], -np.inf
            )
            if self.bounds_mode == "cutoff":
                # The paper's pseudo-code prunes against cutoff values
                # only: child i covers [c_{i-1}, c_i] with 0 and infinity
                # at the ends.  Exact, but looser than the true radii.
                lo = np.where(chunk > 0, np.c_[np.zeros(count), cuts], lo)
                hi = np.where(chunk > 0, np.c_[cuts, np.full(count, np.inf)], hi)
            built.append((batch, rows[vp_rows], cuts, lo, hi))
            child = plan.kids[batch]
            inner = chunk > cap
            leaf = (chunk > 0) & ~inner
            leaves.append(
                (child[leaf], chunk[leaf], rest[np.repeat(leaf.ravel(), chunk.ravel())])
            )
            descend = np.repeat(inner.ravel(), chunk.ravel())
            frontier.push(child[inner], chunk[inner], rest[descend], values[descend])
        return plan, built, leaves

    # ------------------------------------------------------------------
    # Range search (paper section 3.3, generalised to m-way)
    # ------------------------------------------------------------------

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
        return kernels.approx_tree_range(self, query, radius, obs=obs)[0]

    # ------------------------------------------------------------------
    # k-nearest-neighbor search (best-first branch and bound, [Chi94])
    # ------------------------------------------------------------------

    def knn_search(
        self,
        query,
        k: int,
        epsilon: float = 0.0,
        *,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
    ) -> list[Neighbor]:
        """Best-first k-NN; ``epsilon > 0`` gives (1+epsilon)-approximate
        results: the reported k-th distance is at most ``(1 + epsilon)``
        times the true k-th distance, with correspondingly more
        aggressive pruning (fewer distance computations)."""
        k = self.validate_k(k)
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        obs = make_observation(stats, trace)
        return kernels.approx_tree_knn(self, query, k, epsilon=epsilon, obs=obs)[0]

    # ------------------------------------------------------------------
    # Farthest search (upper-bound pruning; paper section 2 lists
    # farthest queries among the similarity-query variants)
    # ------------------------------------------------------------------

    def farthest_search(self, query, k: int = 1) -> list[Neighbor]:
        k = self.validate_k(k)
        best: list[tuple[float, int]] = []  # min-heap of k farthest

        def consider(distance: float, idx: int) -> None:
            item = (distance, -idx)
            if len(best) < k:
                heapq.heappush(best, item)
            elif item > best[0]:
                heapq.heapreplace(best, item)

        def threshold() -> float:
            return best[0][0] if len(best) == k else float("-inf")

        counter = itertools.count()
        frontier: list[tuple[float, int, object]] = [
            (float("-inf"), next(counter), self._root)
        ]
        while frontier:
            neg_upper, __, node = heapq.heappop(frontier)
            if node is None or definitely_less(-neg_upper, threshold()):
                continue
            if isinstance(node, VPLeafNode):
                distances = self._batch_dist(
                    None, gather(self._objects, node.ids), query
                )
                for idx, distance in zip(node.ids, distances):
                    consider(float(distance), idx)
                continue
            dq = self._dist(None, query, self._objects[node.vp_id])
            consider(dq, node.vp_id)
            for child, (lo, hi) in zip(node.children, node.bounds):
                if child is None:
                    continue
                child_upper = dq + hi
                if not definitely_less(child_upper, threshold()):
                    heapq.heappush(frontier, (-child_upper, next(counter), child))

        return sorted(
            (Neighbor(d, -i) for d, i in best),
            key=lambda n: (-n.distance, n.id),
        )

    # ------------------------------------------------------------------
    # Outside-range search (the complement query of paper section 2)
    # ------------------------------------------------------------------

    def outside_range_search(self, query, radius: float) -> list[int]:
        radius = self.validate_radius(radius)
        out: list[int] = []
        self._outside(self._root, query, radius, out)
        out.sort()
        return out

    def _outside(self, node, query, radius: float, out: list[int]) -> None:
        """Recursive outside-range walk (depth bounded by tree height)."""
        if node is None:
            return
        if isinstance(node, VPLeafNode):
            distances = self._batch_dist(None, gather(self._objects, node.ids), query)
            out.extend(
                idx for idx, distance in zip(node.ids, distances) if distance > radius
            )
            return
        dq = self._dist(None, query, self._objects[node.vp_id])
        if dq > radius:
            out.append(node.vp_id)
        for child, (lo, hi) in zip(node.children, node.bounds):
            if child is None:
                continue
            upper = dq + hi
            lower = max(dq - hi, lo - dq, 0.0)
            if definitely_less(upper, radius):
                continue  # the whole shell is provably inside the ball
            if definitely_greater(lower, radius):
                # The whole shell is provably outside: report the
                # subtree without a single distance computation.
                _collect_subtree_ids(child, out)
                continue
            self._outside(child, query, radius, out)


def _collect_subtree_ids(node, out: list[int]) -> None:
    """Append every id stored under ``node`` (no distance computations).

    Recursive; depth is bounded by the tree height.
    """
    if node is None:
        return
    if isinstance(node, VPLeafNode):
        out.extend(node.ids)
        return
    out.append(node.vp_id)
    for child in node.children:
        _collect_subtree_ids(child, out)
