"""GNAT — Geometric Near-neighbor Access Tree ([Bri95]; paper section 3.2).

A multi-way structure: ``degree`` split points are chosen to be mutually
far apart, every remaining point joins the dataset of its closest split
point (a Dirichlet/Voronoi-style decomposition), and for every ordered
pair of split points the node records the range ``[min, max]`` of
distances from split point *i* to the members of dataset *j*.  At query
time, computing a single distance ``d(q, split_i)`` lets the triangle
inequality eliminate every dataset whose recorded range cannot intersect
``[d - r, d + r]`` — including datasets whose own split-point distance
was never computed.  This is the trade [Bri95] reports and the paper
recounts: "the preprocessing step of GNAT is more expensive than the
vp-tree, but its search algorithm makes less distance computations".

Split-point counts adapt to dataset cardinality between ``min_degree``
and ``max_degree``, as in [Bri95].  The tree is its flat tables
(:class:`_GNATArrays`), which the searches walk node at a time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional, Sequence

import numpy as np

from repro._util import (
    PRUNE_EPSILON,
    RngLike,
    as_rng,
    check_non_empty,
    definitely_greater,
    gather,
)
from repro.indexes import kernels
from repro.indexes.base import MetricIndex, Neighbor
from repro.metric.base import Metric
from repro.obs.stats import PRUNE_KNN_RADIUS, PRUNE_RANGE_TABLE, QueryStats
from repro.obs.trace import TraceSink, make_observation

_NONE, _INTERNAL, _LEAF = kernels._NONE, kernels._INTERNAL, kernels._LEAF


class _GNATArrays:
    """Flat tables of a GNAT, internal nodes and leaves each numbered in
    preorder.

    Internal node ``n`` has ``node_degree[n]`` split points, a run of
    ``split_ids`` from ``split_offsets[n]``; per split point its child
    as ``(kind, slot)``, the same run of ``child_kind``/``child_idx``;
    and its ``d x d`` range table row-major, a run of
    ``range_lo``/``range_hi`` from ``range_offsets[n]``.  Cell ``(i, j)``
    covers ``d(split_i, x)`` for every ``x`` in dataset ``j`` *including
    split_j itself*, so eliminating ``j`` also certifies that split_j is
    out of range and its distance need never be computed.  Leaves are
    ``leaf_offsets``/``leaf_ids`` runs.  :data:`SECTIONS` are what a
    codec writes.
    """

    SECTIONS = (
        "node_degree",
        "split_offsets",
        "split_ids",
        "range_offsets",
        "range_lo",
        "range_hi",
        "child_kind",
        "child_idx",
        "leaf_offsets",
        "leaf_ids",
    )
    ROOT = ("root_kind", "root_idx")

    __slots__ = (*SECTIONS, *ROOT)


class GNAT(kernels.TableIndex, MetricIndex):
    """Geometric near-neighbor access tree.

    Parameters
    ----------
    degree:
        Target number of split points at the root; children adapt their
        own degree to their cardinality (clamped to
        ``[min_degree, max_degree]``), as in [Bri95].
    min_degree, max_degree:
        Clamp bounds for adaptive degrees.
    leaf_capacity:
        Bucket size below which a node stores points directly.
    candidate_factor:
        [Bri95] samples ``3x`` the wanted number of split points and
        keeps a greedily max-separated subset; this is the ``3``.
    rng:
        Seed or generator.
    """

    _TABLES = _GNATArrays
    _PARAMS = {
        name: name
        for name in (
            "degree",
            "min_degree",
            "max_degree",
            "leaf_capacity",
            "candidate_factor",
        )
    }
    _COUNTERS = ("node_count", "leaf_count", "height")

    def __init__(
        self,
        objects: Sequence,
        metric: Metric,
        *,
        degree: int = 8,
        min_degree: int = 2,
        max_degree: int = 64,
        leaf_capacity: int = 4,
        candidate_factor: int = 3,
        rng: RngLike = None,
    ):
        check_non_empty(objects, "GNAT")
        if degree < 2:
            raise ValueError(f"degree must be >= 2, got {degree}")
        if not 2 <= min_degree <= max_degree:
            raise ValueError(
                f"need 2 <= min_degree <= max_degree, got {min_degree}, {max_degree}"
            )
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        if candidate_factor < 1:
            raise ValueError(f"candidate_factor must be >= 1, got {candidate_factor}")
        super().__init__(objects, metric)
        self.degree = degree
        self.min_degree = min_degree
        self.max_degree = max_degree
        self.leaf_capacity = leaf_capacity
        self.candidate_factor = candidate_factor
        self._rng = as_rng(rng)
        self.node_count = 0
        self.leaf_count = 0
        self.height = 0
        nodes: list = []
        leaves: list = []
        root = self._build(list(range(len(objects))), degree, 1, nodes, leaves)
        splits, lo, hi, kinds, slots = zip(*nodes) if nodes else ((),) * 5
        degrees = [len(ids) for ids in splits]
        tables = _GNATArrays()
        tables.node_degree = np.asarray(degrees, dtype=np.int64)
        tables.split_offsets = kernels._offsets(degrees)
        tables.range_offsets = kernels._offsets([d * d for d in degrees])
        tables.leaf_offsets = kernels._offsets([len(ids) for ids in leaves])
        for name, runs, dtype in (
            ("split_ids", splits, np.int64),
            ("range_lo", lo, np.float64),
            ("range_hi", hi, np.float64),
            ("child_kind", kinds, np.int8),
            ("child_idx", slots, np.int64),
            ("leaf_ids", leaves, np.int64),
        ):
            setattr(tables, name, kernels._concat(list(runs), dtype))
        tables.root_kind, tables.root_idx = root
        self._plant(tables)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _choose_split_points(self, ids: list[int], degree: int) -> list[int]:
        """Greedy max-separated subset of a random candidate sample."""
        n_candidates = min(len(ids), degree * self.candidate_factor)
        candidate_pos = self._rng.choice(len(ids), size=n_candidates, replace=False)
        candidates = [ids[int(pos)] for pos in candidate_pos]
        first = candidates[int(self._rng.integers(len(candidates)))]
        chosen = [first]
        remaining = [c for c in candidates if c != first]
        # min distance from each remaining candidate to the chosen set
        min_dist = np.asarray(
            self._batch_dist(
                None, gather(self._objects, remaining), self._objects[first]
            )
        ) if remaining else np.empty(0)
        while len(chosen) < degree and remaining:
            best = int(np.argmax(min_dist))
            chosen.append(remaining[best])
            newest = self._objects[remaining[best]]
            del remaining[best]
            min_dist = np.delete(min_dist, best)
            if remaining:
                newest_dist = np.asarray(
                    self._batch_dist(None, gather(self._objects, remaining), newest)
                )
                min_dist = np.minimum(min_dist, newest_dist)
        return chosen

    def _build(self, ids: list[int], degree: int, depth: int, nodes, leaves):
        """Recursively build the Voronoi-style decomposition, numbering
        internal nodes (``nodes``: split ids, range table ``lo`` and
        ``hi``, child kinds, child slots) and leaves (``leaves``: ids)
        in preorder; returns the subtree's ``(kind, slot)``, ``(0, -1)``
        when ``ids`` is empty.

        Recursion depth is bounded by the tree height (every child
        dataset is strictly smaller), so the default interpreter stack
        suffices.
        """
        if not ids:
            return _NONE, -1
        self.height = max(self.height, depth)
        self.node_count += 1
        if len(ids) <= self.leaf_capacity:
            return self._leaf(ids, leaves)

        degree = max(self.min_degree, min(degree, self.max_degree, len(ids)))
        split_ids = self._choose_split_points(ids, degree)
        split_set = set(split_ids)
        rest = [i for i in ids if i not in split_set]
        actual_degree = len(split_ids)

        # Distances from every remaining point to every split point; the
        # same matrix serves assignment and the range table, so GNAT's
        # construction pays degree distance computations per point.
        if rest:
            dist = np.stack(
                [
                    np.asarray(
                        self._batch_dist(
                            None, gather(self._objects, rest), self._objects[s]
                        )
                    )
                    for s in split_ids
                ],
                axis=0,
            )  # shape (degree, len(rest))
            assignment = np.argmin(dist, axis=0)
        else:
            dist = np.empty((actual_degree, 0))
            assignment = np.empty(0, dtype=int)

        if rest and float(dist.max()) == 0.0:
            # Zero-diameter group (by the triangle inequality): argmin
            # sends every point to split 0 and the quadratic degree
            # growth turns the tree into a degenerate chain.  Fall back
            # to an (oversized) leaf.
            return self._leaf(ids, leaves)

        # Pairwise split-point distances seed the range table so that
        # cell (i, j) covers split_j itself.
        split_objects = gather(self._objects, split_ids)
        lo = np.zeros((actual_degree, actual_degree))
        for i in range(actual_degree):
            for j in range(i + 1, actual_degree):
                d = self._dist(None, split_objects[i], split_objects[j])
                lo[i, j] = lo[j, i] = d
        hi = lo.copy()
        members = [np.flatnonzero(assignment == j) for j in range(actual_degree)]
        for j, positions in enumerate(members):
            if positions.size:
                member_dist = dist[:, positions]
                lo[:, j] = np.minimum(lo[:, j], member_dist.min(axis=1))
                hi[:, j] = np.maximum(hi[:, j], member_dist.max(axis=1))

        slot = len(nodes)
        nodes.append(None)  # preorder: the node before its children
        total = max(len(rest), 1)
        children = []
        for positions in members:
            child_ids = [rest[pos] for pos in positions.tolist()]
            child_degree = int(
                round(actual_degree * actual_degree * len(child_ids) / total)
            )
            children.append(
                self._build(child_ids, child_degree, depth + 1, nodes, leaves)
            )
        nodes[slot] = (split_ids, lo, hi, *zip(*children))
        return _INTERNAL, slot

    def _leaf(self, ids: list[int], leaves: list) -> tuple[int, int]:
        self.leaf_count += 1
        leaves.append(list(ids))
        return _LEAF, len(leaves) - 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _node(self, tables, slot: int):
        """Internal node ``slot``'s split ids, child kinds and slots,
        and a function from split ``i`` to its range table row (``lo``
        and ``hi`` lists)."""
        start, stop = tables.split_offsets[slot : slot + 2].tolist()
        at, degree = int(tables.range_offsets[slot]), stop - start

        def row(i: int):
            cells = slice(at + i * degree, at + (i + 1) * degree)
            return tables.range_lo[cells].tolist(), tables.range_hi[cells].tolist()

        return (
            tables.split_ids[start:stop].tolist(),
            tables.child_kind[start:stop].tolist(),
            tables.child_idx[start:stop].tolist(),
            row,
        )

    def range_search(
        self,
        query,
        radius: float,
        *,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
    ) -> list[int]:
        """Depth-first, children in split order.  At a node the split
        points are paid in order, and each distance eliminates, through
        its range table row, every dataset whose range cannot meet ``[d
        - r, d + r]``: that dataset's own split point is never paid."""
        radius = self.validate_radius(radius)
        obs = make_observation(stats, trace)
        tables = self._tables()
        out: list[int] = []
        stack = [(tables.root_kind, tables.root_idx)]
        while stack:
            kind, slot = stack.pop()
            if kind == _LEAF:
                ids, distances = kernels.scan_leaf(self, tables, slot, query, obs)
                out.extend(i for i, d in zip(ids, distances) if d <= radius)
                continue
            if obs is not None:
                obs.enter_internal()
            split_ids, kinds, slots, row = self._node(tables, slot)
            degree = len(split_ids)
            alive = [True] * degree
            for i, split in enumerate(split_ids):
                if not alive[i]:
                    continue
                di = self._dist(obs, query, self._objects[split])
                if di <= radius:
                    out.append(split)
                below, above = di - radius, di + radius
                lo, hi = row(i)
                for j in range(degree):
                    if j == i or not alive[j]:
                        continue
                    low, high = lo[j], hi[j]
                    # definitely_greater(d - r, high) or
                    # definitely_less(d + r, low), inlined.
                    if below > high + PRUNE_EPSILON * (
                        1.0 + abs(high)
                    ) or above < low - PRUNE_EPSILON * (1.0 + abs(low)):
                        # Dataset j is eliminated by the range table
                        # alone: its split-point distance is never paid.
                        alive[j] = False
                        if obs is not None:
                            obs.prune(PRUNE_RANGE_TABLE)
            for j in range(degree - 1, -1, -1):
                if alive[j] and kinds[j]:
                    stack.append((kinds[j], slots[j]))
        out.sort()
        return out

    def knn_search(
        self,
        query,
        k: int,
        *,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
    ) -> list[Neighbor]:
        """Best-first over ``(lower bound, insertion order)``.  At a node
        the split points are paid in order, each raising every other
        dataset's bound through its range table row, and a dataset whose
        bound already exceeds the k-th distance has its split point
        skipped."""
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
            split_ids, kinds, slots, row = self._node(tables, slot)
            degree = len(split_ids)
            bounds = [lower_bound] * degree
            for i, split in enumerate(split_ids):
                if definitely_greater(bounds[i], threshold()):
                    # Dataset i is already proven farther than the kth
                    # best; skip the split-point distance entirely (the
                    # range table covers split_i too).
                    continue
                di = self._dist(obs, query, self._objects[split])
                consider(di, split)
                lo, hi = row(i)
                for j in range(degree):
                    if j != i:
                        bounds[j] = max(bounds[j], di - hi[j], lo[j] - di)
            for j, bound in enumerate(bounds):
                if not kinds[j]:
                    continue
                if not definitely_greater(bound, threshold()):
                    heapq.heappush(
                        frontier, (bound, next(counter), kinds[j], slots[j])
                    )
                elif obs is not None:
                    # The range table raised the bound past the kth-best
                    # radius; if it never rose, the radius shrank on its
                    # own (inherited bound no longer clears it).
                    if bound > lower_bound:
                        obs.prune(PRUNE_RANGE_TABLE)
                    else:
                        obs.prune(PRUNE_KNN_RADIUS)

        return sorted(
            (Neighbor(-d, -i) for d, i in best), key=lambda n: (n.distance, n.id)
        )
