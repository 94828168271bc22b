"""Generalized mvp-tree with ``v`` vantage points per node.

The paper (section 4.2) notes in passing: "The mvp-tree construction
can be modified easily so that more than 2 vantage points can be kept
in one node."  This module carries that modification out: a
:class:`GMVPTree` node holds ``v >= 2`` vantage points, each partitioning
every region produced by its predecessors into ``m`` spherical cuts,
for an internal fanout of ``m ** v``.  The trade generalises the one
between vp-trees and mvp-trees: more vantage points per node mean a
shorter tree and fewer *distinct* vantage points overall, but every
visited node costs ``v`` distance computations, so very large ``v``
eventually overpays at nodes whose regions the search barely grazes.

Vantage-point selection inside a node follows the paper's spirit
(step 3.5 / 2.4: pick the next vantage point far from the previous
ones): the first is selector-chosen; each subsequent internal vantage
point comes from the *farthest* region of the preceding partition, and
each subsequent leaf vantage point maximises the minimum distance to
the vantage points already chosen.

``GMVPTree(v=2)`` matches :class:`~repro.core.mvptree.MVPTree`
semantics; the classic structure remains the reference implementation,
and this class supports the ``v`` ablation
(``benchmarks/bench_ablation_vantage_count.py``).  Range and k-NN
queries are provided (the variants beyond the paper's evaluation —
farthest/outside-range — live on the classic classes).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro._util import RngLike, as_rng, check_non_empty, gather
from repro.indexes import kernels
from repro.indexes.base import MetricIndex, Neighbor
from repro.indexes.selection import VantagePointSelector, get_selector
from repro.metric.base import Metric
from repro.obs.stats import QueryStats
from repro.obs.trace import TraceSink, make_observation


class GMVPInternalNode:
    """``v`` vantage points, ``m**v`` children, per-child shell bounds.

    ``bounds[c][t] = (lo, hi)`` brackets ``d(x, vp_t)`` for every ``x``
    in child ``c``; child indices enumerate the nested partition in
    lexicographic digit order (first vantage point = most significant
    digit).
    """

    __slots__ = ("vp_ids", "bounds", "children")

    def __init__(self, vp_ids, bounds, children):
        self.vp_ids = vp_ids
        self.bounds = bounds
        self.children = children


class GMVPLeafNode:
    """Up to ``v`` vantage points and a bucket with per-vp distances.

    ``dists[t][i]`` is the construction-time distance from bucket point
    ``i`` to the leaf's t-th vantage point (the generalisation of the
    paper's D1/D2 arrays); ``paths`` holds the ancestor PATH prefixes.
    """

    __slots__ = ("vp_ids", "ids", "dists", "paths", "path_len")

    def __init__(self, vp_ids, ids, dists, paths, path_len):
        self.vp_ids = vp_ids
        self.ids = ids
        self.dists = dists
        self.paths = paths
        self.path_len = path_len


_Node = Union[GMVPInternalNode, GMVPLeafNode, None]


class GMVPTree(MetricIndex):
    """Generalized multi-vantage-point tree with parameters (m, v, k, p).

    Parameters
    ----------
    m:
        Partitions per vantage point.
    v:
        Vantage points per node (>= 2); internal fanout is ``m ** v``.
    k:
        Leaf capacity, excluding the leaf's vantage points.
    p:
        Root-path distances kept per leaf point.
    selector, rng:
        As for the other trees.

    >>> import numpy as np
    >>> from repro.metric import L2
    >>> data = np.random.default_rng(0).random((300, 8))
    >>> tree = GMVPTree(data, L2(), m=2, v=3, k=10, p=6, rng=1)
    >>> tree.nearest(data[5]).id
    5
    """

    def __init__(
        self,
        objects: Sequence,
        metric: Metric,
        *,
        m: int = 2,
        v: int = 3,
        k: int = 10,
        p: int = 6,
        selector: Union[str, VantagePointSelector] = "random",
        rng: RngLike = None,
    ):
        check_non_empty(objects, "GMVPTree")
        if m < 2:
            raise ValueError(f"partition count m must be >= 2, got {m}")
        if v < 2:
            raise ValueError(f"vantage point count v must be >= 2, got {v}")
        if k < 1:
            raise ValueError(f"leaf capacity k must be >= 1, got {k}")
        if p < 0:
            raise ValueError(f"path length p must be >= 0, got {p}")
        super().__init__(objects, metric)
        self.m = m
        self.v = v
        self.k = k
        self.p = p
        self._selector = get_selector(selector)
        self._rng = as_rng(rng)

        self.node_count = 0
        self.leaf_count = 0
        self.internal_count = 0
        self.vantage_point_count = 0
        self.leaf_data_point_count = 0
        self.height = 0

        ids = list(range(len(objects)))
        paths = np.full((len(ids), p), np.nan)
        self._root = self._build(ids, paths, level=1, depth=1)
        self._kernel_cache = None  # flat arrays, built lazily on first search

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self, ids, paths, level: int, depth: int) -> _Node:
        """Build a subtree (mutually recursive with ``_build_internal``).

        Recursion depth is bounded by the tree height, so the default
        interpreter stack suffices.
        """
        if not ids:
            return None
        self.height = max(self.height, depth)
        if len(ids) <= self.k + self.v:
            return self._build_leaf(ids, paths, level)
        return self._build_internal(ids, paths, level, depth)

    def _select(self, candidate_ids) -> int:
        return self._selector.select(
            candidate_ids, self._objects, self._metric, self._rng
        )

    def _build_leaf(self, ids, paths, level: int) -> GMVPLeafNode:
        self.node_count += 1
        self.leaf_count += 1
        path_len = min(self.p, level - 1)

        rest_ids = list(ids)
        rest_paths = paths
        vp_ids: list[int] = []
        dist_rows: list[np.ndarray] = []  # distances of current rest to each vp
        min_to_chosen: Optional[np.ndarray] = None

        while len(vp_ids) < self.v and rest_ids:
            if not vp_ids:
                vp_id = self._select(rest_ids)
                position = rest_ids.index(vp_id)
            else:
                # Farthest-from-the-chosen (max-min) — the
                # generalisation of the paper's "farthest point from the
                # first vantage point" rule.
                position = int(np.argmax(min_to_chosen))
                vp_id = rest_ids[position]
            vp_ids.append(vp_id)
            self.vantage_point_count += 1
            del rest_ids[position]
            rest_paths = np.delete(rest_paths, position, axis=0)
            dist_rows = [np.delete(row, position) for row in dist_rows]
            if min_to_chosen is not None:
                min_to_chosen = np.delete(min_to_chosen, position)
            if not rest_ids:
                break
            distances = np.asarray(
                self._batch_dist(
                    None, gather(self._objects, rest_ids), self._objects[vp_id]
                )
            )
            dist_rows.append(distances)
            min_to_chosen = (
                distances
                if min_to_chosen is None
                else np.minimum(min_to_chosen, distances)
            )

        dists = (
            np.stack(dist_rows) if dist_rows else np.empty((0, len(rest_ids)))
        )
        self.leaf_data_point_count += len(rest_ids)
        return GMVPLeafNode(
            vp_ids, rest_ids, dists, rest_paths[:, :path_len], path_len
        )

    def _build_internal(self, ids, paths, level: int, depth: int) -> GMVPInternalNode:
        """Nested-partition internal node; recurses via ``_build``.

        Part of the mutually recursive build; depth is bounded by the
        tree height.
        """
        m, v = self.m, self.v
        rest_ids = list(ids)
        rest_paths = paths

        vp_ids: list[int] = []
        dist_matrix: list[np.ndarray] = []  # per vp: distances over rest
        # groups: nested partition as a list of position-lists in child
        # (digit-lexicographic) order; refined by each vantage point.
        groups: list[list[int]] = [list(range(len(rest_ids)))]

        for t in range(v):
            if t == 0:
                vp_id = self._select(rest_ids)
            else:
                # From the farthest region of the preceding partition
                # (the generalisation of paper step 3.5).
                donor = max(
                    (g for g in range(len(groups)) if groups[g]),
                    key=lambda g: g,
                )
                vp_id = self._select([rest_ids[pos] for pos in groups[donor]])
            vp_ids.append(vp_id)
            self.vantage_point_count += 1

            # Remove the vantage point from the working set.
            position = rest_ids.index(vp_id)
            rest_ids.pop(position)
            rest_paths = np.delete(rest_paths, position, axis=0)
            dist_matrix = [np.delete(row, position) for row in dist_matrix]
            groups = [
                [pos - 1 if pos > position else pos for pos in g if pos != position]
                for g in groups
            ]

            if rest_ids:
                distances = np.asarray(
                    self._batch_dist(
                        None, gather(self._objects, rest_ids), self._objects[vp_id]
                    )
                )
            else:
                distances = np.empty(0)
            dist_matrix.append(distances)
            if level + t <= self.p and len(rest_ids):
                rest_paths[:, level + t - 1] = distances

            # Refine every group into m sub-groups by this vp's distance.
            refined: list[list[int]] = []
            for group in groups:
                ordered = sorted(group, key=lambda pos: (distances[pos], pos))
                refined.extend(
                    [list(chunk) for chunk in np.array_split(np.asarray(ordered), m)]
                )
            groups = [
                [int(pos) for pos in group] for group in refined
            ]

        # Bounds and children per final group.
        empty_bound = (float("inf"), float("-inf"))
        bounds: list[list[tuple[float, float]]] = []
        children: list[_Node] = []
        for group in groups:
            child_bounds = []
            for t in range(v):
                if group:
                    values = dist_matrix[t][group]
                    child_bounds.append(
                        (float(values.min()), float(values.max()))
                    )
                else:
                    child_bounds.append(empty_bound)
            bounds.append(child_bounds)
            children.append(
                self._build(
                    [rest_ids[pos] for pos in group],
                    rest_paths[group, :] if group else rest_paths[:0, :],
                    level + v,
                    depth + 1,
                )
            )

        self.node_count += 1
        self.internal_count += 1
        return GMVPInternalNode(vp_ids, bounds, children)

    # ------------------------------------------------------------------
    # Range search
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
        return kernels.gmvp_range(self, query, radius, obs)

    # ------------------------------------------------------------------
    # k-NN search
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
        """Best-first k-NN, optionally (1+epsilon)-approximate."""
        k = self.validate_k(k)
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        obs = make_observation(stats, trace)
        return kernels.gmvp_knn(self, query, k, 1.0 + epsilon, obs)

    @property
    def root(self) -> _Node:
        """The root node (read-only introspection)."""
        return self._root
