"""The multi-vantage-point tree with ``v`` vantage points per node.

The paper (section 4.2) notes in passing: "The mvp-tree construction
can be modified easily so that more than 2 vantage points can be kept
in one node."  This module carries that modification out, and it is the
only multi-vantage build and node layout in the package: a
:class:`GMVPTree` node holds ``v >= 2`` vantage points, each
partitioning every region produced by its predecessors into ``m``
spherical cuts, for an internal fanout of ``m ** v``.  The paper's own
structure is the ``v = 2`` case, :class:`~repro.core.mvptree.MVPTree`.
The trade generalises the one between vp-trees and mvp-trees: more
vantage points per node mean a shorter tree and fewer *distinct*
vantage points overall, but every visited node costs ``v`` distance
computations, so very large ``v`` eventually overpays at nodes whose
regions the search barely grazes
(``benchmarks/bench_ablation_vantage_count.py``).

Vantage-point selection inside a node follows the paper's step 3.5 /
2.4 (pick the next vantage point far from the previous ones): the first
is selector-chosen; each subsequent internal vantage point comes from
the *farthest* region of the preceding partition, and each subsequent
leaf vantage point maximises the minimum distance to the vantage points
already chosen (at ``v = 2``: the farthest object from the first).

Every internal node records, per vantage point ``t``, the ``m - 1``
cutoffs of each of the ``m**t`` regions it refines (the paper's M1 and
M2 arrays at ``v = 2``) and a per-child shell ``bounds[c][t]``.  The
search kernels prune against ``bounds`` only; which shells they hold is
the class's choice (:meth:`GMVPTree._shells`).
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

#: Shell of an empty partition: no distance can fall inside it.
EMPTY_SHELL = (float("inf"), float("-inf"))


class GMVPInternalNode:
    """``v`` vantage points, ``m**v`` children, cutoffs and shells.

    ``cutoffs[t]`` holds ``m**t`` rows of ``m - 1`` boundary distances:
    row ``r`` splits region ``r`` (the children whose first ``t``
    digits spell ``r``) by distance to ``vp_ids[t]``.  At ``v = 2``,
    ``cutoffs[0][0]`` is the paper's M1 and ``cutoffs[1][i]`` its
    ``M2[i]``.  ``bounds[c][t] = (lo, hi)`` brackets ``d(x, vp_t)`` for
    every ``x`` in child ``c``; child indices enumerate the nested
    partition in lexicographic digit order (first vantage point = most
    significant digit).  Empty children are ``None``.
    """

    __slots__ = ("vp_ids", "cutoffs", "bounds", "children")

    def __init__(self, vp_ids, cutoffs, bounds, children):
        self.vp_ids = vp_ids
        self.cutoffs = cutoffs
        self.bounds = bounds
        self.children = children


class GMVPLeafNode:
    """Up to ``v`` vantage points and a bucket with per-vp distances.

    ``dists[t][i]`` is the construction-time distance from bucket point
    ``i`` to the leaf's t-th vantage point (the paper's D1/D2 arrays at
    ``v = 2``); ``paths[i, s]`` is point ``i``'s distance to the s-th
    vantage point on the root path (the paper's PATH array), of which
    ``path_len = min(p, vantage points above this leaf)`` are kept.
    """

    __slots__ = ("vp_ids", "ids", "dists", "paths", "path_len")

    def __init__(self, vp_ids, ids, dists, paths, path_len):
        self.vp_ids = vp_ids
        self.ids = ids
        self.dists = dists
        self.paths = paths
        self.path_len = path_len


_Node = Union[GMVPInternalNode, GMVPLeafNode, None]


def _split_cutoffs(chunks, distances) -> list[float]:
    """The ``m - 1`` boundary distances of one region's partition (an
    empty chunk repeats the previous cutoff, 0 at the start)."""
    row: list[float] = []
    for chunk in chunks[:-1]:
        if len(chunk):
            row.append(float(distances[chunk[-1]]))
        else:
            row.append(row[-1] if row else 0.0)
    return row


class GMVPTree(MetricIndex):
    """Multi-vantage-point tree with parameters (m, v, k, p).

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

    #: Subclasses that grow by insertion may start from no objects.
    _empty_ok = False

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
        if not self._empty_ok:
            check_non_empty(objects, type(self).__name__)
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
    # Construction (paper section 4.2)
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
            keep = np.arange(len(rest_ids) + 1) != position
            rest_paths = rest_paths[keep]
            dist_rows = [row[keep] for row in dist_rows]
            if min_to_chosen is not None:
                min_to_chosen = min_to_chosen[keep]
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

    def _build_internal(self, ids, paths, level: int, depth: int) -> _Node:
        """Nested-partition internal node; recurses via ``_build``.

        Part of the mutually recursive build; depth is bounded by the
        tree height.  A zero-diameter group comes back as one leaf.
        """
        m, v = self.m, self.v
        rest_ids = list(ids)
        rest_paths = paths

        vp_ids: list[int] = []
        dist_matrix: list[np.ndarray] = []  # per vp: distances over rest
        cutoffs: list[list[list[float]]] = []
        # groups: nested partition as position arrays in child
        # (digit-lexicographic) order; refined by each vantage point.
        groups: list[np.ndarray] = [np.arange(len(rest_ids))]

        for t in range(v):
            if t == 0:
                vp_id = self._select(rest_ids)
            else:
                # From the farthest region of the preceding partition
                # (paper step 3.5).
                donor = max(g for g in range(len(groups)) if groups[g].size)
                vp_id = self._select([rest_ids[pos] for pos in groups[donor]])
            vp_ids.append(vp_id)

            # Remove the vantage point from the working set.
            position = rest_ids.index(vp_id)
            rest_ids.pop(position)
            keep = np.arange(len(rest_ids) + 1) != position
            rest_paths = rest_paths[keep]
            dist_matrix = [row[keep] for row in dist_matrix]
            groups = [(g - (g > position))[g != position] for g in groups]

            distances = np.asarray(
                self._batch_dist(
                    None, gather(self._objects, rest_ids), self._objects[vp_id]
                )
            )
            if t == 0 and float(distances.max()) == 0.0:
                # Zero-diameter group (by the triangle inequality): every
                # cutoff collapses onto 0 and no shell can separate
                # identical points.  Fall back to an (oversized) leaf
                # instead of recursing one vantage point at a time.
                return self._build_leaf(ids, paths, level)
            dist_matrix.append(distances)
            if level + t <= self.p:
                rest_paths[:, level + t - 1] = distances

            # Refine every group into m sub-groups by this vp's distance
            # (ties broken by position).
            refined: list[np.ndarray] = []
            rows: list[list[float]] = []
            for group in groups:
                ordered = group[np.lexsort((group, distances[group]))]
                chunks = np.array_split(ordered, m)
                rows.append(_split_cutoffs(chunks, distances))
                refined.extend(chunks)
            cutoffs.append(rows)
            groups = refined

        # Per-child shells and children.
        bounds: list[list[tuple[float, float]]] = []
        children: list[_Node] = []
        for group in groups:
            if group.size:
                member_rows = [row[group] for row in dist_matrix]
                bounds.append(
                    [(float(r.min()), float(r.max())) for r in member_rows]
                )
            else:
                bounds.append([EMPTY_SHELL] * v)
            children.append(
                self._build(
                    [rest_ids[pos] for pos in group],
                    rest_paths[group, :],
                    level + v,
                    depth + 1,
                )
            )

        self.node_count += 1
        self.internal_count += 1
        self.vantage_point_count += v
        return GMVPInternalNode(
            vp_ids, cutoffs, self._shells(bounds, cutoffs), children
        )

    def _shells(self, bounds, cutoffs):
        """The shells the search prunes against: here, the per-child
        ``(lo, hi)`` of every vantage point, the tightest exact choice."""
        return bounds

    # ------------------------------------------------------------------
    # Range search (paper section 4.3)
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
        return kernels.approx_tree_range(self, "gmvpt", query, radius, obs=obs)[0]

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
        """Best-first k-NN; ``epsilon > 0`` gives (1+epsilon)-approximate
        results: the reported k-th distance is at most ``(1 + epsilon)``
        times the true k-th distance, with correspondingly more
        aggressive pruning (fewer distance computations)."""
        k = self.validate_k(k)
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        obs = make_observation(stats, trace)
        return kernels.approx_tree_knn(
            self, "gmvpt", query, k, epsilon=epsilon, obs=obs
        )[0]

    @property
    def root(self) -> _Node:
        """The root node (read-only introspection for tests/persistence)."""
        return self._root
