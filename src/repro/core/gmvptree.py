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

Construction is level-synchronous (see :mod:`repro.indexes.levels`): a
count-only pass fixes the shape, the selector draws are made in the
recursive order as the passes reach them, each level pass measures all
of its internal nodes against their ``t``-th vantage points in one
segmented metric call per ``t``, and one last set of ``v`` passes
builds every leaf of the tree at once.  The tree is the one a node-at-a-time recursion
builds, node for node.

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
from repro.indexes import kernels, levels
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
        """Build the subtree over ``ids`` (their PATH rows in ``paths``)
        one tree level per pass (see :mod:`repro.indexes.levels`); adds
        it to the node counters and returns its root."""
        ids = np.asarray(ids, dtype=np.intp)
        if not ids.size:
            return None
        paths = np.asarray(paths, dtype=float)
        plan, nodes = levels.build(
            lambda zero: self._grow(ids, paths, level, depth, zero), self._rng
        )
        v = self.v
        internal = np.flatnonzero(plan.split & plan.live)
        leaf_sizes = plan.size[~plan.split & plan.live]
        self.node_count += len(internal) + len(leaf_sizes)
        self.leaf_count += len(leaf_sizes)
        self.internal_count += len(internal)
        self.vantage_point_count += v * len(internal)
        self.vantage_point_count += int(np.minimum(leaf_sizes, v).sum())
        self.leaf_data_point_count += int(np.maximum(leaf_sizes - v, 0).sum())
        self.height = max(self.height, int(plan.depth[plan.live].max()))
        kids, fanout = plan.kids[internal].ravel().tolist(), self.m**v
        for at, node in enumerate(internal.tolist()):
            children = kids[at * fanout : (at + 1) * fanout]
            nodes[node].children = [nodes.get(kid) for kid in children]
        return nodes[0]

    def _plan(self, n: int, depth: int, zero: set) -> levels.Plan:
        """Count-only pass (paper section 4.2's shape).  A group of more
        than ``k + v`` points draws once per vantage point: the first
        over the whole group, each later one over the last non-empty
        region of the partition so far (step 3.5).  A leaf draws its
        first vantage point; the rest are max-min picks without
        randomness.  A zero-diameter group makes its first draw, then
        its leaf's."""
        m, v = self.m, self.v

        def split(sizes):
            rows = np.arange(len(sizes))
            regions = sizes[:, None]
            draws = np.empty((len(sizes), v), dtype=np.intp)
            for t in range(v):
                donor = regions.shape[1] - 1 - np.argmax(regions[:, ::-1] > 0, axis=1)
                draws[:, t] = regions[rows, donor]
                regions = regions.copy()
                regions[rows, donor] -= 1
                regions = levels.split_sizes(regions.ravel(), m).reshape(
                    len(sizes), regions.shape[1] * m
                )
            return draws, regions

        return levels.Plan(
            n, depth, self.k + v, split, 1, 2, zero, self._selector, self._rng
        )

    def _grow(self, ids, paths, level: int, depth: int, zero: set):
        """The level passes: returns the plan and every node by preorder
        index (internal nodes still without children).  Raises
        :class:`~repro.indexes.levels.Replan` when a zero-diameter group
        turns up after draws that depend on it."""
        m, v, p, limit = self.m, self.v, self.p, self.k + self.v
        fanout = m**v
        plan = self._plan(len(ids), depth, zero)
        base = level - v * depth  # the level of depth 0
        # Every row is a position in ``ids``; the passes fill in its
        # PATH entries in place.
        paths = paths.copy()
        rows = np.arange(len(ids))
        if len(ids) <= limit:
            root = [(np.zeros(1, dtype=np.intp), np.array([len(ids)]), rows)]
            return plan, self._grow_leaves(plan, root, ids, paths, base)
        nodes: dict = {}
        # Leaves to build, in blocks: (preorder indices, sizes, the
        # leaves' rows back to back).
        leaves: list = []
        # The groups of more than k + v points still to split.
        # Every zero-diameter group moves later draws: its leaf draws
        # again.
        frontier = levels.Frontier(rows, limit)
        while frontier.nodes.size:
            batch, b_rows, sizes = frontier.take()
            count = len(batch)
            whole = b_rows
            seg = np.repeat(np.arange(count), sizes)
            pos = np.arange(len(b_rows))  # ties keep the group's order
            grp = np.zeros(len(b_rows), dtype=np.intp)
            cols: list[np.ndarray] = []  # per vantage point: distances
            cutoffs: list[np.ndarray] = []  # per vantage point: (regions, m - 1)
            vps: list[np.ndarray] = []
            for t in range(v):
                regions = m**t
                key = seg * regions + grp
                seg_starts = levels.offsets(np.bincount(seg, minlength=count))
                # The donor region: the last non-empty one (step 3.5).
                donor = np.searchsorted(key, key[seg_starts[1:] - 1])
                chosen = levels.pick(
                    self,
                    self._selector,
                    plan.draws(batch, t),
                    ids[b_rows],
                    donor,
                    seg_starts[1:] - donor,
                )
                vps.append(ids[b_rows[chosen]])
                keep = np.ones(len(b_rows), dtype=bool)
                keep[chosen] = False
                b_rows, seg, pos, grp = b_rows[keep], seg[keep], pos[keep], grp[keep]
                cols = [col[keep] for col in cols]
                seg_starts = seg_starts - np.arange(count + 1)
                distances = np.asarray(
                    self._segment_dist(
                        gather(self._objects, ids[b_rows]),
                        seg_starts,
                        gather(self._objects, vps[t]),
                    ),
                    dtype=float,
                )
                if t == 0:
                    flat = np.maximum.reduceat(distances, seg_starts[:-1]) == 0.0
                    if flat.any():
                        # Zero-diameter groups (by the triangle
                        # inequality): every cutoff collapses onto 0 and
                        # no shell can separate identical points, so
                        # each becomes one (oversized) leaf.
                        for node in batch[flat].tolist():
                            plan.flatten(node)
                        gone = np.repeat(flat, sizes)
                        leaves.append((batch[flat], sizes[flat], whole[gone]))
                        live = ~flat[seg]
                        batch, vps[0] = batch[~flat], vps[0][~flat]
                        count = len(batch)
                        seg = np.cumsum(~flat)[seg[live]] - 1
                        b_rows, pos, grp = b_rows[live], pos[live], grp[live]
                        distances = distances[live]
                        if not count:
                            break
                # PATH entries: the first p vantage points on the path.
                at = base + v * plan.depth[batch][seg] + t
                write = at <= p
                paths[b_rows[write], at[write] - 1] = distances[write]
                cols.append(distances)
                # Refine every region into m sub-regions by this
                # vantage point's distance.
                key = seg * regions + grp
                order = np.lexsort((pos, distances, key))
                b_rows, seg, pos = b_rows[order], seg[order], pos[order]
                grp, key = grp[order], key[order]
                cols = [col[order] for col in cols]
                region_sizes = np.bincount(key, minlength=count * regions)
                region_starts = levels.offsets(region_sizes)[:-1]
                rank = np.arange(len(key)) - region_starts[key]
                cutoffs.append(
                    levels.chunk_cutoffs(
                        cols[t], region_starts, levels.split_sizes(region_sizes, m)
                    )
                )
                grp = grp * m + levels.chunk_of(rank, region_sizes[key], m)
            if count:
                child_sizes = np.bincount(seg * fanout + grp, minlength=count * fanout)
                child_starts = levels.offsets(child_sizes)[:-1]
                filled = child_sizes > 0
                lo = np.full((count * fanout, v), np.inf)
                hi = np.full((count * fanout, v), -np.inf)
                for t, col in enumerate(cols):
                    lo[filled, t] = np.minimum.reduceat(col, child_starts[filled])
                    hi[filled, t] = np.maximum.reduceat(col, child_starts[filled])
                # Flat lists, sliced per node: no container per row.
                pairs = list(zip(lo.ravel().tolist(), hi.ravel().tolist()))
                rings = [cut.ravel().tolist() for cut in cutoffs]
                vp_at = np.array(vps).T.ravel().tolist()
                for b, node in enumerate(batch.tolist()):
                    cuts = [
                        [
                            ring[r * (m - 1) : (r + 1) * (m - 1)]
                            for r in range(b * m**t, (b + 1) * m**t)
                        ]
                        for t, ring in enumerate(rings)
                    ]
                    shells = [
                        pairs[c * v : c * v + v]
                        for c in range(b * fanout, (b + 1) * fanout)
                    ]
                    bounds = self._shells(shells, cuts)
                    vp_ids = vp_at[b * v : b * v + v]
                    nodes[node] = GMVPInternalNode(vp_ids, cuts, bounds, None)
                child = plan.kids[batch].ravel()
                inner = child_sizes > limit
                small = filled & ~inner
                small_rows = b_rows[np.repeat(small, child_sizes)]
                leaves.append((child[small], child_sizes[small], small_rows))
                descend = np.repeat(inner, child_sizes)
                frontier.push(
                    child[inner],
                    child_sizes[inner],
                    b_rows[descend],
                    *(col[descend] for col in reversed(cols)),
                )
            else:
                empty = np.zeros(0, dtype=np.intp)
                frontier.push(empty, empty, empty, np.zeros(0))
        nodes.update(self._grow_leaves(plan, leaves, ids, paths, base))
        return plan, nodes

    def _grow_leaves(
        self, plan: levels.Plan, leaves: list, ids, paths, base: int
    ) -> dict:
        """Build every leaf at once, one pass per vantage point: the
        first selector-chosen, each later one the point farthest from
        those chosen (max-min; at ``v = 2`` the paper's "farthest point
        from the first vantage point"), each pass paying every leaf's
        distances to its newest vantage point.

        ``leaves`` holds blocks of (preorder indices, sizes, rows) with
        rows indexing ``ids`` and ``paths``; a leaf at depth ``d`` sits
        at level ``base + v * d``.
        """
        v, p = self.v, self.p
        order, left, rows = (np.concatenate(part) for part in zip(*leaves))
        vps = np.full((len(order), v), -1, dtype=np.intp)
        picked = np.zeros(len(order), dtype=np.intp)
        cols: list[np.ndarray] = []
        nearest = np.zeros(0)
        for t in range(v):
            live = np.flatnonzero(left > 0)
            if not live.size:
                break
            starts = (np.cumsum(left) - left)[live]
            if t == 0:
                # The first vantage point: the leaf's own (last) draw.
                draws = plan.draws(order[live], -1)
                chosen = levels.pick(
                    self, self._selector, draws, ids[rows], starts, left[live]
                )
            else:
                top = np.maximum.reduceat(nearest, starts)
                hit = np.flatnonzero(nearest == np.repeat(top, left[live]))
                chosen = hit[np.searchsorted(hit, starts)]
            vps[live, t] = ids[rows[chosen]]
            picked[live] += 1
            left[live] -= 1
            keep = np.ones(len(rows), dtype=bool)
            keep[chosen] = False
            rows = rows[keep]
            cols = [col[keep] for col in cols]
            if not rows.size:
                break
            has = np.flatnonzero(left > 0)
            distances = np.asarray(
                self._segment_dist(
                    gather(self._objects, ids[rows]),
                    np.r_[(np.cumsum(left) - left)[has], len(rows)],
                    gather(self._objects, vps[has, t]),
                ),
                dtype=float,
            )
            nearest = distances if t == 0 else np.minimum(nearest[keep], distances)
            cols.append(distances)
        # A leaf has a distance row per vantage point chosen while points
        # were left, so ``picked - 1`` rows once it ran out.
        counts = np.where(left > 0, len(cols), np.maximum(picked - 1, 0)).tolist()
        table = np.array(cols).reshape(len(cols), len(rows))
        leaf_paths = paths[rows]
        starts = (np.cumsum(left) - left).tolist()
        path_lens = np.minimum(p, base + v * plan.depth[order] - 1).tolist()
        ids_list = ids[rows].tolist()
        vp_at = vps.ravel().tolist()
        built = {}
        for at, node, n, start, size, rows_i, path_len in zip(
            range(0, len(vp_at), v),
            order.tolist(),
            picked.tolist(),
            starts,
            left.tolist(),
            counts,
            path_lens,
        ):
            built[node] = GMVPLeafNode(
                vp_at[at : at + n],
                ids_list[start : start + size],
                table[:rows_i, start : start + size],
                leaf_paths[start : start + size, :path_len],
                path_len,
            )
        return built

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
