"""The multi-vantage-point tree (paper section 4).

Construction follows the paper's algorithm (section 4.2) generalised
from m=2 to arbitrary ``m``:

* **Internal node** (more than ``k + 2`` objects): choose a first
  vantage point, partition the remaining objects into ``m`` spherical
  cuts of equal cardinality by their distance to it; choose the second
  vantage point *from the farthest cut* (step 3.5 — two nearby vantage
  points "would not be able to effectively partition the dataset"),
  partition every cut into ``m`` sub-cuts by distance to it, and recurse
  into the ``m**2`` sub-cuts.  Along the way, each object's distances to
  the first ``p`` vantage points it passes are recorded in its PATH
  array (section 4.1, Observation 2).
* **Leaf node** (at most ``k + 2`` objects): keep a first vantage point,
  the farthest object from it as second vantage point, and the exact
  distances D1/D2 from every remaining object to both.

Search (section 4.3) prunes subtrees whose spherical shells cannot
intersect the query ball and — the structure's signature move — filters
leaf objects through up to ``p + 2`` precomputed distances before paying
for a real distance computation.  Construction costs ``O(n log_m n)``
distance computations, the same as a vp-tree of equal fanout.
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
    slack,
)
from repro.core.nodes import MVPInternalNode, MVPLeafNode
from repro.indexes import kernels
from repro.indexes.base import MetricIndex, Neighbor
from repro.indexes.selection import VantagePointSelector, get_selector
from repro.metric.base import Metric
from repro.obs.stats import QueryStats
from repro.obs.trace import TraceSink, make_observation

_Node = Union[MVPInternalNode, MVPLeafNode, None]


def _cutoff_intervals(
    cutoffs: list, tight: list
) -> list:
    """Replace non-empty partitions' radii with the cutoff intervals the
    paper's pseudo-code prunes against (0 and infinity at the ends)."""
    out = []
    for g, bounds in enumerate(tight):
        if bounds[0] > bounds[1]:  # empty-partition sentinel
            out.append(bounds)
            continue
        lo = 0.0 if g == 0 else cutoffs[g - 1]
        hi = cutoffs[g] if g < len(cutoffs) else float("inf")
        out.append((lo, hi))
    return out


class MVPTree(MetricIndex):
    """Multi-vantage-point tree with parameters ``(m, k, p)``.

    Parameters
    ----------
    objects:
        Dataset to index (held by reference).
    metric:
        Metric distance function.
    m:
        Number of partitions per vantage point.  Every node uses two
        vantage points, so the internal fanout is ``m**2``.  The paper
        found m=3 best for its workloads (section 5.2).
    k:
        Leaf capacity — data points per leaf, *excluding* the leaf's two
        vantage points.  The paper's headline configurations are
        mvpt(3, 9) and mvpt(3, 80); large ``k`` keeps most points in
        leaves where the precomputed-distance filter operates.
    p:
        How many root-path vantage-point distances to keep per leaf
        point.  More history means better filtering at zero query-time
        cost, at ``O(p)`` extra floats per point of storage.
    selector:
        Vantage-point selection strategy (name or instance); the paper
        uses random selection.
    bounds:
        ``"tight"`` (default) prunes against each (sub)partition's
        exact inner/outer radii; ``"cutoff"`` prunes against the
        paper's M1/M2 cutoff values only (0 and infinity at the ends),
        as in the section 4.3 pseudo-code.  Both are exact.
    rng:
        Seed or generator for selection randomness.

    >>> import numpy as np
    >>> from repro.metric import L2
    >>> data = np.random.default_rng(0).random((200, 10))
    >>> tree = MVPTree(data, L2(), m=3, k=9, p=5, rng=1)
    >>> tree.nearest(data[3]).id
    3
    """

    def __init__(
        self,
        objects: Sequence,
        metric: Metric,
        *,
        m: int = 3,
        k: int = 9,
        p: int = 5,
        selector: Union[str, VantagePointSelector] = "random",
        bounds: str = "tight",
        rng: RngLike = None,
    ):
        check_non_empty(objects, "MVPTree")
        if m < 2:
            raise ValueError(f"partition count m must be >= 2, got {m}")
        if k < 1:
            raise ValueError(f"leaf capacity k must be >= 1, got {k}")
        if p < 0:
            raise ValueError(f"path length p must be >= 0, got {p}")
        if bounds not in ("tight", "cutoff"):
            raise ValueError(f"bounds must be 'tight' or 'cutoff', got {bounds!r}")
        super().__init__(objects, metric)
        self.m = m
        self.k = k
        self.p = p
        self.bounds_mode = bounds
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

    def _build(
        self, ids: list[int], paths: np.ndarray, level: int, depth: int
    ) -> _Node:
        """Build a subtree (mutually recursive with ``_build_internal``).

        Recursion depth is bounded by the tree height (each sub-cut is
        strictly smaller), so the default interpreter stack suffices.
        """
        if not ids:
            return None
        self.height = max(self.height, depth)
        if len(ids) <= self.k + 2:
            return self._build_leaf(ids, paths, level)
        return self._build_internal(ids, paths, level, depth)

    def _select(self, candidate_ids: Sequence[int]) -> int:
        return self._selector.select(
            candidate_ids, self._objects, self._metric, self._rng
        )

    def _build_leaf(
        self, ids: list[int], paths: np.ndarray, level: int
    ) -> MVPLeafNode:
        self.node_count += 1
        self.leaf_count += 1
        path_len = min(self.p, level - 1)

        vp1_id = self._select(ids)
        vp1_pos = ids.index(vp1_id)
        rest_ids = ids[:vp1_pos] + ids[vp1_pos + 1 :]
        rest_paths = np.delete(paths, vp1_pos, axis=0)

        if not rest_ids:
            self.vantage_point_count += 1
            empty = np.empty(0)
            return MVPLeafNode(
                vp1_id, None, [], empty, empty, rest_paths[:, :path_len], path_len
            )

        d_to_vp1 = np.asarray(
            self._batch_dist(
                None, gather(self._objects, rest_ids), self._objects[vp1_id]
            )
        )
        # Second vantage point: the farthest object from the first
        # (paper step 2.4) — near-coincident vantage points cannot
        # partition the bucket.
        vp2_pos = int(np.argmax(d_to_vp1))
        vp2_id = rest_ids[vp2_pos]
        point_ids = rest_ids[:vp2_pos] + rest_ids[vp2_pos + 1 :]
        d1 = np.delete(d_to_vp1, vp2_pos)
        point_paths = np.delete(rest_paths, vp2_pos, axis=0)

        if point_ids:
            d2 = np.asarray(
                self._batch_dist(
                    None, gather(self._objects, point_ids), self._objects[vp2_id]
                )
            )
        else:
            d2 = np.empty(0)

        self.vantage_point_count += 2
        self.leaf_data_point_count += len(point_ids)
        return MVPLeafNode(
            vp1_id,
            vp2_id,
            point_ids,
            d1,
            d2,
            point_paths[:, :path_len],
            path_len,
        )

    def _build_internal(
        self, ids: list[int], paths: np.ndarray, level: int, depth: int
    ) -> _Node:
        """Partition into ``m**2`` sub-cuts and recurse via ``_build``.

        Part of the mutually recursive build; depth is bounded by the
        tree height.  Zero-diameter groups come back as leaves.
        """
        m = self.m

        # --- first vantage point and first-level partition -------------
        vp1_id = self._select(ids)
        vp1_pos = ids.index(vp1_id)
        rest_ids = ids[:vp1_pos] + ids[vp1_pos + 1 :]
        rest_paths = np.delete(paths, vp1_pos, axis=0)

        d1 = np.asarray(
            self._batch_dist(
                None, gather(self._objects, rest_ids), self._objects[vp1_id]
            )
        )
        if d1.size and float(d1.max()) == 0.0:
            # Zero-diameter group (by the triangle inequality): every
            # cutoff collapses onto 0 and the m**2 sub-cuts cannot
            # separate identical points.  Fall back to an (oversized)
            # leaf instead of recursing one vantage point at a time.
            return self._build_leaf(ids, paths, level)
        if level <= self.p:
            rest_paths[:, level - 1] = d1

        order = np.argsort(d1, kind="stable")
        groups = [list(g) for g in np.array_split(order, m)]

        cutoffs1: list[float] = []
        for g in range(m - 1):
            if groups[g]:
                cutoffs1.append(float(d1[groups[g][-1]]))
            else:
                cutoffs1.append(cutoffs1[-1] if cutoffs1 else 0.0)

        # --- second vantage point: from the farthest partition ---------
        last = max(g for g in range(m) if groups[g])
        vp2_id = self._select([rest_ids[pos] for pos in groups[last]])
        vp2_pos = rest_ids.index(vp2_id)
        groups[last].remove(vp2_pos)

        remaining = [pos for group in groups for pos in group]
        d2 = np.full(len(rest_ids), np.nan)
        if remaining:
            d2_vals = np.asarray(
                self._batch_dist(
                    None,
                    gather(self._objects, [rest_ids[pos] for pos in remaining]),
                    self._objects[vp2_id],
                )
            )
            d2[remaining] = d2_vals
            if level + 1 <= self.p:
                rest_paths[remaining, level] = d2_vals

        # --- second-level partitions and recursion ----------------------
        bounds1: list[tuple[float, float]] = []
        bounds2: list[list[tuple[float, float]]] = []
        cutoffs2: list[list[float]] = []
        children: list[_Node] = []
        empty_bound = (float("inf"), float("-inf"))

        for group in groups:
            if group:
                group_d1 = d1[group]
                bounds1.append((float(group_d1.min()), float(group_d1.max())))
            else:
                bounds1.append(empty_bound)

            sub_order = sorted(group, key=lambda pos: (d2[pos], pos))
            sub_groups = [list(sg) for sg in np.array_split(np.asarray(sub_order), m)]

            group_cutoffs: list[float] = []
            group_bounds: list[tuple[float, float]] = []
            for j, sub in enumerate(sub_groups):
                if sub:
                    sub_d2 = d2[sub]
                    group_bounds.append((float(sub_d2.min()), float(sub_d2.max())))
                else:
                    group_bounds.append(empty_bound)
                if j < m - 1:
                    if sub:
                        group_cutoffs.append(float(d2[sub[-1]]))
                    else:
                        group_cutoffs.append(
                            group_cutoffs[-1] if group_cutoffs else 0.0
                        )
                children.append(
                    self._build(
                        [rest_ids[int(pos)] for pos in sub],
                        rest_paths[[int(pos) for pos in sub], :],
                        level + 2,
                        depth + 1,
                    )
                )
            bounds2.append(group_bounds)
            cutoffs2.append(group_cutoffs)

        if self.bounds_mode == "cutoff":
            bounds1 = _cutoff_intervals(cutoffs1, bounds1)
            bounds2 = [
                _cutoff_intervals(cutoffs2[i], bounds2[i]) for i in range(m)
            ]

        self.node_count += 1
        self.internal_count += 1
        self.vantage_point_count += 2
        return MVPInternalNode(
            vp1_id, vp2_id, cutoffs1, cutoffs2, bounds1, bounds2, children
        )

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
        return kernels.mvp_range(self, query, radius, obs)

    # ------------------------------------------------------------------
    # k-nearest-neighbor search (best-first generalisation; the paper
    # lists nearest/k-nearest queries in section 2)
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
        return kernels.mvp_knn(self, query, k, 1.0 + epsilon, obs)

    # ------------------------------------------------------------------
    # Farthest search (upper-bound pruning)
    # ------------------------------------------------------------------

    def farthest_search(self, query, k: int = 1) -> list[Neighbor]:
        k = self.validate_k(k)
        best: list[tuple[float, int]] = []  # min-heap of the k farthest

        def consider(distance: float, idx: int) -> None:
            item = (distance, -idx)
            if len(best) < k:
                heapq.heappush(best, item)
            elif item > best[0]:
                heapq.heapreplace(best, item)

        def threshold() -> float:
            return best[0][0] if len(best) == k else float("-inf")

        counter = itertools.count()
        frontier: list[tuple[float, int, _Node, tuple[float, ...], int]] = [
            (float("-inf"), next(counter), self._root, (), 1)
        ]
        while frontier:
            neg_upper, __, node, path_q, level = heapq.heappop(frontier)
            if node is None or definitely_less(-neg_upper, threshold()):
                continue
            dq1 = self._dist(None, query, self._objects[node.vp1_id])
            consider(dq1, node.vp1_id)

            if isinstance(node, MVPLeafNode):
                if node.vp2_id is None:
                    continue
                dq2 = self._dist(None, query, self._objects[node.vp2_id])
                consider(dq2, node.vp2_id)
                self._farthest_scan_leaf(
                    node, query, dq1, dq2, path_q, consider, threshold
                )
                continue

            dq2 = self._dist(None, query, self._objects[node.vp2_id])
            consider(dq2, node.vp2_id)
            child_path = list(path_q)
            if level <= self.p:
                child_path.append(dq1)
            if level + 1 <= self.p:
                child_path.append(dq2)
            child_path_t = tuple(child_path)

            m = self.m
            for i in range(m):
                __, hi1 = node.bounds1[i]
                for j in range(m):
                    child = node.children[i * m + j]
                    if child is None:
                        continue
                    __, hi2 = node.bounds2[i][j]
                    upper = min(dq1 + hi1, dq2 + hi2)
                    if not definitely_less(upper, threshold()):
                        heapq.heappush(
                            frontier,
                            (-upper, next(counter), child, child_path_t, level + 2),
                        )

        return sorted(
            (Neighbor(d, -i) for d, i in best), key=lambda n: (-n.distance, n.id)
        )

    def _farthest_scan_leaf(
        self, node: MVPLeafNode, query, dq1, dq2, path_q, consider, threshold
    ) -> None:
        if not node.ids:
            return
        upper = np.minimum(node.d1 + dq1, node.d2 + dq2)
        if node.path_len:
            path_arr = np.asarray(path_q[: node.path_len])
            upper = np.minimum(upper, np.min(node.paths + path_arr, axis=1))
        for pos in np.argsort(-upper, kind="stable"):
            if definitely_less(float(upper[pos]), threshold()):
                break
            distance = self._dist(None, query, self._objects[node.ids[pos]])
            consider(float(distance), node.ids[pos])

    # ------------------------------------------------------------------
    # Outside-range search (the complement query of paper section 2)
    # ------------------------------------------------------------------

    def outside_range_search(self, query, radius: float) -> list[int]:
        radius = self.validate_radius(radius)
        out: list[int] = []
        path_q = np.full(self.p, np.nan)
        self._outside(self._root, query, radius, path_q, 1, out)
        out.sort()
        return out

    def _outside(
        self,
        node: _Node,
        query,
        radius: float,
        path_q: np.ndarray,
        level: int,
        out: list[int],
    ) -> None:
        """Recursive outside-range walk (depth bounded by tree height)."""
        if node is None:
            return
        dq1 = self._dist(None, query, self._objects[node.vp1_id])
        if dq1 > radius:
            out.append(node.vp1_id)

        if isinstance(node, MVPLeafNode):
            if node.vp2_id is None:
                return
            dq2 = self._dist(None, query, self._objects[node.vp2_id])
            if dq2 > radius:
                out.append(node.vp2_id)
            if not node.ids:
                return
            # Precomputed distances give both bounds per point: accept
            # provably-outside points and drop provably-inside points
            # without computing anything; compute only the borderline.
            lower = np.maximum(np.abs(node.d1 - dq1), np.abs(node.d2 - dq2))
            upper = np.minimum(node.d1 + dq1, node.d2 + dq2)
            if node.path_len:
                window = path_q[: node.path_len]
                lower = np.maximum(
                    lower, np.max(np.abs(node.paths - window), axis=1, initial=0.0)
                )
                upper = np.minimum(upper, np.min(node.paths + window, axis=1))
            accept = lower > radius + slack(radius)
            reject = upper < radius - slack(radius)
            out.extend(node.ids[i] for i in np.nonzero(accept)[0])
            borderline = [
                node.ids[i] for i in np.nonzero(~(accept | reject))[0]
            ]
            if borderline:
                distances = self._batch_dist(
                    None, gather(self._objects, borderline), query
                )
                out.extend(
                    idx
                    for idx, distance in zip(borderline, distances)
                    if distance > radius
                )
            return

        dq2 = self._dist(None, query, self._objects[node.vp2_id])
        if dq2 > radius:
            out.append(node.vp2_id)
        if level <= self.p:
            path_q[level - 1] = dq1
        if level + 1 <= self.p:
            path_q[level] = dq2

        m = self.m
        for i in range(m):
            lo1, hi1 = node.bounds1[i]
            for j in range(m):
                child = node.children[i * m + j]
                if child is None:
                    continue
                lo2, hi2 = node.bounds2[i][j]
                upper = min(dq1 + hi1, dq2 + hi2)
                lower = max(dq1 - hi1, lo1 - dq1, dq2 - hi2, lo2 - dq2, 0.0)
                if definitely_less(upper, radius):
                    continue  # provably entirely inside the ball
                if definitely_greater(lower, radius):
                    _collect_subtree_ids(child, out)
                    continue
                self._outside(child, query, radius, path_q, level + 2, out)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def root(self) -> _Node:
        """The root node (read-only introspection for tests/persistence)."""
        return self._root


def _collect_subtree_ids(node: _Node, out: list[int]) -> None:
    """Append every id stored under ``node`` (no distance computations).

    Recursive; depth is bounded by the tree height.
    """
    if node is None:
        return
    out.append(node.vp1_id)
    if isinstance(node, MVPLeafNode):
        if node.vp2_id is not None:
            out.append(node.vp2_id)
        out.extend(node.ids)
        return
    out.append(node.vp2_id)
    for child in node.children:
        _collect_subtree_ids(child, out)
