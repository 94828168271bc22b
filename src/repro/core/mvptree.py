"""The multi-vantage-point tree (paper section 4).

:class:`MVPTree` is the paper's structure: the ``v = 2`` case of
:class:`~repro.core.gmvptree.GMVPTree`, which holds the one build
(section 4.2, generalised from m=2 to arbitrary ``m``):

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

The one difference from ``GMVPTree(v=2)`` is the shells the search
prunes against.  The paper keeps one shell per *region*: the first
vantage point's shell covers a whole first-level cut, shared by its
``m`` sub-cuts.  ``MVPTree`` widens the per-child shells to that layout
(``bounds="tight"``: the region's exact inner/outer radii) or further
to the M1/M2 cutoff intervals (``bounds="cutoff"``), so it pays a few
more distance computations per query than ``GMVPTree(v=2)`` built from
the same seed, whose per-child shells admit a subset of the children.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence, Union

import numpy as np

from repro._util import (
    RngLike,
    definitely_greater,
    definitely_less,
    gather,
    slack,
)
from repro.core.gmvptree import GMVPLeafNode, GMVPTree
from repro.indexes.base import Neighbor
from repro.indexes.selection import VantagePointSelector
from repro.metric.base import Metric


class MVPTree(GMVPTree):
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

    _PARAMS = {**GMVPTree._PARAMS, "bounds": "bounds_mode"}

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
        if bounds not in ("tight", "cutoff"):
            raise ValueError(f"bounds must be 'tight' or 'cutoff', got {bounds!r}")
        self.bounds_mode = bounds
        super().__init__(
            objects, metric, m=m, v=2, k=k, p=p, selector=selector, rng=rng
        )

    def _shells(self, lo, hi, cutoffs):
        """Widen every child's shell around vantage point ``t`` to its
        depth-``t`` region: the region's exact radii (``"tight"``) or
        the cutoff interval (``"cutoff"``; 0 and infinity at the ends).

        Empty children inside a non-empty region share the region's
        shell, so an insertion that later fills them stays inside it.
        Widening widened shells changes nothing.
        """
        m, v = self.m, self.v
        count, fanout = lo.shape[:2]
        lo, hi = lo.copy(), hi.copy()
        first = 0  # vantage point t's first cutoff row
        for t in range(v):
            rows = cutoffs[:, first : first + m**t]
            first += m**t
            width = m ** (v - 1 - t)  # children per partition of vp t
            if width == 1 and self.bounds_mode == "tight":
                continue  # a one-child region's radii are the child's own
            parts = (count, fanout // width, width)
            part_lo, part_hi = lo[..., t].reshape(parts), hi[..., t].reshape(parts)
            filled = (part_lo <= part_hi).any(axis=2, keepdims=True)
            if self.bounds_mode == "cutoff":
                # Partition g of region r lies between its cutoffs.
                end = (count, m**t, 1)
                edges = np.concatenate(
                    (np.zeros(end), rows, np.full(end, np.inf)), axis=2
                )
                shell_lo = edges[..., :-1].reshape(parts[:2] + (1,))
                shell_hi = edges[..., 1:].reshape(parts[:2] + (1,))
            else:
                shell_lo = part_lo.min(axis=2, keepdims=True)
                shell_hi = part_hi.max(axis=2, keepdims=True)
            lo[..., t] = np.where(filled, shell_lo, part_lo).reshape(count, fanout)
            hi[..., t] = np.where(filled, shell_hi, part_hi).reshape(count, fanout)
        return lo, hi

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
        frontier = [(float("-inf"), next(counter), self._root, (), 1)]
        while frontier:
            neg_upper, __, node, path_q, level = heapq.heappop(frontier)
            if node is None or definitely_less(-neg_upper, threshold()):
                continue
            dq = []
            for vp_id in node.vp_ids:
                dq.append(self._dist(None, query, self._objects[vp_id]))
                consider(dq[-1], vp_id)

            if isinstance(node, GMVPLeafNode):
                self._farthest_scan_leaf(
                    node, query, np.asarray(dq), path_q, consider, threshold
                )
                continue

            child_path = path_q + tuple(
                d for t, d in enumerate(dq) if level + t <= self.p
            )
            for child, shells in zip(node.children, node.bounds):
                if child is None:
                    continue
                upper = min(d + hi for d, (__, hi) in zip(dq, shells))
                if not definitely_less(upper, threshold()):
                    heapq.heappush(
                        frontier,
                        (-upper, next(counter), child, child_path, level + self.v),
                    )

        return sorted(
            (Neighbor(d, -i) for d, i in best), key=lambda n: (-n.distance, n.id)
        )

    def _farthest_scan_leaf(
        self, node: GMVPLeafNode, query, dq, path_q, consider, threshold
    ) -> None:
        if not len(node.ids):
            return
        upper = np.min(node.dists + dq[:, None], axis=0)
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
        if self._root is not None:
            self._outside(self._root, query, radius, path_q, 1, out)
        out.sort()
        return out

    def _outside(
        self,
        node,
        query,
        radius: float,
        path_q: np.ndarray,
        level: int,
        out: list[int],
    ) -> None:
        """Recursive outside-range walk (depth bounded by tree height)."""
        dq = np.asarray(
            [self._dist(None, query, self._objects[vp]) for vp in node.vp_ids]
        )
        out.extend(vp for vp, d in zip(node.vp_ids, dq) if d > radius)

        if isinstance(node, GMVPLeafNode):
            if not len(node.ids):
                return
            # Precomputed distances give both bounds per point: accept
            # provably-outside points and drop provably-inside points
            # without computing anything; compute only the borderline.
            lower = np.max(np.abs(node.dists - dq[:, None]), axis=0)
            upper = np.min(node.dists + dq[:, None], axis=0)
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

        for t, d in enumerate(dq):
            if level + t <= self.p:
                path_q[level + t - 1] = d
        for child, shells in zip(node.children, node.bounds):
            if child is None:
                continue
            upper = min(d + hi for d, (__, hi) in zip(dq, shells))
            lower = max(
                max(d - hi, lo - d) for d, (lo, hi) in zip(dq, shells)
            )
            if definitely_less(upper, radius):
                continue  # provably entirely inside the ball
            if definitely_greater(max(lower, 0.0), radius):
                _collect_subtree_ids(child, out)
                continue
            self._outside(child, query, radius, path_q, level + self.v, out)


def _collect_subtree_ids(node, out: list[int]) -> None:
    """Append every id stored under ``node`` (no distance computations).

    Recursive; depth is bounded by the tree height.
    """
    if node is None:
        return
    out.extend(node.vp_ids)
    if isinstance(node, GMVPLeafNode):
        out.extend(node.ids)
        return
    for child in node.children:
        _collect_subtree_ids(child, out)
