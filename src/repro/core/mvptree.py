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

from typing import Sequence, Union

import numpy as np

from repro._util import RngLike
from repro.core.gmvptree import GMVPTree
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
