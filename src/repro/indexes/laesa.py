"""LAESA: pivot-table index with linear memory ([SW90] lineage).

The paper's critique of the full O(n^2) distance table — "the space
requirements and the search complexity becomes overwhelming for larger
domains" — has a classic practical answer: keep the pre-computed
distances to only ``n_pivots`` fixed reference objects (a table of
``n x n_pivots``), and bound every object's query distance through the
pivots:

    ``d(q, x) >= max_i | d(q, p_i) - d(x, p_i) |``

At query time the ``n_pivots`` pivot distances are computed once, the
lower bounds for all objects fall out of the table with no further
metric evaluations, and only objects whose bound does not clear the
radius are refined.  This is the linear-memory middle ground between
the paper's tree structures (which pay one distance per *visited node*)
and the full matrix (which pays nothing but quadratic construction):
construction costs exactly ``n_pivots`` distances per object, searches
cost ``n_pivots + |candidates|``.

Pivots are chosen max-min separated (mutually far apart), the same
heuristic GNAT uses for split points — distant pivots give the
tightest bounds.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro._util import (
    RngLike,
    as_rng,
    check_non_empty,
    gather,
    slack,
)
from repro.indexes import kernels
from repro.indexes.base import MetricIndex, Neighbor
from repro.metric.base import Metric
from repro.obs.stats import PRUNE_KNN_RADIUS, PRUNE_PIVOT_FILTER, QueryStats
from repro.obs.trace import TraceSink, make_observation


class _LAESATables:
    """The pivots (``pivot_ids``) and the ``n x n_pivots`` distance
    ``table``; no root.  :data:`SECTIONS` are what a codec writes."""

    SECTIONS = ("pivot_ids", "table")
    ROOT = ()

    __slots__ = SECTIONS


class LAESA(kernels.TableIndex, MetricIndex):
    """Pivot-table index (Linear AESA).

    Parameters
    ----------
    objects, metric:
        Dataset and metric, as for every index.
    n_pivots:
        Number of reference objects; the table stores ``n x n_pivots``
        distances.  More pivots tighten the bounds (fewer refinements)
        at proportional construction and per-query cost.
    rng:
        Seed or generator for the initial random pivot.

    >>> import numpy as np
    >>> from repro.metric import L2
    >>> data = np.random.default_rng(0).random((200, 8))
    >>> index = LAESA(data, L2(), n_pivots=8, rng=1)
    >>> index.nearest(data[11]).id
    11
    """

    _TABLES = _LAESATables
    _PARAMS = {"n_pivots": "n_pivots"}
    _COUNTERS = ()

    def __init__(
        self,
        objects: Sequence,
        metric: Metric,
        *,
        n_pivots: int = 8,
        rng: RngLike = None,
    ):
        check_non_empty(objects, "LAESA")
        if n_pivots < 1:
            raise ValueError(f"n_pivots must be >= 1, got {n_pivots}")
        super().__init__(objects, metric)
        generator = as_rng(rng)
        n = len(objects)
        self.n_pivots = min(n_pivots, n)

        # Max-min pivot selection: start random, repeatedly add the
        # object farthest from the chosen set.  The distances computed
        # for selection are exactly the table columns, so nothing is
        # wasted.
        pivot_ids = [int(generator.integers(n))]
        table = np.empty((n, self.n_pivots))
        table[:, 0] = self._batch_dist(None, objects, objects[pivot_ids[0]])
        min_to_chosen = table[:, 0].copy()
        for column in range(1, self.n_pivots):
            next_pivot = int(np.argmax(min_to_chosen))
            pivot_ids.append(next_pivot)
            table[:, column] = self._batch_dist(None, objects, objects[next_pivot])
            np.minimum(min_to_chosen, table[:, column], out=min_to_chosen)

        tables = _LAESATables()
        tables.pivot_ids = np.asarray(pivot_ids, dtype=np.int64)
        tables.table = table
        self._plant(tables)

    @property
    def pivot_ids(self) -> list[int]:
        """The pivots, one per table column."""
        return self._tables().pivot_ids.tolist()

    @property
    def table(self) -> np.ndarray:
        """The n x n_pivots pivot-distance table (read-only use)."""
        return self._tables().table

    def _pivot_distances(self, query, obs=None) -> np.ndarray:
        """Distances from ``query`` to every pivot (``n_pivots`` evaluations),
        paid as one batched call through the counting gateway."""
        pivots = gather(self._objects, self._tables().pivot_ids)
        return np.asarray(self._batch_dist(obs, pivots, query), dtype=np.float64)

    def _lower_bounds(self, query, obs=None) -> np.ndarray:
        """max-over-pivots triangle lower bounds on d(q, x) for all x.

        Costs exactly ``n_pivots`` metric evaluations.
        """
        pivot_distances = self._pivot_distances(query, obs)
        return np.abs(self.table - pivot_distances).max(axis=1)

    # ------------------------------------------------------------------
    # Queries
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
        bounds = self._lower_bounds(query, obs)
        candidates = np.nonzero(bounds <= radius + slack(radius))[0]
        if obs is not None:
            # The whole table is "seen"; the pivot bounds filter the rest
            # for free.  LAESA has no tree nodes to count.
            n = len(self._objects)
            obs.enter_leaf(n)
            obs.filter_points(PRUNE_PIVOT_FILTER, n - len(candidates))
            obs.leaf_scan(n, len(candidates))
        if len(candidates) == 0:
            return []
        distances = self._batch_dist(obs, gather(self._objects, candidates), query)
        return [
            int(idx)
            for idx, distance in zip(candidates, distances)
            if distance <= radius
        ]

    def knn_search(
        self,
        query,
        k: int,
        epsilon: float = 0.0,
        *,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
    ) -> list[Neighbor]:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        approximation = 1.0 + epsilon
        k = self.validate_k(k)
        obs = make_observation(stats, trace)
        bounds = self._lower_bounds(query, obs)
        order = np.argsort(bounds, kind="stable")

        # Refine in lower-bound order, but in geometrically growing
        # batches instead of one evaluation at a time: a batch may pay a
        # few distances the strictly sequential scan would have skipped
        # (the k-th distance only tightens between batches), which can
        # only admit extra candidates — the answer set stays exact.
        best: list[Neighbor] = []
        scanned = 0
        position = 0
        batch = max(k, 16)
        while position < len(order):
            take = order[position : position + batch]
            if len(best) == k:
                threshold = best[-1].distance
                keep = ~(
                    bounds[take] * approximation > threshold + slack(threshold)
                )
                take = take[keep]  # bounds ascend, so this is a prefix
                if take.size == 0:
                    break
            distances = self._batch_dist(obs, gather(self._objects, take), query)
            scanned += len(take)
            best.extend(
                Neighbor(float(d), int(i)) for d, i in zip(distances, take)
            )
            best.sort()
            del best[k:]
            position += batch
            batch *= 2
        if obs is not None:
            n = len(self._objects)
            obs.enter_leaf(n)
            obs.filter_points(PRUNE_KNN_RADIUS, n - scanned)
            obs.leaf_scan(n, scanned)
        return best

    def outside_range_search(self, query, radius: float) -> list[int]:
        radius = self.validate_radius(radius)
        pivot_distances = self._pivot_distances(query)
        lower = np.abs(self.table - pivot_distances).max(axis=1)
        upper = (self.table + pivot_distances).min(axis=1)

        accepted = lower > radius + slack(radius)
        rejected = upper <= radius - slack(radius)
        out = [int(i) for i in np.nonzero(accepted)[0]]
        borderline = np.nonzero(~(accepted | rejected))[0]
        if len(borderline):
            distances = self._batch_dist(
                None, gather(self._objects, borderline), query
            )
            out.extend(
                int(idx)
                for idx, distance in zip(borderline, distances)
                if distance > radius
            )
        out.sort()
        return out
