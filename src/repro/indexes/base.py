"""Common interface for all distance-based index structures.

Every index is built once over a dataset (the paper's structures are
static, section 6) and then answers the similarity queries of section 2:

* range (near-neighbor) search — all objects within ``r`` of the query;
* k-nearest-neighbor search;
* farthest / k-farthest search (supported where the structure admits
  upper-bound pruning).

Indexes store integer ids into the dataset sequence they were built
over, and results are reported as ids (range search) or
``(id, distance)`` pairs (k-NN).  They never copy data objects, with one
exception: a numpy array that is not C-contiguous (a strided view such
as ``data[::2]``) is copied to C order once, at construction, because
every row gather from a strided array copies the whole array.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.metric.base import Metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs import QueryStats, TraceSink
    from repro.obs.trace import Observation


@dataclass(frozen=True, order=True, slots=True)
class Neighbor:
    """A query answer: the object's id and its distance from the query.

    Ordering is by ``(distance, id)`` so sorted neighbor lists are
    deterministic even under distance ties.
    """

    distance: float
    id: int

    def __reduce__(self):
        # The slotted dataclass's own state hooks run in Python; a
        # constructor call pickles answer lists several times faster
        # (process workers send one back with every unit).
        return (Neighbor, (self.distance, self.id))


class MetricIndex(ABC):
    """Base class for distance-based indexes over a fixed dataset.

    Parameters
    ----------
    objects:
        The dataset; any sequence (numpy matrix rows, list of strings,
        ...).  Held by reference (a non-contiguous numpy array is
        copied to C order once).
    metric:
        The metric distance function.  Wrap it in
        :class:`repro.metric.CountingMetric` *before* constructing the
        index to account construction and search costs separately.
    """

    def __init__(self, objects: Sequence, metric: Metric):
        if isinstance(objects, np.ndarray) and not objects.flags.c_contiguous:
            objects = np.ascontiguousarray(objects)
        self._objects = objects
        self._metric = metric

    @property
    def objects(self) -> Sequence:
        """The dataset this index was built over."""
        return self._objects

    @property
    def metric(self) -> Metric:
        """The metric used for construction and search."""
        return self._metric

    def __len__(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # Distance gateway
    # ------------------------------------------------------------------
    #
    # Every metric evaluation an index performs must flow through these
    # two helpers so the paper's cost model (section 5: count distance
    # computations) stays truthful: the helpers charge ``obs`` exactly
    # once per evaluation, matching what a ``CountingMetric`` would see.
    # Search paths pass their live ``Observation``; construction paths
    # pass ``None`` (build cost is accounted by wrapping the metric in a
    # ``CountingMetric`` before construction).  ``repro.check`` rule
    # RC001 flags any raw ``metric.distance``/``batch_distance``/
    # ``segmented_distance`` call in index modules that bypasses these
    # gateways.

    def _dist(self, obs: Optional["Observation"], a, b) -> float:
        """One metric evaluation, charged to ``obs`` when observing."""
        if obs is not None:
            obs.distance()
        return self._metric.distance(a, b)

    def _batch_dist(self, obs: Optional["Observation"], xs: Sequence, y):
        """One batched metric evaluation (a batch of ``n`` counts ``n``)."""
        out = self._metric.batch_distance(xs, y)
        if obs is not None:
            obs.distance(len(out))
        return out

    def _segment_dist(self, xs: Sequence, starts, ys: Sequence):
        """One construction pass: run ``i`` measures
        ``xs[starts[i]:starts[i+1]]`` against ``ys[i]`` (see
        :meth:`Metric.segmented_distance`); builds only, so nothing is
        observed."""
        return self._metric.segmented_distance(xs, starts, ys)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @abstractmethod
    def range_search(
        self,
        query,
        radius: float,
        *,
        stats: Optional["QueryStats"] = None,
        trace: Optional["TraceSink"] = None,
    ) -> list[int]:
        """Return ids of all objects within ``radius`` of ``query``.

        This is the paper's *near neighbor query* (section 2):
        ``{ x in X : d(x, query) <= radius }``.  The result is sorted by
        id and exact — distance-based filtering only ever discards
        objects proven out of range by the triangle inequality.

        ``stats`` (a :class:`~repro.obs.QueryStats`) accumulates the
        query's cost breakdown; ``trace`` (a
        :class:`~repro.obs.TraceSink`) streams per-event callbacks.
        Both default to off, in which case the search pays no
        observability cost.
        """

    @abstractmethod
    def knn_search(
        self,
        query,
        k: int,
        *,
        stats: Optional["QueryStats"] = None,
        trace: Optional["TraceSink"] = None,
    ) -> list[Neighbor]:
        """Return the ``k`` nearest objects, closest first.

        Returns fewer than ``k`` neighbors only when the dataset is
        smaller than ``k``.  Ties are broken by id.  ``stats`` and
        ``trace`` observe the query as in :meth:`range_search`.
        """

    def knn_round(
        self,
        query,
        k: int,
        *,
        resume=None,
        outside=None,
        pause_k: Optional[int] = None,
        stats: Optional["QueryStats"] = None,
        trace: Optional["TraceSink"] = None,
    ) -> tuple[list[Neighbor], object]:
        """One round of an exact k-NN over shards: the tree indexes pause
        after a first round and resume with other shards' candidates
        (:func:`repro.indexes.kernels.exact_knn_round`).  Any other index
        answers in one round: its exact k-NN and ``None`` for the state.
        """
        return self.knn_search(query, k, stats=stats, trace=trace), None

    def nearest(self, query) -> Neighbor:
        """Convenience: the single nearest neighbor."""
        result = self.knn_search(query, 1)
        return result[0]

    def farthest_search(self, query, k: int = 1) -> list[Neighbor]:
        """Return the ``k`` farthest objects, farthest first.

        The paper lists farthest queries among the similarity-query
        variants (section 2).  Only structures that admit upper-bound
        pruning implement this; others raise ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support farthest queries"
        )

    def outside_range_search(self, query, radius: float) -> list[int]:
        """Return ids of all objects *farther* than ``radius`` from ``query``.

        The complement query of section 2 ("objects that are farther
        than a given range from a query object can also be asked").
        Structures with distance bounds answer it with the same
        triangle-inequality machinery, including *accepting whole
        subtrees without computing a distance* when their lower bound
        already clears the radius.  Only structures that admit
        upper-bound pruning implement this; others raise
        ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support outside-range queries"
        )

    # ------------------------------------------------------------------
    # Introspection helpers shared by tests and benchmarks
    # ------------------------------------------------------------------

    def validate_k(self, k: int) -> int:
        """Clamp and validate a k-NN ``k`` against the dataset size."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return min(k, len(self._objects))

    def validate_radius(self, radius: float) -> float:
        """Validate a range-search radius."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return radius
