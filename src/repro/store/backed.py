"""Search ``.rsx`` stores in place: mmap views straight into the kernels.

:class:`StoreBackedIndex` is a :class:`~repro.indexes.base.MetricIndex`
whose structure is the real index class over zero-copy views of an open
:class:`Store`, held as ``_impl``, to which every search delegates.  A
tree (``vpt``, ``mvpt``, ``gmvpt``) is decoded by the tree codec
(:func:`repro.indexes.kernels.decode`) with the mapped sections as its
tables — same values, same leaf order, same root slot — so every search
takes the identical code path and returns byte-identical ``(distance,
id)`` answers with matching ``QueryStats`` and trace events.  The table
families (``linear``, ``laesa``) wrap the mapped arrays, and ``gnat``'s
node graph is rebuilt from its flattened tables.

Rows appended through :func:`repro.store.delta.append_delta` are
searched too: the base structure answers over its own rows and the
delta rows are scanned exactly (a linear pass, like a small unindexed
tail), with results merged by ``(distance, id)``.  Compaction folds the
tail back into the indexed base.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.indexes import kernels
from repro.indexes.base import MetricIndex, Neighbor
from repro.indexes.gnat import GNAT, GNATInternalNode, GNATLeafNode
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.metric.base import Metric
from repro.obs.stats import QueryStats
from repro.obs.trace import TraceSink, make_observation
from repro.store.delta import append_delta, read_deltas
from repro.store.format import Store
from repro.store.writer import FAMILY_CLASSES

def _segments(store: Store, offsets_name: str, flat_name: str) -> list:
    offsets = store.section(offsets_name)
    flat = store.section(flat_name)
    return [
        flat[int(offsets[i]) : int(offsets[i + 1])]
        for i in range(len(offsets) - 1)
    ]


def _gnat_impl(store: Store, points, metric: Metric) -> GNAT:
    """Rebuild the real GNAT node graph from its flattened tables.

    Node objects are reconstructed with plain python ints/tuples —
    GNAT's search appends ``split_ids`` entries straight into results,
    so anything else would break byte-for-byte answer parity with the
    in-memory tree.
    """
    leaves = [
        GNATLeafNode([int(i) for i in ids])
        for ids in _segments(store, "leaf_offsets", "leaf_ids")
    ]
    degrees = store.section("node_degree")
    split_ids = _segments(store, "split_offsets", "split_ids")
    kinds = _segments(store, "split_offsets", "child_kind")
    idxs = _segments(store, "split_offsets", "child_idx")
    lo = _segments(store, "range_offsets", "range_lo")
    hi = _segments(store, "range_offsets", "range_hi")
    internals = []
    for i in range(len(degrees)):
        d = int(degrees[i])
        ranges = [
            [
                (float(lo[i][r * d + c]), float(hi[i][r * d + c]))
                for c in range(d)
            ]
            for r in range(d)
        ]
        internals.append(
            GNATInternalNode(
                [int(s) for s in split_ids[i]], ranges, [None] * d
            )
        )
    for node, node_kinds, node_idxs in zip(internals, kinds, idxs):
        node.children = [
            None
            if int(kind) == 0
            else (internals if int(kind) == 1 else leaves)[int(idx)]
            for kind, idx in zip(node_kinds, node_idxs)
        ]
    impl = GNAT.__new__(GNAT)
    MetricIndex.__init__(impl, points, metric)
    params = store.meta.get("params", {})
    impl.degree = int(params["degree"])
    impl.min_degree = int(params["min_degree"])
    impl.max_degree = int(params["max_degree"])
    impl.leaf_capacity = int(params["leaf_capacity"])
    impl.candidate_factor = int(params["candidate_factor"])
    for name, value in store.meta.get("build_stats", {}).items():
        setattr(impl, name, value)
    tree = store.meta["tree"]
    nodes = internals if int(tree["root_kind"]) == 1 else leaves
    impl._root = nodes[int(tree["root_idx"])]
    return impl


class StoreBackedIndex(MetricIndex):
    """A searchable index whose structure lives in an mmap-ed ``.rsx``.

    Construct via :func:`open_index`.  Keep it (and therefore the
    underlying :class:`Store`) open while results are in use; ``close``
    releases the mapping.
    """

    def __init__(
        self,
        store: Store,
        metric: Metric,
        *,
        deltas: Optional[list] = None,
    ):
        points = store.section("points")
        super().__init__(points, metric)
        self.store = store
        self.path = store.path
        self.family = store.family
        self.params = dict(store.meta.get("params", {}))
        self._global_ids = (
            store.section("global_ids")
            if store.has_section("global_ids")
            else None
        )
        if self.family == "linear":
            self._impl = LinearScan(points, metric)
        elif self.family == "gnat":
            self._impl = _gnat_impl(store, points, metric)
        elif self.family == "laesa":
            impl = LAESA.__new__(LAESA)
            MetricIndex.__init__(impl, points, metric)
            impl.n_pivots = int(self.params["n_pivots"])
            impl.pivot_ids = [int(i) for i in store.section("pivot_ids")]
            impl._table = store.section("table")
            self._impl = impl
        else:
            cls = FAMILY_CLASSES[self.family]
            sections = {name: store.section(name) for name in cls._TABLES.SECTIONS}
            self._impl = kernels.decode(cls, points, metric, sections, store.meta)
        deltas = deltas or []
        if deltas:
            self._delta_ids = np.concatenate([ids for ids, _ in deltas])
            self._delta_rows = np.concatenate([rows for _, rows in deltas])
        else:
            self._delta_ids = None
            self._delta_rows = None

    # ------------------------------------------------------------------
    # Search (kernel parity over the base, exact scan over the deltas)
    # ------------------------------------------------------------------

    @property
    def digest(self) -> bytes:
        """The store's payload digest: two indexes with the same one
        search the same tree (a paused k-NN round resumes on either)."""
        return self.store.digest

    def __len__(self) -> int:
        n = len(self._objects)
        if self._delta_rows is not None:
            n += len(self._delta_rows)
        return n

    def validate_k(self, k: int) -> int:
        """Clamp against base *and* delta rows, not just ``_objects``.

        The base-class clamp uses ``len(self._objects)`` (base rows
        only), which would silently truncate a k-NN answer to the base
        segment whenever ``k`` exceeds it but not the full index.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return min(k, len(self))

    def _base_knn(
        self, query, k: int, epsilon: float, *, stats, trace
    ) -> list[Neighbor]:
        if self.family == "gnat":
            # GNAT's k-NN has no epsilon relaxation (matching the
            # in-memory class, whose signature takes none).
            if epsilon != 0.0:
                raise ValueError(
                    "GNAT k-NN does not support epsilon approximation"
                )
            return self._impl.knn_search(query, k, stats=stats, trace=trace)
        return self._impl.knn_search(query, k, epsilon, stats=stats, trace=trace)

    def _delta_distances(self, query, *, stats, trace) -> np.ndarray:
        """One exact batched scan of the delta tail (observed like a
        linear leaf scan)."""
        obs = make_observation(stats, trace)
        n = len(self._delta_rows)
        if obs is not None:
            obs.enter_leaf(n)
            obs.leaf_scan(n, n)
        return np.asarray(
            self._batch_dist(obs, self._delta_rows, query), dtype=np.float64
        )

    def range_search(
        self,
        query,
        radius: float,
        *,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
    ) -> list[int]:
        radius = self.validate_radius(radius)
        hits = self._impl.range_search(query, radius, stats=stats, trace=trace)
        if self._delta_rows is None:
            return hits
        distances = self._delta_distances(query, stats=stats, trace=trace)
        base_n = len(self._objects)
        hits.extend(
            base_n + int(j) for j in np.nonzero(distances <= radius)[0]
        )
        return hits

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
        if self._delta_rows is None:
            k = self.validate_k(k)
            return self._base_knn(query, k, epsilon, stats=stats, trace=trace)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, len(self))
        base_hits = self._base_knn(
            query,
            min(k, len(self._objects)),
            epsilon,
            stats=stats,
            trace=trace,
        )
        distances = self._delta_distances(query, stats=stats, trace=trace)
        base_n = len(self._objects)
        merged = [(n.distance, n.id) for n in base_hits]
        merged.extend(
            (float(d), base_n + j) for j, d in enumerate(distances)
        )
        merged.sort()
        return [Neighbor(d, i) for d, i in merged[:k]]

    def knn_round(
        self, query, k: int, *, resume=None, outside=None, pause_k=None,
        stats=None, trace=None,
    ):
        """One round of an exact k-NN over shards: a tree store without
        a delta tail pauses and resumes like the tree itself
        (:func:`repro.indexes.kernels.exact_knn_round`); any other store
        answers in one round."""
        if self._delta_rows is None and isinstance(self._impl, kernels.TableTree):
            return self._impl.knn_round(
                query, k, resume=resume, outside=outside, pause_k=pause_k,
                stats=stats, trace=trace,
            )
        return super().knn_round(query, k, stats=stats, trace=trace)

    # ------------------------------------------------------------------
    # Ids & lifecycle
    # ------------------------------------------------------------------

    def ingest(self, rows, ids) -> None:
        """Durably append rows to the ``.rsx.delta`` sidecar and serve
        them immediately from the in-memory delta tail.

        ``ids`` are the dataset-global ids of the new rows (one per
        row).  The sidecar append is fsynced before the in-memory tail
        is extended, so a row is never served before it is durable; a
        reopened index (:func:`open_index`) sees the same rows via
        :func:`repro.store.delta.read_deltas`.  Raises ``ValueError``
        on shape/dimension mismatch and ``OSError`` on write failure —
        in both cases the in-memory tail is untouched.
        """
        rows = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if len(ids) != len(rows):
            raise ValueError(
                f"ingest needs one id per row; got {len(ids)} ids for "
                f"{len(rows)} rows"
            )
        append_delta(self.path, rows, ids=ids)
        if self._delta_ids is None:
            self._delta_ids = ids
            self._delta_rows = rows
        else:
            self._delta_ids = np.concatenate([self._delta_ids, ids])
            self._delta_rows = np.concatenate([self._delta_rows, rows])

    def to_global(self, ids) -> list[int]:
        """Map local result ids (base rows, then delta rows) to the
        dataset-global ids recorded at write/append time."""
        base_n = len(self._objects)
        out = []
        for i in ids:
            i = int(i)
            if i < base_n:
                out.append(
                    i if self._global_ids is None else int(self._global_ids[i])
                )
            else:
                out.append(int(self._delta_ids[i - base_n]))
        return out

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "StoreBackedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_index(
    path: Union[str, Path],
    metric: Metric,
    *,
    verify: bool = True,
    with_deltas: bool = True,
) -> StoreBackedIndex:
    """Open a ``.rsx`` store (and its delta tail) as a searchable index.

    ``verify=True`` (the default) pays one payload hash up front so a
    corrupt file is refused at open rather than discovered mid-query;
    workers that reopen a path every rebuild keep it on.
    """
    store = Store(path)
    try:
        if verify:
            store.verify()
        deltas = read_deltas(path) if with_deltas else []
        return StoreBackedIndex(store, metric, deltas=deltas)
    except BaseException:
        store.close()
        raise
