"""Dataset sharding over the whole index family.

A :class:`ShardManager` partitions one dataset across ``n_shards``
disjoint, covering slices and builds an independent index over each —
any :class:`~repro.indexes.base.MetricIndex` subclass, chosen by name
from :data:`SHARD_BACKENDS` (the serving-side view of the package's
index registry) or supplied as a builder callable.  It is itself a
``MetricIndex``: sequential callers use ``range_search`` / ``knn_search``
exactly as on a single structure, and the
:class:`~repro.serve.engine.QueryEngine` fans the same per-shard
searches out over a worker pool.

Merging is exact.  Range results are the union of per-shard hits mapped
back to global ids; k-NN results come from a global heap over the
per-shard candidate lists.  Each shard answers with its local top
``min(k, |shard|)`` — since the global k-th nearest distance is never
smaller than any shard's local k-th, no qualifying neighbor can be
missed — and ties at the k-th distance resolve by global id, matching
the deterministic ``(distance, id)`` ordering every single index uses.

With ``replication_factor=R`` every shard has ``R`` replica slots, so
the serving engine can fail a unit over to a surviving slot and still
return an *exact, non-degraded* answer — redundancy buys fault
tolerance without approximation (see ``docs/resilience.md``).  A
read-only base (every static tree, scan and table index) is built once
per shard and shared by all of its slots; a base that absorbs writes in
place (:meth:`ShardManager.absorbs_writes`) gets its own build per
slot.  Replication therefore guards against the logical loss of a slot
(a dropped replica, a refused store), not against a corrupt in-memory
copy.  Any slot of a shard answers a query identically up to the
deterministic ``(distance, id)`` ordering, so failover is invisible in
the results.

Live mutability (ROADMAP item 5).  :meth:`ShardManager.insert` and
:meth:`ShardManager.delete` mutate the deployment in place: an insert
routes to a deterministic target shard and is applied to every replica
— dynamic-capable backends (:class:`~repro.core.dynamic.DynamicMVPTree`
in place, :class:`~repro.store.backed.StoreBackedIndex` via its
``.rsx.delta`` sidecar) absorb the point into their base structure,
every other backend buffers it in the shard's *memtable*, a flat tail
that is unioned into range/knn/approx answers exactly (a batched linear
scan merged by ``(distance, id)``, mirroring how ``StoreBackedIndex``
unions its delta rows).  A delete tombstones the point in every replica
slot that covers it.  Background rebuilds
(:class:`~repro.serve.lifecycle.RebuildCoordinator`) fold tombstones
and memtables back into a fresh base, swapped into the shard's slots
one at a time via :meth:`swap_replica`, which installs it atomically under
``_replicas_lock`` and bumps the shard's epoch — in-flight queries
finish against the detached old copy (never mutated once swapped out),
so exactness holds throughout.  :meth:`split_shard` and
:meth:`merge_shards` rebalance the id assignment on size skew under the
same lock.  The invariant every mutation preserves, per replica slot:

    (base ids − tombstones) ∪ (memtable ∖ base ids) == the shard's live ids

which ``repro-check invariants`` verifies and the ``churn`` chaos
campaign (``repro-chaos --family churn``) stresses under interleaved
ingest, deletes, rolling rebuilds, and replica kills.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro._util import RngLike, as_rng, check_non_empty, gather
from repro.approx import (
    approx_knn_search,
    approx_range_search,
    build_report,
    merge_reports,
    split_budget,
)
from repro.core.dynamic import DynamicMVPTree
from repro.core.gmvptree import GMVPTree
from repro.core.mvptree import MVPTree
from repro.indexes.base import MetricIndex, Neighbor
from repro.indexes.bktree import BKTree
from repro.indexes.distance_matrix import DistanceMatrixIndex
from repro.indexes.ghtree import GHTree
from repro.indexes.gnat import GNAT
from repro.indexes.kernels import BudgetTracker, _TopK, top_k_order
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.indexes.vptree import VPTree
from repro.metric.base import Metric
from repro.obs.stats import PRUNE_BUDGET, SHARD_OK, QueryStats
from repro.obs.trace import TraceSink, make_observation
from repro.serve.cache import query_cache_key

#: ``builder(objects, metric, rng) -> MetricIndex`` per backend name.
ShardBuilder = Callable[[Sequence, Metric, np.random.Generator], MetricIndex]

#: The serving-side index registry: every index class the package
#: exports, as a shard backend.  Parameters track the CLI defaults
#: (``repro stats --structure``) but clamp to tiny shards so any
#: partition size builds.
SHARD_BACKENDS: dict[str, ShardBuilder] = {
    "linear": lambda objects, metric, rng: LinearScan(objects, metric),
    "vpt": lambda objects, metric, rng: VPTree(
        objects, metric, m=2, leaf_capacity=4, rng=rng
    ),
    "mvpt": lambda objects, metric, rng: MVPTree(
        objects, metric, m=3, k=13, p=4, rng=rng
    ),
    "gmvpt": lambda objects, metric, rng: GMVPTree(
        objects, metric, m=2, v=3, k=8, p=4, rng=rng
    ),
    "dynamic": lambda objects, metric, rng: DynamicMVPTree(
        objects, metric, m=3, k=9, p=4, rng=rng
    ),
    "ght": lambda objects, metric, rng: GHTree(
        objects, metric, leaf_capacity=4, rng=rng
    ),
    "gnat": lambda objects, metric, rng: GNAT(
        objects, metric, leaf_capacity=4, rng=rng
    ),
    "laesa": lambda objects, metric, rng: LAESA(
        objects, metric, n_pivots=min(8, len(objects)), rng=rng
    ),
    "matrix": lambda objects, metric, rng: DistanceMatrixIndex(objects, metric),
    "bkt": lambda objects, metric, rng: BKTree(list(objects), metric),
}

_ASSIGNMENTS = ("round-robin", "contiguous")


class ReplicaUnavailable(RuntimeError):
    """A shard search targeted a replica that is lost (``None``).

    Raised by the per-shard search methods; the serving engine treats it
    like any other unit failure and fails over to a sibling replica.
    """


def assign_shards(n_objects: int, n_shards: int, assignment: str) -> list[list[int]]:
    """Partition ``range(n_objects)`` into ``n_shards`` id lists.

    ``round-robin`` deals ids out one at a time (shard ``s`` holds ids
    congruent to ``s`` mod ``n_shards``) for size balance under any data
    ordering; ``contiguous`` cuts the id range into blocks, which keeps
    locality when the dataset arrives pre-clustered.  Both produce
    disjoint, covering, strictly increasing id lists — the invariant
    ``repro-check invariants`` verifies on every built manager.
    """
    if assignment == "round-robin":
        return [
            list(range(shard, n_objects, n_shards)) for shard in range(n_shards)
        ]
    if assignment == "contiguous":
        bounds = np.linspace(0, n_objects, n_shards + 1).astype(int)
        return [
            list(range(int(bounds[s]), int(bounds[s + 1])))
            for s in range(n_shards)
        ]
    raise ValueError(
        f"unknown assignment {assignment!r}; choose from {_ASSIGNMENTS}"
    )


@dataclass(frozen=True)
class Query:
    """One similarity query: the request every search path answers.

    ``kind`` is ``"range"`` (uses ``radius``) or ``"knn"`` (uses ``k``).
    Use the :meth:`range` / :meth:`knn` constructors rather than spelling
    the fields out.

    ``budget``/``epsilon`` opt a query into the approximate tier (see
    :mod:`repro.approx` and ``docs/approximate.md``): ``budget`` caps
    distance computations (split deterministically across a manager's
    shards), ``epsilon`` relaxes k-NN to the (1+epsilon) contract.  The
    engine then attaches a merged :class:`~repro.approx.ApproxReport`
    to the result.
    """

    kind: str
    query: object
    radius: Optional[float] = None
    k: Optional[int] = None
    budget: Optional[int] = None
    epsilon: float = 0.0

    @classmethod
    def range(
        cls,
        query,
        radius: float,
        *,
        budget: Optional[int] = None,
        epsilon: float = 0.0,
    ) -> "Query":
        """A near-neighbor query: all objects within ``radius``."""
        return cls(
            "range",
            query,
            radius=float(radius),
            budget=budget,
            epsilon=float(epsilon),
        )

    @classmethod
    def knn(
        cls,
        query,
        k: int,
        *,
        budget: Optional[int] = None,
        epsilon: float = 0.0,
    ) -> "Query":
        """A k-nearest-neighbor query."""
        return cls(
            "knn", query, k=int(k), budget=budget, epsilon=float(epsilon)
        )

    @property
    def is_approximate(self) -> bool:
        """Does this query run on the budgeted/relaxed tier?"""
        return self.budget is not None or self.epsilon > 0

    def cache_key(self):
        """Hashable identity for the result cache (None = uncacheable).

        Budget and epsilon are part of the identity: a budgeted answer
        must never satisfy an exact lookup (or a differently budgeted
        one).
        """
        base = query_cache_key(self.query)
        if base is None:
            return None
        return (self.kind, self.radius, self.k, self.budget, self.epsilon, base)


def _nearest(neighbors: Sequence[Neighbor], k: int) -> list[Neighbor]:
    """The ``k`` least of ``neighbors`` by ``(distance, id)``, closest
    first: the kernel's selection (:func:`~repro.indexes.kernels.top_k_order`)
    over their distances and ids, answered with the objects themselves."""
    n = len(neighbors)
    dist = np.fromiter((nb.distance for nb in neighbors), np.float64, n)
    ids = np.fromiter((nb.id for nb in neighbors), np.int64, n)
    return [neighbors[i] for i in top_k_order(dist, ids, k).tolist()]


def merge_knn(candidates: Sequence[Sequence[Neighbor]], k: int) -> list[Neighbor]:
    """Global top-``k`` over per-shard candidate lists (closest first).

    Ties at the k-th distance resolve by global id (:func:`_nearest`) —
    identical to a single index over the union of the shards.
    """
    return _nearest([n for shard in candidates for n in shard], k)


def merge_range(id_lists: Sequence[Sequence[int]]) -> list[int]:
    """Union of per-shard global-id hit lists, sorted ascending."""
    merged: list[int] = []
    for ids in id_lists:
        merged.extend(ids)
    merged.sort()
    return merged


def _position(ids: list[int], gid: int) -> int:
    """Index of ``gid`` in the strictly increasing ``ids``: a binary
    search, so a delete never scans a shard-sized list.  Raises
    ``LookupError`` when ``gid`` is absent, which for a gid known to be
    there means the list lost its order (the ``shard-order``
    invariant)."""
    pos = bisect_left(ids, gid)
    if pos == len(ids) or ids[pos] != gid:
        raise LookupError(f"id {gid} not found in an ordered id list")
    return pos


class _SlotState:
    """Bookkeeping for one replica slot's base index.

    ``ids`` maps the base index's local ids to global ids, strictly
    increasing (base ids come from a shard's sorted live list, inserts
    append the newest gid).  It is append-only while the slot lives (a
    swap installs a whole new ``_SlotState``), so a search may keep
    reading it after the lock is released.  ``id_set`` is its set view;
    ``dead`` holds global ids tombstoned out of the base — deleted
    points, and points a split or merge moved to another shard.

    Slots that share one read-only base share ``ids``/``id_set`` too
    (only an absorbing base appends to them); each keeps its own
    ``dead``.
    """

    __slots__ = ("ids", "id_set", "dead")

    def __init__(self, ids: Sequence[int], id_set: Optional[set[int]] = None):
        if id_set is None:
            ids = [int(g) for g in ids]
            id_set = set(ids)
        self.ids: list[int] = ids
        self.id_set: set[int] = id_set
        self.dead: set[int] = set()

    def sibling(self) -> "_SlotState":
        """A slot over the same base: shared id tables, own tombstones."""
        return _SlotState(self.ids, self.id_set)


class ShardSnapshot:
    """One shard's live ``(ids, rows)``, taken for a replacement build.

    :meth:`ShardManager.snapshot_shard` copies the id list under the
    lock and gathers the rows outside it.  Passed to
    :meth:`ShardManager.swap_replica` in place of a plain id list, it
    lets every slot installing the same base share one set of id
    tables, built once and outside the lock.
    """

    __slots__ = ("ids", "rows", "_slot")

    def __init__(self, ids: list[int], rows):
        self.ids = ids
        self.rows = rows
        self._slot = _SlotState(ids, set(ids))


def _gather(objects, tail: Sequence, ids: Sequence[int]):
    """Rows for mixed base/tail gids.  Over an ndarray the base rows
    are one ``take`` and the tail rows one block; a generic sequence
    gets a list."""
    base_n = len(objects)
    if not isinstance(objects, np.ndarray):
        return [objects[i] if i < base_n else tail[i - base_n] for i in ids]
    ids = np.asarray(ids, dtype=np.intp)
    at_tail = ids >= base_n
    if not at_tail.any():
        return objects.take(ids, axis=0)
    block = np.asarray([tail[i] for i in (ids[at_tail] - base_n).tolist()])
    rows = np.empty(
        (len(ids),) + block.shape[1:],
        dtype=np.result_type(objects, block),
    )
    rows[~at_tail] = objects.take(ids[~at_tail], axis=0)
    rows[at_tail] = block
    return rows


class _ShardView:
    """One slot's consistent view of a shard, snapshotted under the lock.

    ``index`` may be ``None`` for a base-less slot (a shard created by
    a split, or one emptied into its memtable) — then every live point
    is in ``extra_ids``/``extra_rows``, the memtable entries this slot's
    base does not cover.
    """

    __slots__ = ("index", "ids", "dead", "n_live", "extra_ids", "extra_rows")

    def __init__(self, index, ids, dead, n_live, extra_ids, extra_rows):
        self.index: Optional[MetricIndex] = index
        self.ids: Sequence[int] = ids
        self.dead: frozenset[int] = dead
        self.n_live: int = n_live
        self.extra_ids: Sequence[int] = extra_ids
        self.extra_rows = extra_rows

    @property
    def mutated(self) -> bool:
        return bool(self.dead or self.extra_ids)


class ShardManager(MetricIndex):
    """Partition a dataset across N independent index shards.

    Parameters
    ----------
    objects:
        The full dataset (held by reference, as everywhere else).
        Points added later through :meth:`insert` are kept in an
        internal tail; ids keep growing past ``len(objects)``.
    metric:
        Metric shared by every shard.  Wrap it in a (thread-safe)
        :class:`~repro.metric.CountingMetric` to account the whole
        deployment's distance computations, or in a
        :class:`~repro.serve.cache.DistanceCacheMetric` to memoize
        repeated (query, point) pairs across shards and queries.
    n_shards:
        Number of partitions.  May exceed the dataset size; surplus
        shards stay empty (no index is built for them) and searches
        skip them.  :meth:`split_shard` grows the count later.
    backend:
        Index family per shard: a name from :data:`SHARD_BACKENDS` or a
        ``builder(objects, metric, rng) -> MetricIndex`` callable.
    assignment:
        ``"round-robin"`` (default) or ``"contiguous"`` — see
        :func:`assign_shards`.
    replication_factor:
        Replica slots per shard (default 1 = no redundancy).  Replica 0
        of every shard is built first, in shard order, drawing from the
        rng exactly as an unreplicated manager does.  Every further
        slot serves that same base object when it is read-only; a base
        that absorbs writes in place (:meth:`absorbs_writes`, e.g.
        ``backend="dynamic"``) is built again for each slot, replica 1
        of every shard next, then replica 2, ...  Replication protects
        against losing a slot (:meth:`drop_replica`, a refused store),
        not against a corrupt in-memory copy.
    rng:
        Seed or generator; builds draw from it in (replica, shard)
        order, so a seed makes the whole deployment reproducible.

    >>> import numpy as np
    >>> from repro.metric import L2
    >>> data = np.random.default_rng(0).random((64, 4))
    >>> manager = ShardManager(data, L2(), n_shards=4, backend="vpt", rng=0)
    >>> manager.range_search(data[5], 0.0)
    [5]
    """

    def __init__(
        self,
        objects: Sequence,
        metric: Metric,
        *,
        n_shards: int = 4,
        backend: Union[str, ShardBuilder] = "vpt",
        assignment: str = "round-robin",
        replication_factor: int = 1,
        rng: RngLike = None,
    ):
        check_non_empty(objects, "ShardManager")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        super().__init__(objects, metric)
        if callable(backend):
            builder, self.backend_name = backend, None
        else:
            try:
                builder = SHARD_BACKENDS[backend]
            except KeyError:
                raise ValueError(
                    f"unknown shard backend {backend!r}; choose from "
                    f"{sorted(SHARD_BACKENDS)} or pass a builder callable"
                ) from None
            self.backend_name = backend
        self._builder = builder
        self.assignment = assignment
        self.replication_factor = replication_factor
        #: Corrupt/stale ``.rsx`` stores refused by :meth:`recover`
        #: (each one fell back to an in-memory rebuild) — health signal.
        self.store_refusal_count = 0
        # Delta-sidecar writes refused during insert (each one fell
        # back to the shard memtable) — health signal; see the
        # ingest_failure_count property.
        self._ingest_failures = 0  # guarded-by: _replicas_lock
        generator = as_rng(rng)
        # Guards every replica/id table below against worker threads
        # reading slots while drop_replica()/recover()/swap_replica()
        # swap them and insert()/delete() mutate the live id-set (chaos
        # campaigns and ROADMAP item 5's rolling rebuilds do exactly
        # that).
        self._replicas_lock = threading.Lock()
        # _shard_ids[shard]: the shard's *live* global ids, ascending.
        self._shard_ids = assign_shards(
            len(objects), n_shards, assignment
        )  # guarded-by: _replicas_lock
        # _shard_of[gid]: the shard currently holding a live gid.
        self._shard_of = {
            gid: shard
            for shard, ids in enumerate(self._shard_ids)
            for gid in ids
        }  # guarded-by: _replicas_lock
        # Points inserted after construction (gid = len(objects) + pos).
        self._tail: list = []  # guarded-by: _replicas_lock
        # Gids deleted from the deployment (never resurrected).
        self._removed: set[int] = set()  # guarded-by: _replicas_lock
        # _memtables[shard]: buffered gids at least one slot's base does
        # not cover, in arrival order (a dict keyed by gid, so a delete
        # finds its entry without a scan); unioned into every search
        # via an exact flat scan.
        self._memtables: list[dict[int, None]] = [
            {} for _ in range(n_shards)
        ]  # guarded-by: _replicas_lock
        # _epochs[shard]: bumped by every atomic base swap; a query that
        # reads one epoch's snapshot finishes entirely against it.
        self._epochs: list[int] = [0] * n_shards  # guarded-by: _replicas_lock
        # _replicas[r][shard]: replica r's index for the shard (None for
        # empty shards and for replicas lost to faults/corruption); one
        # object across the column when the base is read-only.
        self._replicas: list[list[Optional[MetricIndex]]] = []  # guarded-by: _replicas_lock
        # _slots[r][shard]: local→global bookkeeping for that base.
        self._slots: list[list[_SlotState]] = []  # guarded-by: _replicas_lock
        for r in range(replication_factor):
            bases: list[Optional[MetricIndex]] = []
            slots: list[_SlotState] = []
            for shard, ids in enumerate(self._shard_ids):
                if r and not self.absorbs_writes(self._replicas[0][shard]):
                    bases.append(self._replicas[0][shard])
                    slots.append(self._slots[0][shard].sibling())
                    continue
                bases.append(
                    builder(gather(objects, ids), metric, generator) if ids else None
                )
                slots.append(_SlotState(ids))
            self._replicas.append(bases)
            self._slots.append(slots)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Current number of shards (grows via :meth:`split_shard`)."""
        with self._replicas_lock:
            return len(self._shard_ids)

    @property
    def shards(self) -> list[Optional[MetricIndex]]:
        """Replica 0 of every shard (``None`` for empty shards).

        The pre-replication view; mutating entries mutates replica 0.
        """
        with self._replicas_lock:
            return self._replicas[0]

    @property
    def replicas(self) -> list[list[Optional[MetricIndex]]]:
        """All replica rows, indexed ``replicas[replica][shard]``.

        The returned rows are live views; entry assignment is the
        test-only restore path and is not synchronised — use
        :meth:`drop_replica`/:meth:`recover` under concurrency.
        """
        with self._replicas_lock:
            return self._replicas

    @property
    def shard_ids(self) -> list[list[int]]:
        """Per-shard *live* global-id assignment (disjoint, covering)."""
        with self._replicas_lock:
            return self._shard_ids

    def shard_sizes(self) -> list[int]:
        """Number of live data points per shard."""
        with self._replicas_lock:
            return [len(ids) for ids in self._shard_ids]

    def replica(self, shard: int, replica: int) -> Optional[MetricIndex]:
        """The given replica's index for ``shard`` (None if lost/empty)."""
        with self._replicas_lock:
            return self._replicas[replica][shard]

    def live_replicas(self, shard: int) -> list[int]:
        """Replica numbers currently able to answer for ``shard``."""
        with self._replicas_lock:
            return [
                r
                for r in range(self.replication_factor)
                if self._slot_available_locked(shard, r)
            ]

    def slot_available(self, shard: int, replica: int) -> bool:
        """True when the replica slot can answer for ``shard``.

        A slot answers if its base index is live, or if it has no base
        duties at all — an empty shard, or a base-less slot whose every
        live point sits in the shard memtable (the state a fresh
        :meth:`split_shard` shard starts in).
        """
        with self._replicas_lock:
            return self._slot_available_locked(shard, replica)

    def epoch(self, shard: int) -> int:
        """The shard's swap epoch (bumped by every atomic base swap)."""
        with self._replicas_lock:
            return self._epochs[shard]

    def memtable(self, shard: int) -> list[int]:
        """Copy of the shard's buffered (memtable) gids."""
        with self._replicas_lock:
            return list(self._memtables[shard])

    def removed_ids(self) -> frozenset[int]:
        """Every gid ever deleted from the deployment."""
        with self._replicas_lock:
            return frozenset(self._removed)

    def live_ids(self) -> list[int]:
        """All live gids across every shard, ascending."""
        with self._replicas_lock:
            out = [gid for ids in self._shard_ids for gid in ids]
        out.sort()
        return out

    def next_id(self) -> int:
        """The gid the next :meth:`insert` will assign."""
        with self._replicas_lock:
            return len(self._objects) + len(self._tail)

    @property
    def ingest_failure_count(self) -> int:
        """Delta-sidecar writes refused during insert (memtable
        fallbacks) — a failing ``.rsx.delta`` file is an outage signal."""
        with self._replicas_lock:
            return self._ingest_failures

    def churn_counts(self, shard: int) -> tuple[int, int, int]:
        """``(live, memtable, worst-replica tombstones)`` sizes of one
        shard, read under one lock hold without copying anything."""
        with self._replicas_lock:
            dead = max(
                len(self._slots[r][shard].dead)
                for r in range(self.replication_factor)
            )
            return len(self._shard_ids[shard]), len(self._memtables[shard]), dead

    def slot_state(self, shard: int, replica: int) -> tuple[list[int], set[int]]:
        """Copies of one slot's ``(base ids, tombstoned gids)``."""
        with self._replicas_lock:
            slot = self._slots[replica][shard]
            return list(slot.ids), set(slot.dead)

    def snapshot_shard(self, shard: int) -> ShardSnapshot:
        """The shard's live ids and rows — a rebuild's input.

        Only the id list is copied under the lock; the rows are
        gathered after it is released (``objects`` never changes and
        the tail only grows, so the copied ids stay readable).
        """
        with self._replicas_lock:
            ids = list(self._shard_ids[shard])
            tail = self._tail
        return ShardSnapshot(ids, _gather(self._objects, tail, ids))

    def mutation_state(self) -> dict:
        """JSON-ready snapshot of the mutable state, under one lock hold.

        Consumed by :mod:`repro.persist.serialize` so a churned manager
        round-trips: inserted tail rows, removed ids, per-shard
        memtables and epochs, and every slot's base-id/tombstone tables.
        """
        with self._replicas_lock:
            return {
                "tail": [
                    row.tolist() if isinstance(row, np.ndarray) else row
                    for row in self._tail
                ],
                "removed": sorted(self._removed),
                "memtables": [list(mem) for mem in self._memtables],
                "epochs": list(self._epochs),
                "slots": [
                    [
                        {"ids": list(slot.ids), "dead": sorted(slot.dead)}
                        for slot in row
                    ]
                    for row in self._slots
                ],
            }

    def __len__(self) -> int:
        """Number of *live* points across the whole deployment."""
        with self._replicas_lock:
            return len(self._objects) + len(self._tail) - len(self._removed)

    def validate_k(self, k: int) -> int:
        """Clamp against the live count (base + tail − removed)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return min(k, len(self))

    # ------------------------------------------------------------------
    # Internal helpers (callers hold _replicas_lock)
    # ------------------------------------------------------------------

    def _slot_available_locked(self, shard: int, replica: int) -> bool:  # guarded-by: _replicas_lock
        if not self._shard_ids[shard]:
            return True
        if self._replicas[replica][shard] is not None:
            return True
        return not self._slots[replica][shard].ids

    def _resolve_locked(self, shard: int, replica: Optional[int]):  # guarded-by: _replicas_lock
        """The ``(index, slot)`` a shard search should run on.

        ``replica=None`` picks the first available slot (the sequential
        path); a specific replica must itself be available.  Raises
        :class:`ReplicaUnavailable` when nothing can answer — an exact
        search can't silently skip a populated shard.
        """
        if replica is not None:
            index = self._replicas[replica][shard]
            slot = self._slots[replica][shard]
            if index is None and slot.ids:
                raise ReplicaUnavailable(
                    f"shard {shard} replica {replica} is unavailable"
                )
            return index, slot
        for r in range(self.replication_factor):
            index = self._replicas[r][shard]
            slot = self._slots[r][shard]
            if index is not None or not slot.ids:
                return index, slot
        raise ReplicaUnavailable(
            f"shard {shard} has no live replica "
            f"(replication_factor={self.replication_factor})"
        )

    @staticmethod
    def absorbs_writes(index) -> bool:
        """Does ``index`` take inserts and deletes in place?

        True for exactly the bases :meth:`_absorb_locked` and
        :meth:`delete` write into: a ``DynamicMVPTree`` and any index
        with ``ingest`` (a store-backed index and its delta sidecar).
        Such a base is built once per replica slot; any other base is
        read-only once built, so every slot of its shard shares it.
        """
        return isinstance(index, DynamicMVPTree) or hasattr(index, "ingest")

    def _absorb_locked(self, index, slot, gid: int, obj) -> bool:  # guarded-by: _replicas_lock
        """Apply an insert to one slot's base in place, if it can.

        ``DynamicMVPTree`` inserts positionally (its ids are stable
        forever, so appending to ``slot.ids`` keeps local == position);
        ``StoreBackedIndex`` appends a ``.rsx.delta`` sidecar row.  Any
        other backend — or a failed sidecar write — returns False and
        the point goes to the shard memtable instead.
        """
        if isinstance(index, DynamicMVPTree):
            index.insert(obj)
            slot.ids.append(gid)
            slot.id_set.add(gid)
            return True
        ingest = getattr(index, "ingest", None)
        if ingest is None:
            return False
        try:
            ingest([obj], [gid])
        except (OSError, TypeError, ValueError):
            # Refused sidecar write: the point still lands in the shard
            # memtable, so the answer stays exact — but count it, a
            # failing delta file is an outage signal.
            self._ingest_failures += 1
            return False
        slot.ids.append(gid)
        slot.id_set.add(gid)
        return True

    def _install_locked(self, shard: int, replica: int, index, slot):  # guarded-by: _replicas_lock
        """The swap core: install ``index`` as the slot's base.

        ``slot`` holds the base's id tables, built before the lock was
        taken.  Tombstones every base id no longer live (deleted while
        the replacement was building), routes live ids the base doesn't
        cover through the memtable, bumps the shard epoch, and prunes
        memtable entries every slot's base now covers.

        Returns the detached ``(index, slot)``: the caller drops them
        after releasing the lock, so freeing a shard-sized id table
        never stalls the lock.
        """
        mem = self._memtables[shard]
        live = set(self._shard_ids[shard])
        slot.dead = slot.id_set - live
        missing = live - slot.id_set - mem.keys()
        detached = self._replicas[replica][shard], self._slots[replica][shard]
        self._replicas[replica][shard] = index
        self._slots[replica][shard] = slot
        if missing:
            mem.update(dict.fromkeys(sorted(missing)))
        self._epochs[shard] += 1
        self._prune_memtable_locked(shard)
        return detached

    def _prune_memtable_locked(self, shard: int) -> None:  # guarded-by: _replicas_lock
        """Drop memtable gids every slot's base now actively serves
        (present and not tombstoned)."""
        mem = self._memtables[shard]
        if not mem:
            return
        slots = [self._slots[r][shard] for r in range(self.replication_factor)]
        self._memtables[shard] = {
            gid: None
            for gid in mem
            if not all(
                gid in slot.id_set and gid not in slot.dead for slot in slots
            )
        }

    # ------------------------------------------------------------------
    # Live mutation: streaming ingest and deletes
    # ------------------------------------------------------------------

    def insert(self, obj) -> int:
        """Index a new object on every replica; returns its global id.

        The target shard is deterministic (``gid mod n_shards``), so
        independent paths — the sequential manager, the engine, a
        rebuilt manager replaying the same stream — agree on placement.
        Dynamic-capable replicas absorb the point into their base;
        everything else serves it from the shard memtable until the
        next rebuild folds it in.
        """
        with self._replicas_lock:
            gid = len(self._objects) + len(self._tail)
            self._tail.append(obj)
            shard = gid % len(self._shard_ids)
            self._shard_ids[shard].append(gid)
            self._shard_of[gid] = shard
            buffered = False
            for r in range(self.replication_factor):
                index = self._replicas[r][shard]
                slot = self._slots[r][shard]
                if index is None or not self._absorb_locked(
                    index, slot, gid, obj
                ):
                    buffered = True
            if buffered:
                self._memtables[shard][gid] = None
        return gid

    def delete(self, gid: int) -> None:
        """Remove a live point from every future answer.

        Raises ``KeyError`` for an unknown or already-deleted gid (a
        delete is applied exactly once — double deletes are a caller
        bug, as for :meth:`DynamicMVPTree.delete`).
        """
        gid = int(gid)
        with self._replicas_lock:
            if gid not in self._shard_of:
                if gid in self._removed:
                    raise KeyError(f"id {gid} is already deleted")
                raise KeyError(f"no live object with id {gid}")
            shard = self._shard_of[gid]
            ids = self._shard_ids[shard]
            del ids[_position(ids, gid)]
            del self._shard_of[gid]
            self._removed.add(gid)
            self._memtables[shard].pop(gid, None)
            for r in range(self.replication_factor):
                slot = self._slots[r][shard]
                if gid in slot.id_set:
                    index = self._replicas[r][shard]
                    if isinstance(index, DynamicMVPTree):
                        index.delete(_position(slot.ids, gid))
                    slot.dead.add(gid)

    # ------------------------------------------------------------------
    # Fault simulation, recovery, and atomic rebuild swaps
    # ------------------------------------------------------------------

    def drop_replica(self, shard: int, replica: int) -> Optional[MetricIndex]:
        """Simulate losing one replica of one shard; returns the index.

        The slot becomes ``None``: per-shard searches targeting it raise
        :class:`ReplicaUnavailable` and the engine fails over.  The
        slot's id bookkeeping is kept — mutations keep tracking what the
        lost base covered, so assigning the returned index back (the
        test-only restore path) or :meth:`recover` both resume exact
        answers.
        """
        with self._replicas_lock:
            dropped = self._replicas[replica][shard]
            self._replicas[replica][shard] = None
        return dropped

    def swap_replica(
        self,
        shard: int,
        replica: int,
        index: MetricIndex,
        base_ids: Union[Sequence[int], ShardSnapshot],
    ) -> int:
        """Atomically install a freshly built base for one replica slot.

        ``base_ids`` maps the new index's local ids to global ids: the
        live ids it was built from, or better the :class:`ShardSnapshot`
        itself (:meth:`snapshot_shard`).  Given the snapshot, every slot
        that installs the same read-only base shares its id tables.  The
        id tables are built before the lock is taken; under it, tombstones
        for points deleted during the build, memtable routing for points
        inserted during it, and the epoch bump are one atomic step, so
        no query ever observes a half-swapped shard.  Returns the
        shard's new epoch.  The old base is simply detached — in-flight
        queries that snapshotted it finish against the old epoch and
        stay exact.
        """
        return self._swap(shard, replica, index, base_ids)

    def _swap(
        self, shard: int, replica: int, index, base_ids, *, if_lost: bool = False
    ) -> Optional[int]:
        """:meth:`swap_replica`'s body; with ``if_lost`` it installs only
        into a slot that is still lost, returning None otherwise.

        The slot's id tables are built before the lock is taken.  A
        read-only base installed from a snapshot shares the snapshot's
        tables with every other slot that installs it; an absorbing base
        appends to its tables, so it gets its own.
        """
        if not isinstance(base_ids, ShardSnapshot):
            slot = _SlotState(base_ids)
        elif self.absorbs_writes(index):
            slot = _SlotState(list(base_ids.ids), set(base_ids._slot.id_set))
        else:
            slot = base_ids._slot.sibling()
        with self._replicas_lock:
            if if_lost and self._replicas[replica][shard] is not None:
                return None
            # Held past the lock, so the old tables are freed outside it.
            detached = self._install_locked(shard, replica, index, slot)
            epoch = self._epochs[shard]
        del detached
        return epoch

    def recover(
        self,
        *,
        rng: RngLike = None,
        stores: Optional[dict] = None,
    ) -> list[tuple[int, int]]:
        """Restore every lost replica; returns the recovered slots.

        Only ``None`` slots that had base duties over a still-populated
        shard are restored — healthy replicas and base-less slots (which
        serve from the memtable) are left untouched, so recovery cost is
        proportional to what was actually lost (the crash-recovery
        contract in ``docs/resilience.md``).  Replacements are built
        over the shard's *current* live id-set; mutations that land
        during the build are reconciled at swap time exactly as for
        :meth:`swap_replica`.

        ``stores`` (optional) maps ``(shard, replica)`` to an ``.rsx``
        store path (see :func:`repro.store.sharded.save_shard_stores`):
        a lost slot with a store opens it instead of rebuilding — zero
        distance computations — after a full :meth:`Store.verify`; a
        corrupt or stale store is *refused* and the slot falls back to
        an in-memory rebuild.  A store that predates recent mutations is
        still safe: stale rows are tombstoned and missing rows routed
        through the memtable at swap time.  Raises ``TypeError`` only
        when a rebuild is actually needed on a manager restored from
        legacy serialised form without a known backend.

        A shard whose lost slots need a rebuild is built once, and that
        base installed in each of them — unless it absorbs writes, when
        each slot gets its own build.
        """
        generator = as_rng(rng)
        # Find the lost slots under the lock, snapshot and build the
        # replacement indexes with the lock *released* (construction
        # pays the metric bill — holding the lock would stall every
        # concurrent search), then swap each one in only if its slot is
        # still lost.
        with self._replicas_lock:
            lost = [
                (r, shard)
                for r in range(self.replication_factor)
                for shard in range(len(self._shard_ids))
                if self._replicas[r][shard] is None
                and self._slots[r][shard].ids
                and self._shard_ids[shard]
            ]
        snaps: dict[int, ShardSnapshot] = {}
        built: dict[int, MetricIndex] = {}
        rebuilt: list[tuple[int, int]] = []
        for r, shard in lost:
            index: Optional[MetricIndex] = None
            base_ids: Union[list[int], ShardSnapshot, None] = None
            if stores is not None and (shard, r) in stores:
                from repro.store import StoreCorrupt, open_index

                try:
                    index = open_index(stores[(shard, r)], self.metric)
                except (OSError, StoreCorrupt):
                    # Refused: fall back to a rebuild, but count it —
                    # a corrupt store is an outage signal, not noise.
                    self.store_refusal_count += 1
                    index = None
                else:
                    base_ids = index.to_global(range(len(index)))
            if index is None:
                if self._builder is None:
                    raise TypeError(
                        "cannot recover: this manager has no shard builder "
                        "(restored from a serialised form with a custom "
                        "backend?)"
                    )
                if shard not in snaps:
                    snaps[shard] = self.snapshot_shard(shard)
                base_ids = snaps[shard]
                index = built.get(shard)
                if index is None or self.absorbs_writes(index):
                    index = self._builder(base_ids.rows, self.metric, generator)
                    built[shard] = index
            if self._swap(shard, r, index, base_ids, if_lost=True) is not None:
                rebuilt.append((shard, r))
        return rebuilt

    # ------------------------------------------------------------------
    # Topology: split and merge on size skew
    # ------------------------------------------------------------------

    def split_shard(self, shard: int) -> int:
        """Split an oversized shard in two; returns the new shard number.

        Every other live id moves to a brand-new shard appended at the
        end (existing shard numbers — and therefore in-flight unit
        targets — stay valid).  The moved points are tombstoned out of
        the old shard's bases and served from the new shard's memtable
        until a rebuild gives it a proper base; both answers stay exact
        throughout.
        """
        with self._replicas_lock:
            ids = self._shard_ids[shard]
            kept, moved = ids[0::2], ids[1::2]
            if not moved:
                raise ValueError(
                    f"shard {shard} has {len(ids)} live points; "
                    "nothing to split"
                )
            new_shard = len(self._shard_ids)
            self._shard_ids[shard] = list(kept)
            self._shard_ids.append(list(moved))
            for gid in moved:
                self._shard_of[gid] = new_shard
            moved_set = set(moved)
            old_mem = self._memtables[shard]
            self._memtables[shard] = {
                gid: None for gid in old_mem if gid not in moved_set
            }
            # The new shard starts base-less: every moved point is
            # served from its memtable until the first rebuild.
            self._memtables.append(dict.fromkeys(moved))
            self._epochs[shard] += 1
            self._epochs.append(0)
            for r in range(self.replication_factor):
                slot = self._slots[r][shard]
                slot.dead.update(moved_set & slot.id_set)
                self._slots[r].append(_SlotState([]))
                self._replicas[r].append(None)
            return new_shard

    def merge_shards(self, src: int, dst: int) -> None:
        """Fold shard ``src`` into shard ``dst``; ``src`` becomes empty.

        The shard count is unchanged (unit targets stay valid): ``src``
        keeps existing as an empty shard.  Moved points are served from
        ``dst``'s memtable until a rebuild folds them into its base.
        """
        if src == dst:
            raise ValueError(f"cannot merge shard {src} into itself")
        with self._replicas_lock:
            moved = self._shard_ids[src]
            self._memtables[dst].update(dict.fromkeys(moved))
            self._shard_ids[dst] = sorted(self._shard_ids[dst] + moved)
            for gid in moved:
                self._shard_of[gid] = dst
            self._shard_ids[src] = []
            self._memtables[src] = {}
            for r in range(self.replication_factor):
                self._replicas[r][src] = None
                self._slots[r][src] = _SlotState([])
            self._epochs[src] += 1
            self._epochs[dst] += 1

    # ------------------------------------------------------------------
    # Search: one Query per shard (the engine's unit of parallel work)
    # ------------------------------------------------------------------

    def _slot_snapshot(self, shard: int, replica: Optional[int]) -> _ShardView:
        """One consistent view of a shard for a search.

        Resolves the serving slot, snapshots its tombstones, and gathers
        rows for every memtable entry its base does not cover — all
        under one lock hold.  The search itself runs outside the lock
        against the view: a swap only ever *detaches* the old base
        (never mutates it), so an in-flight query finishes exactly
        against the epoch it snapshotted.
        """
        with self._replicas_lock:
            live = self._shard_ids[shard]
            if not live:
                return _ShardView(None, (), frozenset(), 0, (), None)
            index, slot = self._resolve_locked(shard, replica)
            dead = frozenset(slot.dead)
            mem = self._memtables[shard]
            extra: list[int] = []
            if mem:
                # A memtable entry is extra unless the base actively
                # serves it — present in the base *and* not tombstoned
                # (a split can tombstone a gid that a later merge
                # routes back through the memtable).
                id_set = slot.id_set
                extra = [
                    gid
                    for gid in mem
                    if gid not in id_set or gid in dead
                ]
            extra_rows = _gather(self._objects, self._tail, extra) if extra else None
            return _ShardView(index, slot.ids, dead, len(live), extra, extra_rows)

    @staticmethod
    def _record_ok(stats: Optional[QueryStats], shard: int) -> None:
        """Mark ``shard`` completed in ``stats.shard_outcomes``.

        The sequential path records the same per-shard outcome flags the
        concurrent engine does (worst-wins, so an engine-side downgrade
        or timeout still overrides), keeping engine-vs-sequential stats
        parity field for field.
        """
        if stats is not None:
            stats.record_shard_outcome(shard, SHARD_OK)

    def _scan_memtable(self, rows, query, budget, *, stats, trace):
        """Budgeted exact scan of buffered rows: an id-ordered prefix
        under ``budget``, the unscanned suffix as missed mass (the same
        contract as :func:`repro.approx.search`'s prefix scans).  With
        ``budget=None`` every row is scanned and observed exactly like a
        linear leaf scan.

        Returns ``(distances, take, spent, missed)``.
        """
        obs = make_observation(stats, trace)
        n = len(rows)
        tracker = BudgetTracker(budget)
        take = tracker.affordable(n)
        if obs is not None:
            obs.enter_leaf(n)
        distances = np.zeros(0, dtype=np.float64)
        if take:
            tracker.charge(take)
            distances = np.asarray(
                self._batch_dist(obs, rows[:take], query), dtype=np.float64
            )
        if obs is not None:
            obs.leaf_scan(n, take)
            obs.filter_points(PRUNE_BUDGET, n - take)
        missed = n - take
        return distances, take, tracker.spent, missed

    def shard_search(
        self,
        shard: int,
        query: Query,
        *,
        replica: Optional[int] = None,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
        approximate: Optional[bool] = None,
    ):
        """Answer ``query`` on one shard; returns ``(value, report)``.

        ``value`` carries *global* ids: range hits, or k-NN neighbors
        (``k`` clamped to the shard's live size — the global merge only
        needs each shard's local top-``min(k, |shard|)``).  ``report`` is
        the shard-local :class:`~repro.approx.ApproxReport` on the
        approximate tier and ``None`` on the exact tier.  ``query.budget``
        is this shard's own allowance (see :func:`unit_query`).

        ``replica`` targets one replica (the engine's failover path);
        ``None`` uses the first live one.  Empty shards answer ``[]``; a
        populated shard with no live target raises
        :class:`ReplicaUnavailable`.  ``approximate`` overrides the tier
        (default: :attr:`Query.is_approximate`); ``True`` certifies even
        an unbudgeted, ``epsilon=0`` query on the budgeted kernels.

        The tier only picks the base-index call (the exact kernels, or
        :mod:`repro.approx`).  Everything else is shared: on a mutated
        shard the base is over-fetched by the tombstone count (so ``k``
        live answers survive the filter), tombstoned points are dropped,
        the memtable is scanned with whatever budget the base left, and
        the union merges by ``(distance, global id)`` — exact over the
        shard's live id-set, with certificates merged the same way.
        """
        if approximate is None:
            approximate = query.is_approximate
        knn = query.kind == "knn"
        view = self._slot_snapshot(shard, replica)
        kk = min(query.k, view.n_live) if knn else 0
        found: list = []
        reports = []
        remaining = query.budget
        if view.index is not None and view.ids:
            param = min(kk + len(view.dead), len(view.ids)) if knn else query.radius
            local, report = _base_search(
                view.index, query, param, approximate, stats=stats, trace=trace
            )
            ids, dead = view.ids, view.dead
            if knn:
                found = [
                    Neighbor(n.distance, int(ids[n.id]))
                    for n in local
                    if ids[n.id] not in dead
                ]
            else:
                found = [gid for gid in (ids[i] for i in local) if gid not in dead]
            if not view.mutated:
                self._record_ok(stats, shard)
                return found, report
            if report is not None:
                reports.append(report)
                if remaining is not None:
                    remaining = max(0, remaining - report.spent)
        if view.extra_ids:
            distances, take, spent, missed = self._scan_memtable(
                view.extra_rows, query.query, remaining, stats=stats, trace=trace
            )
            if knn:
                top = _TopK(kk)
                top.add(distances, np.asarray(view.extra_ids[:take], dtype=np.int64))
                mem = top.answer()
            else:
                mem = [
                    int(view.extra_ids[j])
                    for j in np.nonzero(distances <= query.radius)[0]
                ]
            if approximate:
                reports.append(
                    build_report(
                        query.kind, mem, budget=remaining,
                        epsilon=query.epsilon, spent=spent,
                        exhausted=missed > 0, possible_missed=missed,
                        min_missed_lb=0.0 if missed else float("inf"),
                        target=min(kk, len(view.extra_ids)) if knn else None,
                    )
                )
            found.extend(mem)
            if not knn:
                found.sort()
        if knn:
            found = _nearest(found, kk)
        self._record_ok(stats, shard)
        if not approximate:
            return found, None
        return found, merge_reports(
            query.kind, reports, found, budget=query.budget,
            epsilon=query.epsilon, target=kk if knn else None,
        )

    def search(
        self,
        query: Query,
        *,
        stats: Optional[QueryStats] = None,
        trace: Optional[TraceSink] = None,
        approximate: Optional[bool] = None,
    ):
        """Sequential pass of ``query`` over every shard, exactly merged.

        Each shard runs its deterministic slice of the budget
        (:func:`unit_query`), the same allowance the concurrent engine
        hands it, so both paths answer identically.  Returns
        ``(value, report)`` like :meth:`shard_search`, the report being
        the exact cross-shard certificate merge.
        """
        if approximate is None:
            approximate = query.is_approximate
        knn = query.kind == "knn"
        if knn:
            k = self.validate_k(query.k)
        else:
            self.validate_radius(query.radius)
        n_shards = self.n_shards
        values, reports = [], []
        for shard in range(n_shards):
            value, report = self.shard_search(
                shard, unit_query(query, shard, n_shards),
                stats=stats, trace=trace, approximate=approximate,
            )
            values.append(value)
            reports.append(report)
        merged = merge_knn(values, k) if knn else merge_range(values)
        if not approximate:
            return merged, None
        return merged, merge_reports(
            query.kind, reports, merged, budget=query.budget,
            epsilon=query.epsilon, target=k if knn else None,
        )

    # Thin per-kind entry points over search()/shard_search(): the
    # MetricIndex interface, plus the names benchmark and test code call.

    def shard_range_search(
        self, shard: int, query, radius: float, *, replica=None, stats=None, trace=None
    ) -> list[int]:
        """Exact range search of one shard (global ids)."""
        q = Query.range(query, radius)
        return self.shard_search(shard, q, replica=replica, stats=stats, trace=trace)[0]

    def shard_knn_search(
        self, shard: int, query, k: int, *, replica=None, stats=None, trace=None
    ) -> list[Neighbor]:
        """Exact k-NN of one shard (global ids)."""
        q = Query.knn(query, k)
        return self.shard_search(shard, q, replica=replica, stats=stats, trace=trace)[0]

    def approx_range_search(
        self, query, radius: float, *, budget=None, epsilon=0.0, stats=None, trace=None
    ):
        """Sequential budgeted range search; ``(hits, certificate)``."""
        q = Query.range(query, radius, budget=budget, epsilon=epsilon)
        return self.search(q, stats=stats, trace=trace, approximate=True)

    def approx_knn_search(
        self, query, k: int, *, budget=None, epsilon=0.0, stats=None, trace=None
    ):
        """Sequential budgeted k-NN; ``(neighbors, certificate)``."""
        q = Query.knn(query, k, budget=budget, epsilon=epsilon)
        return self.search(q, stats=stats, trace=trace, approximate=True)

    def range_search(
        self, query, radius: float, *, stats=None, trace=None
    ) -> list[int]:
        return self.search(Query.range(query, radius), stats=stats, trace=trace)[0]

    def knn_search(
        self, query, k: int, *, stats=None, trace=None
    ) -> list[Neighbor]:
        return self.search(Query.knn(query, k), stats=stats, trace=trace)[0]


def unit_query(query: Query, shard: int, n_shards: int) -> Query:
    """The query one shard unit runs: its deterministic slice of the
    budget (:func:`repro.approx.split_budget`)."""
    if query.budget is None:
        return query
    return replace(query, budget=split_budget(query.budget, n_shards)[shard])


def _base_search(index, query: Query, param, approximate: bool, *, stats, trace):
    """The leaf call: ``query`` on one plain index, ``param`` being the
    radius or k.  The exact tier runs the index's own kernels, the
    budgeted tier :mod:`repro.approx`; returns ``(value, report)``."""
    if approximate:
        fn = approx_range_search if query.kind == "range" else approx_knn_search
        return fn(
            index, query.query, param, budget=query.budget,
            epsilon=query.epsilon, stats=stats, trace=trace,
        )
    fn = index.range_search if query.kind == "range" else index.knn_search
    return fn(query.query, param, stats=stats, trace=trace), None


def search(
    index: MetricIndex,
    query: Query,
    *,
    shard: Optional[int] = None,
    replica: Optional[int] = None,
    stats: Optional[QueryStats] = None,
    trace: Optional[TraceSink] = None,
):
    """Answer one :class:`Query` unit: ``shard`` of a :class:`ShardManager`
    (see :meth:`ShardManager.shard_search`), or a whole plain index.

    The one search entry the engine, process workers and disk workers
    share; returns ``(value, report)`` with ``report`` ``None`` on the
    exact tier.
    """
    if shard is not None and isinstance(index, ShardManager):
        return index.shard_search(
            shard, query, replica=replica, stats=stats, trace=trace
        )
    param = query.k if query.kind == "knn" else query.radius
    return _base_search(
        index, query, param, query.is_approximate, stats=stats, trace=trace
    )
