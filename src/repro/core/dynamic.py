"""Dynamic mvp-tree: insertions and deletions (paper section 6).

The paper's structures are static: "Handling update operations
(insertion and deletion) without major restructuring, and without
violating the balanced structure of the tree is an open problem ...
We plan to look further into this problem of extending mvp-trees with
insertion and deletion operations that would not imbalance the
structure."

:class:`DynamicMVPTree` implements the practical semi-dynamic design
that later metric-indexing systems adopted:

* **Insertion** routes the new object down the existing tree by its
  vantage-point distances (recording its PATH entries on the way, so
  leaf filtering works for inserted points exactly as for original
  ones), *expands* the traversed shells' inner/outer radii so pruning
  stays exact, and appends to the destination leaf.  A leaf that
  overflows past ``overflow_factor * k`` is locally rebuilt into a
  proper mvp-subtree using the static construction algorithm — the
  restructuring stays confined to one bucket.  The insert patches a
  copy of the flat tables (:mod:`repro.indexes.kernels`) — one leaf
  row in, an empty child turned into a new leaf row, or the rebuilt
  subtree's tables spliced in after the others — and swaps it in with
  one assignment, so a concurrent search sees the tree before or after
  the insert, never between.  :meth:`DynamicMVPTree.rebuild` lays the
  tables out in preorder again.
* **Deletion** is by tombstone: the object stays in the tree as a
  routing entry (its distances are still valid) but is filtered from
  every answer.  When tombstones exceed ``rebuild_threshold`` of the
  dataset the whole tree is rebuilt over the live objects (ids remain
  stable).

Both operations preserve the library's master invariant: every query
answers exactly like a linear scan over the *live* objects.  The price
of dynamism is gradual degradation — inserted points can unbalance
subtrees and widen shells, so searches on a heavily-updated tree cost
somewhat more than on a freshly built one (quantified in
``benchmarks/bench_dynamic.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro._util import RngLike, gather
from repro.core.mvptree import MVPTree
from repro.indexes import kernels
from repro.indexes.base import MetricIndex, Neighbor
from repro.indexes.selection import VantagePointSelector
from repro.metric.base import Metric

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.obs import QueryStats, TraceSink


class DynamicMVPTree(MVPTree):
    """An mvp-tree supporting ``insert`` and ``delete``.

    Parameters
    ----------
    objects:
        Initial dataset (may be empty); copied into an internal list so
        the tree owns its growth.
    metric, m, k, p, selector, rng:
        As for :class:`~repro.core.mvptree.MVPTree`.
    overflow_factor:
        A leaf holding more than ``overflow_factor * k`` points is
        rebuilt into a subtree.  Must be >= 1.
    rebuild_threshold:
        When tombstoned objects exceed this fraction of the dataset the
        tree is rebuilt over the live objects.  Must be in (0, 1].

    >>> from repro.metric import L2
    >>> import numpy as np
    >>> tree = DynamicMVPTree([], L2(), m=2, k=4, p=2, rng=0)
    >>> ids = [tree.insert(np.array([float(i), 0.0])) for i in range(10)]
    >>> tree.range_search(np.array([0.0, 0.0]), 1.5)
    [0, 1]
    >>> tree.delete(1)
    >>> tree.range_search(np.array([0.0, 0.0]), 1.5)
    [0]
    """

    #: The first insert builds the root of an empty tree.
    _empty_ok = True

    _PARAMS = {
        **MVPTree._PARAMS,
        "overflow_factor": "overflow_factor",
        "rebuild_threshold": "rebuild_threshold",
    }
    _COUNTERS = MVPTree._COUNTERS + ("rebuild_count", "leaf_rebuild_count")

    def __init__(
        self,
        objects: Sequence = (),
        metric: Metric = None,
        *,
        m: int = 3,
        k: int = 9,
        p: int = 5,
        selector: Union[str, VantagePointSelector] = "random",
        rng: RngLike = None,
        overflow_factor: float = 2.0,
        rebuild_threshold: float = 0.3,
    ):
        if metric is None:
            raise TypeError("DynamicMVPTree requires a metric")
        if overflow_factor < 1:
            raise ValueError(f"overflow_factor must be >= 1, got {overflow_factor}")
        if not 0 < rebuild_threshold <= 1:
            raise ValueError(
                f"rebuild_threshold must be in (0, 1], got {rebuild_threshold}"
            )
        self.overflow_factor = overflow_factor
        self.rebuild_threshold = rebuild_threshold
        #: pending tombstones: deleted ids still present in the tree
        #: as routing entries (purged by the next rebuild)
        self._deleted: set[int] = set()
        #: permanent record of every id ever deleted
        self._removed: set[int] = set()
        self.rebuild_count = 0
        self.leaf_rebuild_count = 0
        super().__init__(
            list(objects), metric, m=m, k=k, p=p, selector=selector, rng=rng
        )

    # ------------------------------------------------------------------
    # Live-set bookkeeping
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of *live* (non-deleted) objects."""
        return len(self._objects) - len(self._removed)

    @property
    def deleted_count(self) -> int:
        """Number of tombstoned objects still present as routing entries."""
        return len(self._deleted)

    @property
    def tombstone_ids(self) -> frozenset[int]:
        """Ids tombstoned in the tree (still present as routing entries)."""
        return frozenset(self._deleted)

    @property
    def removed_ids(self) -> frozenset[int]:
        """Every id ever deleted (tombstoned or purged by a rebuild)."""
        return frozenset(self._removed)

    def is_live(self, idx: int) -> bool:
        """True when ``idx`` is indexed and was never deleted."""
        return 0 <= idx < len(self._objects) and idx not in self._removed

    def validate_k(self, k: int) -> int:
        # Clamp against *all* indexed objects, not the live count: the
        # internal over-fetch must be able to pull tombstoned entries
        # so that k live answers survive the filter.
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return min(k, len(self._objects))

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, obj) -> int:
        """Index a new object; returns its id (stable forever)."""
        self._objects.append(obj)
        idx = len(self._objects) - 1
        tables = self._tables()
        if tables is None:
            paths = np.full((1, self.p), np.nan)
            self._plant(self._build([idx], paths, level=1, depth=1))
        else:
            self._plant(self._insert_into(tables, idx))
        return idx

    def _insert_into(self, tables, idx: int) -> kernels._GMVPArrays:
        """The tables with ``idx`` inserted.  The patch writes new arrays
        (unchanged ones are shared), so the live tables never change and
        :meth:`insert` swaps the result in with one assignment."""
        m, v, p = self.m, self.v, self.p
        objects = self._objects
        obj = objects[idx]
        new = kernels._GMVPArrays()
        for name in new.SECTIONS:
            setattr(new, name, getattr(tables, name))
        new.root_kind, new.root_idx = tables.root_kind, tables.root_idx
        new.blo, new.bhi = tables.blo.copy(), tables.bhi.copy()
        first = [(m**t - 1) // (m - 1) for t in range(v)]  # cutoff rows
        kind, slot, parent = tables.root_kind, tables.root_idx, None
        level = depth = 1
        path: list[float] = []  # the new point's PATH entries
        ancestors: list[int] = []  # the vantage points above it
        while kind == kernels._INTERNAL:
            node = slot
            vps = tables.vp_ids[node].tolist()
            ds = [self._dist(None, obj, objects[vp]) for vp in vps]
            path = (path + ds)[:p]
            ancestors += vps
            # Route digit by digit through the cutoffs, then widen every
            # traversed region's shells so pruning stays exact for the
            # new point (missing children keep their sentinels).
            child = 0
            for t, d in enumerate(ds):
                row = tables.cutoffs[node, first[t] + child]
                child = child * m + int(row.searchsorted(d))
            for t, d in enumerate(ds):
                width = m ** (v - 1 - t)
                region = slice(child // width * width, (child // width + 1) * width)
                new.blo[node, region, t] = np.minimum(new.blo[node, region, t], d)
                new.bhi[node, region, t] = np.maximum(new.bhi[node, region, t], d)
            parent = (node, child)
            kind = tables.child_kind[node, child]
            slot = int(tables.child_idx[node, child])
            level, depth = level + v, depth + 1

        if kind == kernels._NONE:
            # An empty child becomes a leaf holding only the new point, as
            # a vantage point, with the shell a filled child gets.
            node, child = parent
            new.leaf_vp_ids = np.vstack(
                (tables.leaf_vp_ids, [[idx] + [-1] * (v - 1)])
            ).astype(np.int64)
            new.leaf_offsets = np.append(tables.leaf_offsets, tables.leaf_offsets[-1])
            new.child_kind = tables.child_kind.copy()
            new.child_idx = tables.child_idx.copy()
            new.child_kind[node, child] = kernels._LEAF
            new.child_idx[node, child] = len(tables.leaf_offsets) - 1
            present = (new.child_kind[node] > 0)[:, None]
            lo = np.where(present, new.blo[node], np.inf)
            hi = np.where(present, new.bhi[node], -np.inf)
            lo[child] = hi[child] = ds
            lo, hi = self._shells(lo[None], hi[None], tables.cutoffs[node][None])
            new.blo[node, child], new.bhi[node, child] = lo[0, child], hi[0, child]
            self.node_count += 1
            self.leaf_count += 1
            self.vantage_point_count += 1
            self.height = max(self.height, depth)
            return new

        vps = tables.leaf_vp_ids[slot, : tables.leaf_width[slot]].tolist()
        column = [self._dist(None, obj, objects[vps[0]])]
        if len(vps) < v:
            # A leaf without data points: the newcomer becomes its next
            # vantage point (with two objects it is trivially the
            # farthest from the first, matching static construction).
            new.leaf_vp_ids = tables.leaf_vp_ids.copy()
            new.leaf_vp_ids[slot, len(vps)] = idx
            self.vantage_point_count += 1
            return new
        column += [self._dist(None, obj, objects[vp]) for vp in vps[1:]]
        row = tables.leaf_offsets[slot + 1]
        path_row = np.zeros(p)
        path_row[: len(path)] = path
        new.leaf_ids = np.insert(tables.leaf_ids, row, idx)
        new.leaf_dists = np.insert(tables.leaf_dists, row, column, axis=0)
        new.leaf_paths = np.insert(tables.leaf_paths, row, path_row, axis=0)
        new.leaf_offsets = tables.leaf_offsets.copy()
        new.leaf_offsets[slot + 1 :] += 1
        self.leaf_data_point_count += 1
        if tables.leaf_size[slot] + 1 > self.overflow_factor * self.k:
            return self._rebuild_leaf(new, slot, vps, parent, (level, depth), ancestors)
        return new

    def _rebuild_leaf(self, tables, slot: int, vps: list, parent, at, ancestors):
        """``tables`` with the overflowing leaf ``slot`` (vantage points
        ``vps``, under child ``parent``, at ``(level, depth)``) rebuilt
        into a proper mvp-subtree: the leaf's rows go, later leaf slots
        move down one, and the subtree's rows follow the others."""
        self.leaf_rebuild_count += 1
        level, depth = at
        rows = slice(tables.leaf_offsets[slot], tables.leaf_offsets[slot + 1])
        ids = tables.leaf_ids[rows].tolist()

        # Per-member PATH prefixes: the stored rows for data points, and
        # freshly computed ancestor distances for the vantage points
        # (the static leaf never needed to keep theirs).
        path_len = min(self.p, level - 1)
        paths = np.full((len(vps) + len(ids), self.p), np.nan)
        for vp_row, vp_id in enumerate(vps):
            if path_len:
                paths[vp_row, :path_len] = self._batch_dist(
                    None,
                    gather(self._objects, ancestors[:path_len]),
                    self._objects[vp_id],
                )
        paths[len(vps) :, :path_len] = tables.leaf_paths[rows, :path_len]

        # Retire the old leaf's accounting; _build re-counts the subtree.
        self.node_count -= 1
        self.leaf_count -= 1
        self.vantage_point_count -= len(vps)
        self.leaf_data_point_count -= len(ids)
        sub = self._build(vps + ids, paths, level, depth)

        count, leaves = len(tables.vp_ids), len(tables.leaf_offsets) - 2
        out = kernels._GMVPArrays()
        for name in ("vp_ids", "cutoffs", "blo", "bhi"):
            both = (getattr(tables, name), getattr(sub, name))
            setattr(out, name, np.concatenate(both))
        kind, child = tables.child_kind, tables.child_idx.copy()
        child[(kind == kernels._LEAF) & (child > slot)] -= 1
        base = np.select(
            [sub.child_kind == kernels._INTERNAL, sub.child_kind == kernels._LEAF],
            [count, leaves],
        )
        out.child_kind = np.concatenate((kind, sub.child_kind))
        out.child_idx = np.concatenate((child, sub.child_idx + base))
        out.leaf_vp_ids = np.concatenate(
            (np.delete(tables.leaf_vp_ids, slot, axis=0), sub.leaf_vp_ids)
        )
        sizes = np.delete(np.diff(tables.leaf_offsets), slot)
        out.leaf_offsets = kernels._offsets(
            np.concatenate((sizes, np.diff(sub.leaf_offsets))).tolist()
        )
        for name in ("leaf_ids", "leaf_dists", "leaf_paths"):
            kept = np.delete(getattr(tables, name), rows, axis=0)
            setattr(out, name, np.concatenate((kept, getattr(sub, name))))
        inner = sub.root_kind == kernels._INTERNAL
        root = (sub.root_kind, sub.root_idx + (count if inner else leaves))
        if parent is None:
            out.root_kind, out.root_idx = root
        else:
            out.root_kind, out.root_idx = tables.root_kind, tables.root_idx
            out.child_kind[parent], out.child_idx[parent] = root
        return out

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, idx: int) -> None:
        """Remove object ``idx`` from all future answers (tombstone)."""
        if not 0 <= idx < len(self._objects):
            raise KeyError(f"no object with id {idx}")
        if idx in self._removed:
            raise KeyError(f"object {idx} is already deleted")
        self._deleted.add(idx)
        self._removed.add(idx)
        if (
            len(self._objects) > 0
            and len(self._deleted) > self.rebuild_threshold * len(self._objects)
        ):
            self.rebuild()

    def rebuild(self) -> None:
        """Rebuild the tree over the live objects (ids stay stable).

        Purges tombstones — deleted objects stop acting as routing
        entries — and restores a fresh balanced structure.
        """
        self.rebuild_count += 1
        # Filter against the permanent record: ids purged by an earlier
        # rebuild are no longer tombstoned but must never resurrect.
        live_ids = [
            i for i in range(len(self._objects)) if i not in self._removed
        ]
        self._deleted.clear()
        self.node_count = 0
        self.leaf_count = 0
        self.internal_count = 0
        self.vantage_point_count = 0
        self.leaf_data_point_count = 0
        self.height = 0
        paths = np.full((len(live_ids), self.p), np.nan)
        self._plant(self._build(live_ids, paths, level=1, depth=1))

    # ------------------------------------------------------------------
    # Queries (filtering tombstones)
    # ------------------------------------------------------------------

    def range_search(
        self,
        query,
        radius: float,
        *,
        stats: Optional["QueryStats"] = None,
        trace: Optional["TraceSink"] = None,
    ) -> list[int]:
        radius = self.validate_radius(radius)
        if self._tables() is None:
            return []
        hits = super().range_search(query, radius, stats=stats, trace=trace)
        if not self._deleted:
            return hits
        return [idx for idx in hits if idx not in self._deleted]

    def outside_range_search(self, query, radius: float) -> list[int]:
        radius = self.validate_radius(radius)
        if self._tables() is None:
            return []
        hits = super().outside_range_search(query, radius)
        if not self._deleted:
            return hits
        return [idx for idx in hits if idx not in self._deleted]

    def knn_search(
        self,
        query,
        k: int,
        epsilon: float = 0.0,
        *,
        stats: Optional["QueryStats"] = None,
        trace: Optional["TraceSink"] = None,
    ) -> list[Neighbor]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._tables() is None:
            return []
        # Over-fetch by the tombstone count so k live answers survive
        # the filter (bounded by the rebuild threshold).
        fetch = min(len(self._objects), k + len(self._deleted))
        raw = super().knn_search(
            query, fetch, epsilon=epsilon, stats=stats, trace=trace
        )
        live = [n for n in raw if n.id not in self._deleted]
        return live[:k]

    #: Tombstones filter the answer after the search, so a round cannot
    #: pause: a dynamic tree answers an exact k-NN over shards in one.
    knn_round = MetricIndex.knn_round

    def farthest_search(self, query, k: int = 1) -> list[Neighbor]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._tables() is None:
            return []
        fetch = min(len(self._objects), k + len(self._deleted))
        raw = super().farthest_search(query, fetch)
        live = [n for n in raw if n.id not in self._deleted]
        return live[:k]
