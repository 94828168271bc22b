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
  restructuring stays confined to one bucket.
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
from repro.core.gmvptree import GMVPLeafNode
from repro.core.mvptree import MVPTree
from repro.indexes import kernels
from repro.indexes.base import Neighbor
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
        if self._is_empty():
            paths = np.full((1, self.p), np.nan)
            self._plant(self._build([idx], paths, level=1, depth=1))
            return idx
        # Shell expansion and leaf appends mutate the node graph in
        # place: the tree starts from nodes from now on, and its tables
        # go before the first change.
        root = self._root
        self._kernel_cache = None
        self._root = self._insert_into(
            root, idx, level=1, depth=1, path_entries=[], ancestors=[]
        )
        return idx

    def _insert_into(
        self,
        node,
        idx: int,
        level: int,
        depth: int,
        path_entries: list[float],
        ancestors: list[int],
    ):
        """Insert ``idx`` under ``node``; returns the (possibly new) node.

        Recursive descent; depth is bounded by the tree height.
        """
        obj = self._objects[idx]
        d_first = self._dist(None, obj, self._objects[node.vp_ids[0]])

        if isinstance(node, GMVPLeafNode):
            return self._insert_into_leaf(
                node, idx, d_first, level, depth, path_entries, ancestors
            )

        ds = [d_first] + [
            self._dist(None, obj, self._objects[vp]) for vp in node.vp_ids[1:]
        ]
        path_entries.extend(d for t, d in enumerate(ds) if level + t <= self.p)
        ancestors.extend(node.vp_ids)

        # Route digit by digit through the cutoffs, then expand every
        # traversed region's shell so triangle-inequality pruning
        # remains exact for the inserted point.
        m, v = self.m, self.v
        slot = 0
        for t, d in enumerate(ds):
            slot = slot * m + self._route(d, node.cutoffs[t][slot])
        for t, d in enumerate(ds):
            width = m ** (v - 1 - t)
            start = slot // width * width
            for c in range(start, start + width):
                lo, hi = node.bounds[c][t]
                node.bounds[c][t] = (min(lo, d), max(hi, d))

        child = node.children[slot]
        if child is None:
            leaf_level = level + v
            path_len = min(self.p, leaf_level - 1)
            self.node_count += 1
            self.leaf_count += 1
            self.vantage_point_count += 1
            self.height = max(self.height, depth + 1)
            node.children[slot] = GMVPLeafNode(
                [idx], [], np.empty((0, 0)), np.empty((0, path_len)), path_len
            )
        else:
            node.children[slot] = self._insert_into(
                child, idx, level + v, depth + 1, path_entries, ancestors
            )
        return node

    def _flatten(self, root) -> kernels._GMVPArrays:
        """The tables of the node graph an update left (see
        :meth:`insert`)."""
        return kernels._gmvp_arrays(self, root)

    @staticmethod
    def _route(distance: float, cutoffs: list[float]) -> int:
        """Pick the partition whose cutoff band contains ``distance``."""
        for i, cutoff in enumerate(cutoffs):
            if distance <= cutoff:
                return i
        return len(cutoffs)  # the outermost partition

    def _insert_into_leaf(
        self,
        leaf: GMVPLeafNode,
        idx: int,
        d_first: float,
        level: int,
        depth: int,
        path_entries: list[float],
        ancestors: list[int],
    ):
        if len(leaf.vp_ids) < self.v:
            # A leaf without data points: the newcomer becomes its next
            # vantage point (with two objects it is trivially the
            # farthest from the first, matching static construction).
            leaf.vp_ids.append(idx)
            self.vantage_point_count += 1
            return leaf

        obj = self._objects[idx]
        column = [d_first] + [
            self._dist(None, obj, self._objects[vp]) for vp in leaf.vp_ids[1:]
        ]
        n_prev = len(leaf.ids)
        leaf.ids.append(idx)
        leaf.dists = np.hstack(
            [
                leaf.dists.reshape(len(leaf.vp_ids), n_prev),
                np.asarray(column, dtype=float).reshape(-1, 1),
            ]
        )
        row = np.asarray(path_entries[: leaf.path_len], dtype=float)
        # reshape with an explicit row count: (-1, 0) is invalid when
        # path_len == 0 (a leaf directly under the root keeps no PATH).
        previous = leaf.paths.reshape(n_prev, leaf.path_len)
        leaf.paths = np.vstack([previous, row.reshape(1, leaf.path_len)])
        self.leaf_data_point_count += 1

        if len(leaf.ids) > self.overflow_factor * self.k:
            return self._rebuild_leaf(leaf, level, depth, ancestors)
        return leaf

    def _rebuild_leaf(
        self, leaf: GMVPLeafNode, level: int, depth: int, ancestors: list[int]
    ):
        """Rebuild an overflowing leaf into a proper mvp-subtree."""
        self.leaf_rebuild_count += 1
        vp_count = len(leaf.vp_ids)
        member_ids = list(leaf.vp_ids) + list(leaf.ids)

        # Per-member PATH prefixes: the stored rows for data points, and
        # freshly computed ancestor distances for the vantage points
        # (the static leaf never needed to keep theirs).
        path_len = leaf.path_len
        paths = np.full((len(member_ids), self.p), np.nan)
        for vp_row, vp_id in enumerate(leaf.vp_ids):
            if path_len:
                paths[vp_row, :path_len] = self._batch_dist(
                    None,
                    gather(self._objects, ancestors[:path_len]),
                    self._objects[vp_id],
                )
        if leaf.ids:
            paths[vp_count:, :path_len] = leaf.paths

        # Retire the old leaf's accounting; _build re-counts the subtree.
        self.node_count -= 1
        self.leaf_count -= 1
        self.vantage_point_count -= vp_count
        self.leaf_data_point_count -= len(leaf.ids)
        return self._node_view(self._build(member_ids, paths, level, depth), level)

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
        if self._is_empty():
            return []
        hits = super().range_search(query, radius, stats=stats, trace=trace)
        if not self._deleted:
            return hits
        return [idx for idx in hits if idx not in self._deleted]

    def outside_range_search(self, query, radius: float) -> list[int]:
        radius = self.validate_radius(radius)
        if self._is_empty():
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
        if self._is_empty():
            return []
        # Over-fetch by the tombstone count so k live answers survive
        # the filter (bounded by the rebuild threshold).
        fetch = min(len(self._objects), k + len(self._deleted))
        raw = super().knn_search(
            query, fetch, epsilon=epsilon, stats=stats, trace=trace
        )
        live = [n for n in raw if n.id not in self._deleted]
        return live[:k]

    def farthest_search(self, query, k: int = 1) -> list[Neighbor]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._is_empty():
            return []
        fetch = min(len(self._objects), k + len(self._deleted))
        raw = super().farthest_search(query, fetch)
        live = [n for n in raw if n.id not in self._deleted]
        return live[:k]
