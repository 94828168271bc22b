"""Array-backed frontier kernel for the tree indexes.

This is the one search path of :mod:`repro.indexes.vptree` and of the
multi-vantage trees in :mod:`repro.core.gmvptree` (``MVPTree`` is its
``v = 2`` case, with region-wide shells; the kernel is shared).  Tree
structure is flattened into numpy arrays; every step batches its
vantage-point distances through one ``_batch_dist`` call, applies the
paper's section 4.3 pruning bounds as numpy boolean masks, and pays the
surviving leaf candidates in one more batched call, so the metric, not
the interpreter, sits on the hot path.

Every search, range or k-NN, exact or budgeted
(:func:`approx_tree_range`, :func:`approx_tree_knn`), runs one frontier
loop (:func:`_frontier`) over one family adapter, where the section 4.3
bounds are written once (``children`` for shells, ``points`` for the
D_t and PATH filters).  Only the batch rule depends on the search: an
unbudgeted range search has a fixed threshold, so its batch is the whole
frontier, one tree level per iteration; k-NN and budgeted searches order
the admitted frontier by ``(lower bound, seq)`` and expand a cost-capped
prefix of it, so every distance paid tightens the k-th-distance
threshold before the next batch is chosen.

Invariants:

* every metric evaluation goes through the counting gateway
  (``_dist`` / ``_batch_dist``), so ``QueryStats.distance_calls``
  equals the :class:`~repro.metric.base.CountingMetric` delta;
* exact range search visits exactly the nodes the section 4.3 bounds
  admit — a node is entered iff no ancestor shell (and, at leaves, no
  D1/D2 or PATH filter) excludes the query ball, independent of visit
  order — and its ``QueryStats``, per-bound prunes included, match a
  node-at-a-time walk counter for counter;
* k-NN returns the exact answer set with ``(distance, id)`` tie-breaks.
  An entry or leaf point is dropped only when its lower bound
  definitely exceeds the running k-th distance, which never drops a
  true answer, and the k-best merge keeps the ``(distance, id)``-least
  k of everything paid, whatever the batch order;
* under a budget the evaluation sequence is fixed by the frontier
  schedule, which reads only what was paid so far (``spent`` and
  whether the k-best is full), never the budget's value: a budget
  truncates that one sequence, so the ids paid under ``B1`` are a
  prefix of the ids paid under ``B2 >= B1``;
* prune accounting is per bound and exact in total; one trace event may
  carry ``count > 1`` (the same aggregation
  :meth:`Observation.filter_points` uses).

The flat tables are the tree (``_kernel_cache``, :class:`TableTree`):
the level-synchronous builds write them directly, and one codec
(:func:`encode`, :func:`decode`) maps them to named sections and back,
for ``.rsx`` stores and JSON persist alike, so a decoded or mapped tree
is the same class over the same tables.  Node objects are a view made
from the tables when something walks nodes (the verifiers, farthest and
outside-range search).  Only a
:class:`~repro.core.dynamic.DynamicMVPTree` after an update starts from
nodes; it is flattened into tables once, the next time they are read,
and an update drops them.  Missing children carry ``(-inf, +inf)``
sentinel bounds so the vectorised comparisons never see them as
prunable (and never produce ``inf - inf`` NaNs); an existence mask
excludes them from every count.

Leaves are point-major (see :class:`_GMVPArrays`): a leaf's points are
one run of rows, and each point's D_t row ``(v,)`` and PATH row
``(p,)``, zero past its leaf's length, share that row.  A batch of
leaves is one :func:`_segments` call plus one row gather per table.  A
frontier iteration costs numpy calls, not distances: on concentrated
data the tree touches most points anyway, so per-iteration overhead
sets the wall time.  The loop therefore reads precomputed per-leaf
widths and ready-made child rows, gathers 2-D rows with ``take`` and
``compress`` (several times faster than fancy or boolean indexing),
reduces over long axes only, and calls ndarray methods rather than
their ``np.*`` wrappers.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro._util import gather, slack
from repro.indexes.base import MetricIndex, Neighbor
from repro.obs.stats import (
    PRUNE_BUDGET,
    PRUNE_KNN_RADIUS,
    PRUNE_LOWER_BOUND,
    PRUNE_PATH_FILTER,
    PRUNE_VP_SHELL,
    leaf_dist_kind,
    vp_shell_kind,
)
from repro.obs.trace import Observation

_INF = float("inf")
_EMPTY_IDS = np.empty(0, dtype=np.intp)
_EMPTY_F64 = np.empty(0, dtype=np.float64)

#: ``child_kind`` codes in the flattened arrays.
_NONE, _INTERNAL, _LEAF = 0, 1, 2

#: Tables the frontier reads besides a family's own, derived where the
#: tables are made (see :func:`derive`).
_DERIVED = ("leaf_size", "leaf_width", "child_rows", "path_cols", "sizes")


def _offsets(counts: list[int]) -> np.ndarray:
    """Offsets of consecutive segments with the given lengths."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    if counts:
        np.cumsum(np.asarray(counts, dtype=np.int64), out=out[1:])
    return out


def _concat(chunks: list, dtype) -> np.ndarray:
    """Every chunk raveled and concatenated into one flat array."""
    if not chunks:
        return np.zeros(0, dtype=dtype)
    return np.concatenate([np.asarray(c, dtype=dtype).ravel() for c in chunks])


def _segments(starts: np.ndarray, lens: np.ndarray):
    """Positions of the concatenated ranges ``[starts[i], starts[i] +
    lens[i])``, with each position's range number."""
    seg = np.arange(lens.size).repeat(lens)
    return (starts - lens.cumsum() + lens)[seg] + np.arange(seg.size), seg


# ----------------------------------------------------------------------
# The tables are the tree; nodes are a view
# ----------------------------------------------------------------------


class TableTree:
    """A tree whose flat tables (``_kernel_cache``) are the tree.

    ``_root`` is the node graph: a view made from the tables the first
    time something reads it.  Assigning a node graph to ``_root`` makes
    the tree start from nodes, flattened into tables by its
    ``_flatten(root)`` the next time something reads them.  A subclass
    names its view in ``_node_view(tables)``, its table class in
    ``_TABLES``, and what the codec records besides the tables in
    ``_PARAMS`` (meta key to attribute) and ``_COUNTERS``.
    """

    _kernel_cache = None
    _nodes = None

    @property
    def _root(self):
        if self._nodes is None and self._kernel_cache is not None:
            self._nodes = self._node_view(self._kernel_cache)
        return self._nodes

    @_root.setter
    def _root(self, node) -> None:
        self._nodes, self._kernel_cache = node, None

    @property
    def root(self):
        """The root node (read-only introspection for tests/persistence)."""
        return self._root

    def _plant(self, tables) -> None:
        """Make tables (built, decoded or mapped) the tree (``None``: the
        empty tree).  The tables go in first, so a concurrent search
        never finds neither tables nor nodes."""
        if tables is not None:
            derive(tables)
        self._kernel_cache, self._nodes = tables, None

    def _tables(self):
        """The tree's tables (``None``: the empty tree); a tree that
        starts from nodes is flattened once."""
        tables, nodes = self._kernel_cache, self._nodes
        if tables is None and nodes is not None:
            tables = self._kernel_cache = self._flatten(nodes)
        return tables

    def _is_empty(self) -> bool:
        """Whether the tree holds nothing, without making the view."""
        return self._nodes is None and self._kernel_cache is None


def wire(tables, internals: list, leaves: list):
    """Hang each of ``internals`` (internal nodes in slot order) from
    the child tables, over ``leaves`` (leaves in slot order); returns
    the root node."""
    kinds = (None, internals, leaves)
    for node, kids, slots in zip(
        internals, tables.child_kind.tolist(), tables.child_idx.tolist()
    ):
        node.children = [kinds[k][c] if k else None for k, c in zip(kids, slots)]
    return kinds[tables.root_kind][tables.root_idx]


# ----------------------------------------------------------------------
# vp-tree: flat tables
# ----------------------------------------------------------------------


class _VPArrays:
    """Flat tables of a vp-tree.

    Internal nodes are ``(count, m)`` tables (``cutoffs`` ``(count, m -
    1)``); leaves are offset-indexed flat tables (``leaf_offsets``,
    ``leaf_ids``).  :data:`SECTIONS` are what a codec writes.
    """

    SECTIONS = (
        "vp_ids",
        "cutoffs",
        "child_lo",
        "child_hi",
        "child_kind",
        "child_idx",
        "leaf_offsets",
        "leaf_ids",
    )

    __slots__ = (*SECTIONS, "root_kind", "root_idx", *_DERIVED)


# ----------------------------------------------------------------------
# multi-vantage tree (GMVPTree, MVPTree = v=2): flat tables
# ----------------------------------------------------------------------


class _GMVPArrays:
    """Flat tables of a multi-vantage tree.

    Internal nodes are ``(count, m**v[, v])`` tables, and ``cutoffs``
    ``(count, (m**v - 1) / (m - 1), m - 1)``: vantage point ``t``'s
    ``m**t`` rows after those of the vantage points before it.  Leaves
    are point-major, so a batch gathers every leaf's points with a
    handful of row gathers instead of a Python loop per leaf:

    * ``leaf_vp_ids`` ``(leaves, v)``: each leaf's vantage points, ``-1``
      past its count (only a leaf without points has fewer than ``v``);
    * ``leaf_offsets`` ``(leaves + 1,)`` and ``leaf_ids`` ``(N,)``: each
      leaf's points, a contiguous run of rows;
    * ``leaf_dists`` ``(N, v)``: row ``i`` holds point ``i``'s distances
      to its leaf's vantage points (the paper's D1/D2 at ``v = 2``);
    * ``leaf_paths`` ``(N, p)``: point ``i``'s PATH row, zero past its
      leaf's ``path_len``.

    All three point tables share the rows of ``leaf_ids``.
    :data:`SECTIONS` are what a codec writes.
    """

    SECTIONS = (
        "vp_ids",
        "cutoffs",
        "blo",
        "bhi",
        "child_kind",
        "child_idx",
        "leaf_vp_ids",
        "leaf_offsets",
        "leaf_ids",
        "leaf_dists",
        "leaf_paths",
    )

    __slots__ = (*SECTIONS, "root_kind", "root_idx", *_DERIVED)


def _gmvp_arrays(tree, root) -> _GMVPArrays:
    """The tables of a multi-vantage tree that starts from nodes (a
    :class:`~repro.core.dynamic.DynamicMVPTree` after an update),
    flattened from its root node.  Slot order is preorder with each
    node's children taken last-first, the order the builds give."""
    from repro.core.gmvptree import GMVPLeafNode

    m, v = tree.m, tree.v
    fanout = m**v
    internal_nodes: list = []
    leaves: list = []
    slot_of: dict[int, tuple[int, int]] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, GMVPLeafNode):
            slot_of[id(node)] = (_LEAF, len(leaves))
            leaves.append(node)
        else:
            slot_of[id(node)] = (_INTERNAL, len(internal_nodes))
            internal_nodes.append(node)
            stack.extend(c for c in node.children if c is not None)

    count = len(internal_nodes)
    arrays = _GMVPArrays()
    arrays.vp_ids = np.empty((count, v), dtype=np.intp)
    arrays.cutoffs = np.array(
        [[row for rows in node.cutoffs for row in rows] for node in internal_nodes],
        dtype=np.float64,
    ).reshape(count, (fanout - 1) // (m - 1), m - 1)
    arrays.blo = np.full((count, fanout, v), -np.inf)
    arrays.bhi = np.full((count, fanout, v), np.inf)
    arrays.child_kind = np.zeros((count, fanout), dtype=np.int8)
    arrays.child_idx = np.zeros((count, fanout), dtype=np.intp)
    for n, node in enumerate(internal_nodes):
        arrays.vp_ids[n] = node.vp_ids
        for c, (child, child_bounds) in enumerate(zip(node.children, node.bounds)):
            if child is None:
                continue
            kind, pos = slot_of[id(child)]
            arrays.child_kind[n, c] = kind
            arrays.child_idx[n, c] = pos
            for t, (lo, hi) in enumerate(child_bounds):
                if lo <= hi:
                    arrays.blo[n, c, t] = lo
                    arrays.bhi[n, c, t] = hi
    # int64/float64 throughout, as the builds make them.
    arrays.leaf_offsets = _offsets([len(n.ids) for n in leaves])
    arrays.leaf_ids = _concat([n.ids for n in leaves], np.int64)
    arrays.leaf_vp_ids = np.full((len(leaves), v), -1, dtype=np.int64)
    arrays.leaf_dists = np.zeros((arrays.leaf_ids.size, v))
    arrays.leaf_paths = np.zeros((arrays.leaf_ids.size, tree.p))
    for n, (node, start) in enumerate(zip(leaves, arrays.leaf_offsets.tolist())):
        arrays.leaf_vp_ids[n, : len(node.vp_ids)] = node.vp_ids
        if node.ids:
            rows = slice(start, start + len(node.ids))
            arrays.leaf_dists[rows] = np.asarray(node.dists).T
            arrays.leaf_paths[rows, : node.path_len] = node.paths
    arrays.root_kind, arrays.root_idx = slot_of[id(root)]
    derive(arrays)
    return arrays


# ----------------------------------------------------------------------
# The codec: one layout for every container
# ----------------------------------------------------------------------


def encode(tree) -> tuple[dict, dict]:
    """A tree as named sections plus meta: the one layout an ``.rsx``
    store (:mod:`repro.store.writer`) and JSON persist
    (:mod:`repro.persist.serialize`) both write.

    The sections are the tables of ``SECTIONS``, as they are.  Meta
    holds the root slot (``tree``; ``None`` for the empty tree), the
    construction parameters (``params``) and the node counters
    (``build_stats``).
    """
    tables = tree._tables()
    meta = {
        "params": {key: getattr(tree, name) for key, name in tree._PARAMS.items()},
        "tree": None,
        "build_stats": {name: getattr(tree, name) for name in tree._COUNTERS},
    }
    if tables is None:
        return {}, meta
    meta["tree"] = {"root_kind": int(tables.root_kind), "root_idx": int(tables.root_idx)}
    return {name: getattr(tables, name) for name in tables.SECTIONS}, meta


def decode(cls, objects, metric, sections, meta):
    """The ``cls`` tree :func:`encode` gave ``sections`` and ``meta``
    for, planted over ``objects``.  The sections become its tables as
    they are, so mapped store sections stay views.  The tree searches;
    it has no selector or rng to build with."""
    tree = cls.__new__(cls)
    MetricIndex.__init__(tree, objects, metric)
    for key, name in cls._PARAMS.items():
        setattr(tree, name, meta["params"][key])
    for name in cls._COUNTERS:
        setattr(tree, name, meta["build_stats"][name])
    tree._selector = tree._rng = None
    tables = None
    if meta["tree"] is not None:
        tables = cls._TABLES()
        for name in tables.SECTIONS:
            setattr(tables, name, sections[name])
        tables.root_kind = int(meta["tree"]["root_kind"])
        tables.root_idx = int(meta["tree"]["root_idx"])
    tree._plant(tables)
    return tree


# ----------------------------------------------------------------------
# Derived tables, made with a tree's tables
# ----------------------------------------------------------------------


def depths(arrays) -> np.ndarray:
    """Every internal node's depth below the root (the root's is 0)."""
    kind, slot = arrays.child_kind, arrays.child_idx
    depth = np.zeros(kind.shape[0], dtype=np.intp)
    root = [arrays.root_idx] if arrays.root_kind == _INTERNAL else []
    nodes, level = np.array(root, dtype=np.intp), 0
    while nodes.size:
        depth[nodes] = level
        nodes, level = slot[nodes][kind[nodes] == _INTERNAL], level + 1
    return depth


def derive(arrays) -> None:
    """Add the tables of :data:`_DERIVED` to a tree's tables: per leaf
    its point and vantage-point counts; one ready frontier row (kind,
    slot, cost) per child, so an iteration copies rows instead of
    filling columns; per internal node of a multi-vantage tree the query
    PATH columns its distances fill; and the point count of every
    subtree.  Called where tables are made, so a search never derives.
    """
    multi = isinstance(arrays, _GMVPArrays)
    v = arrays.vp_ids.shape[1] if multi else 1
    kind, slot = arrays.child_kind, arrays.child_idx
    arrays.leaf_size = np.diff(arrays.leaf_offsets)
    if multi:
        arrays.leaf_width = np.count_nonzero(arrays.leaf_vp_ids >= 0, axis=1)
    else:
        arrays.leaf_width = np.zeros_like(arrays.leaf_size)
    # Vantage points plus points per leaf (also its point count).
    cost = arrays.leaf_width + arrays.leaf_size
    depth = depths(arrays)
    if multi:
        # path_q[level + t - 1] = d(q, vp_t) while the PATH has room (a
        # node at depth d sits at level 1 + v * d); the scratch column
        # takes the rest.
        p = arrays.leaf_paths.shape[1]
        arrays.path_cols = 4 + np.minimum(v * depth[:, None] + np.arange(v), p)
    leaf, inner = kind == _LEAF, kind == _INTERNAL
    rows = np.zeros(kind.shape + (4,))
    rows[..., _KIND] = kind
    rows[..., _SLOT] = slot
    rows[..., _COST] = np.where(inner, v, 0)
    rows[leaf, _COST] = cost[slot[leaf]]
    arrays.child_rows = rows
    # Subtree point counts, deepest internal nodes first.
    own = np.zeros(kind.shape, dtype=np.int64)
    own[leaf] = cost[slot[leaf]]
    sizes = v + own.sum(axis=1)
    for level in range(int(depth.max(initial=-1)), -1, -1):
        nodes = np.flatnonzero(depth == level)
        kids = inner[nodes]
        below = np.where(kids, sizes[np.where(kids, slot[nodes], 0)], 0)
        sizes[nodes] += below.sum(axis=1)
    arrays.sizes = (sizes, cost)


# ----------------------------------------------------------------------
# The frontier: every tree search
# ----------------------------------------------------------------------
#
# The frontier is one float matrix of rows: lower bound, node kind, node
# slot, cost, plus the family's columns.  Each iteration:
#
# 1. the admitted entries (bound not definitely above the threshold)
#    are taken; when none are left the search ends;
# 2. a range search without a budget has a fixed threshold, so nothing
#    one batch pays can change the next: its batch is the whole
#    frontier, every entry of which was admitted when it joined, and the
#    frontier needs no order.  Every other search keeps the frontier
#    sorted by ``(lower bound, seq)``, where ``seq`` is insertion order,
#    and its batch is the longest admitted prefix whose cost (vantage
#    points plus leaf points per entry) fits the schedule's cap, and at
#    least one entry: ``max(k, 2 * spent)`` without a budget; under a
#    budget one entry per iteration until the k-best holds k, then
#    ``max(k, spent // 8)``.  Neither reads the budget, so a budget only
#    truncates one fixed evaluation sequence (internal vantage points,
#    leaf vantage points, then surviving leaf points in ``(lower, id)``
#    order, batch after batch), and recall is monotone in the budget;
# 3. one ``_batch_dist`` call pays the batch's vantage points, the leaf
#    points are filtered by the shell, D_t and PATH bounds against the
#    refreshed threshold, one more call pays the survivors, and the
#    admitted children of the batch's internal nodes join the frontier.
#
# An exact range search books each drop as it happens, to the section
# 4.3 bound that decided it: a child to the lowest-numbered shell that
# excludes it, a leaf point to the first D_t row that rejects it, else
# to the PATH filter.  Every other search classifies what it did NOT pay
# for when it stops, against the final threshold: entries and points
# whose bound definitely exceeds it are provably answer-free prunes; the
# rest (epsilon-scaled drops, and whatever the budget stranded)
# contribute their point count to ``possible_missed`` and their bound to
# ``min_missed_lb``, from which repro.approx derives the conservative
# recall lower bound.


class BudgetTracker:
    """Mutable distance-computation budget (``None`` = unlimited).

    Every metric evaluation a budgeted kernel makes must be charged
    here *and* routed through the counting gateway (lint rule RC013),
    so ``spent`` always equals the ``QueryStats.distance_calls`` delta.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, budget: Optional[int]):
        if budget is not None:
            budget = int(budget)
            if budget < 0:
                raise ValueError(f"budget must be >= 0, got {budget}")
        self.limit = budget
        self.spent = 0

    def affordable(self, want: int) -> int:
        """How many of ``want`` evaluations the remaining budget covers."""
        if self.limit is None:
            return want
        return max(0, min(want, self.limit - self.spent))

    def charge(self, cost: int) -> None:
        self.spent += int(cost)


class ApproxOutcome(NamedTuple):
    """What a budgeted kernel can certify about its own answer.

    ``spent`` is the number of distance computations paid (``<= budget``
    always); ``exhausted`` whether the budget ended the traversal;
    ``possible_missed`` the number of data points in subtrees/leaf tails
    that were neither scanned nor provably pruned; ``min_missed_lb`` the
    smallest lower bound among that missed mass (``inf`` when nothing
    was missed) — no unscanned point can be closer than this.
    """

    spent: int
    exhausted: bool
    possible_missed: int
    min_missed_lb: float


_NO_OUTCOME = ApproxOutcome(0, False, 0, _INF)


def top_k_order(dist: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` least ``(distance, id)`` pairs, closest
    first: an ``argpartition`` keeps every tie of the k-th distance and
    a ``lexsort`` breaks them by id."""
    if dist.size > k > 0:
        keep = np.flatnonzero(dist <= dist[dist.argpartition(k - 1)[k - 1]])
        return keep[np.lexsort((ids[keep], dist[keep]))[:k]]
    return np.lexsort((ids, dist))[:k]


class _TopK:
    """Running k-best set with exact ``(distance, id)`` tie-breaks, kept
    as sorted numpy arrays (:func:`top_k_order`).  The set depends on
    the merged values alone, so batch order cannot change the answer."""

    __slots__ = ("k", "dist", "ids")

    def __init__(self, k: int):
        self.k = k
        self.dist = _EMPTY_F64
        self.ids = _EMPTY_IDS

    def full(self) -> bool:
        return self.dist.size == self.k

    def threshold(self) -> float:
        return float(self.dist[-1]) if self.dist.size == self.k else _INF

    def add(self, distances: np.ndarray, ids: np.ndarray) -> None:
        k = self.k
        if self.dist.size == k:
            near = distances <= self.dist[-1]
            if not near.any():
                return
            distances, ids = distances[near], ids[near]
        dist = np.concatenate((self.dist, distances))
        ids = np.concatenate((self.ids, ids))
        order = top_k_order(dist, ids, k)
        self.dist, self.ids = dist[order], ids[order]

    def answer(self) -> list[Neighbor]:
        return [Neighbor(d, i) for d, i in zip(self.dist.tolist(), self.ids.tolist())]


class _Hits:
    """Range collector: a fixed threshold and the verified hits."""

    __slots__ = ("radius", "found")

    k = 1

    def __init__(self, radius: float):
        self.radius = radius
        self.found: list[np.ndarray] = []

    def full(self) -> bool:
        return True

    def threshold(self) -> float:
        return self.radius

    def add(self, distances: np.ndarray, ids: np.ndarray) -> None:
        inside = ids[distances <= self.radius]
        if inside.size:
            self.found.append(inside)

    def answer(self) -> list[int]:
        return sorted(_concat(self.found, np.int64).tolist())


#: Frontier row layout: lower bound, node kind, node slot, cost
#: (vantage points plus leaf points), then the family's columns.
_LB, _KIND, _SLOT, _COST = range(4)


class _Adapter:
    """What the frontier loop needs from a family: its vantage points,
    child rows with their section 4.3 bounds, and leaf-point bounds,
    read from the family's tables and those :func:`derive` adds."""

    __slots__ = ("arrays", "v", "width")

    def __init__(self, arrays, v: int, width: int):
        self.arrays, self.v, self.width = arrays, v, width

    def root(self) -> np.ndarray:
        arrays = self.arrays
        row = np.zeros((1, self.width))
        row[0, _KIND] = arrays.root_kind
        row[0, _SLOT] = arrays.root_idx
        if arrays.root_kind == _LEAF:
            row[0, _COST] = arrays.sizes[1][arrays.root_idx]
        else:
            row[0, _COST] = self.v
        return row

    def child_rows(self, iidx: np.ndarray, bound: np.ndarray):
        """The first four columns of one row per existing child of
        internal nodes ``iidx``, and each child's flat ``(parent,
        child)`` position.  Row gathers use ``take``, several times
        faster than fancy indexing on 2-D tables."""
        arrays = self.arrays
        flat = arrays.child_kind.take(iidx, axis=0).ravel().nonzero()[0]
        rows = arrays.child_rows.take(iidx, axis=0).reshape(-1, 4).take(flat, axis=0)
        rows[:, _LB] = bound.ravel().take(flat)
        return rows, flat



class _VPApprox(_Adapter):
    """vp-tree frontier adapter: one vantage point per internal node,
    none per leaf, no family columns.  A child's one bound is its
    shell, and a leaf point's is its leaf's."""

    __slots__ = ()

    shell_kinds = point_kinds = (PRUNE_VP_SHELL,)

    def __init__(self, arrays):
        super().__init__(arrays, 1, 4)

    def vantage(self, iidx: np.ndarray, lidx: np.ndarray):
        return self.arrays.vp_ids[iidx], None

    def children(self, iidx, dq, parents):
        arrays = self.arrays
        # An entry's bound is never negative, so neither is its children's.
        bound = np.maximum(
            np.maximum(parents[:, _LB, None], dq - arrays.child_hi.take(iidx, axis=0)),
            arrays.child_lo.take(iidx, axis=0) - dq,
        )
        return (*self.child_rows(iidx, bound), None)

    def points(self, lidx, leaves, dall, offset, real):
        arrays = self.arrays
        lens = arrays.leaf_size[lidx]
        pos, seg = _segments(arrays.leaf_offsets[lidx], lens)
        return arrays.leaf_ids[pos], leaves[:, _LB][seg], seg, lens, None


class _GMVPApprox(_Adapter):
    """Multi-vantage frontier adapter: ``v`` vantage points per internal
    node, the leaf's own per leaf.  The family columns are the entry's
    query PATH row, ``p`` wide and zero past the entry's depth, plus one
    scratch column that absorbs the distances the PATH has no room for.
    """

    __slots__ = ("p", "shell_kinds", "point_kinds")

    def __init__(self, arrays):
        self.p = int(arrays.leaf_paths.shape[1])
        v = int(arrays.vp_ids.shape[1])
        super().__init__(arrays, v, 5 + self.p)
        self.shell_kinds = tuple(map(vp_shell_kind, range(v)))
        self.point_kinds = (*map(leaf_dist_kind, range(v)), PRUNE_PATH_FILTER)

    def vantage(self, iidx: np.ndarray, lidx: np.ndarray):
        """Vantage points of internal nodes ``iidx`` (row by row), then
        of leaves ``lidx``, and the ``(leaves, v)`` mask of the leaves'
        real vantage points."""
        arrays = self.arrays
        leaf_vps = arrays.leaf_vp_ids.take(lidx, axis=0)
        real = leaf_vps >= 0
        internal_vps = arrays.vp_ids.take(iidx, axis=0).ravel()
        return np.concatenate((internal_vps, leaf_vps[real])), real

    def children(self, iidx, dq, parents):
        arrays = self.arrays
        dq3 = dq[:, None, :]
        shells = np.maximum(
            dq3 - arrays.bhi.take(iidx, axis=0), arrays.blo.take(iidx, axis=0) - dq3
        )
        # The max over the v shells one column at a time: a reduction
        # over a short last axis is ten times slower.
        bound = parents[:, _LB, None]
        for t in range(self.v):
            bound = np.maximum(bound, shells[..., t])
        # ``parents`` is the loop's own copy of the rows: extend their
        # PATH in place, then hand it down.
        width = self.width
        parents.put(
            np.arange(0, iidx.size * width, width)[:, None]
            + arrays.path_cols.take(iidx, axis=0),
            dq,
        )
        head, flat = self.child_rows(iidx, bound)
        rows = parents.take(flat // arrays.child_kind.shape[1], axis=0)
        rows[:, :4] = head
        return rows, flat, shells.reshape(-1, self.v)

    def points(self, lidx, leaves, dall, offset, real):
        """Every point of leaves ``lidx`` with its lower bound, and one
        ``(v + w, n)`` block of gaps: the D_t gaps ``|D_t - d(q, vp_t)|``
        in its first ``v`` rows and the PATH gaps in the other ``w``
        (gap-major, so reductions over a point's gaps run along the
        long axis).

        ``real`` is :meth:`vantage`'s mask and ``dall[offset:]`` the
        paid leaf vantage distances in its order.  A leaf at level ``L``
        keeps ``min(p, L - 1)`` PATH entries, exactly the prefix its
        entry's query PATH row has filled, so past it both sides are
        zero and so is the gap: leaves from different depths share one
        batch without a per-leaf length.
        """
        arrays = self.arrays
        lens = arrays.leaf_size[lidx]
        pos, seg = _segments(arrays.leaf_offsets[lidx], lens)
        dq = np.zeros(real.shape)
        dq[real] = dall[offset:]
        v, width = self.v, self.p
        gap = np.empty((v + width, pos.size))
        np.subtract(
            arrays.leaf_dists.take(pos, axis=0).T, dq.take(seg, axis=0).T, out=gap[:v]
        )
        np.subtract(
            arrays.leaf_paths.take(pos, axis=0).T,
            leaves[:, 4 : 4 + width].take(seg, axis=0).T,
            out=gap[v:],
        )
        gap = np.abs(gap, out=gap)
        lower = np.maximum(gap.max(axis=0), leaves[:, _LB][seg])
        return arrays.leaf_ids[pos], lower, seg, lens, gap


def _approx_adapter(tree):
    """The frontier adapter over ``tree``'s tables, picked by their
    class, or ``None`` for an empty tree."""
    arrays = tree._tables()
    if arrays is None:
        return None
    return (_VPApprox if isinstance(arrays, _VPArrays) else _GMVPApprox)(arrays)


def _book_by_bound(book, kinds, parts, count: int, limit: float) -> None:
    """Book ``count`` dropped items, each to the first of ``kinds`` whose
    bound exceeds ``limit``.  ``parts`` holds one row of bounds per kind
    and one column per item, any rows past the last kind booking to it;
    ``None`` books every item to the only kind."""
    if parts is None:
        book(kinds[0], count)
        return
    first = np.minimum((parts > limit).argmax(axis=0), len(kinds) - 1)
    for kind, n in zip(kinds, np.bincount(first, minlength=len(kinds)).tolist()):
        if n:
            book(kind, n)


def _frontier(tree, adapter, query, sink, approximation, budget, obs, stale_kind):
    """The frontier loop (see the section comment above).

    ``sink`` is a :class:`_TopK` or :class:`_Hits`; returns its answer
    and the :class:`ApproxOutcome`.  ``stale_kind`` books every prune
    the threshold decides, except in an exact range search, which books
    each to its own bound.
    """
    objects = tree._objects
    tracker = BudgetTracker(budget)
    v = adapter.v
    # A range search without a budget has a fixed threshold, so each of
    # its batches is the whole frontier; the exact one books every prune
    # to its own bound as it happens, and never misses anything.
    whole = budget is None and isinstance(sink, _Hits)
    exact_range = whole and approximation == 1.0

    def pay(ids: np.ndarray) -> np.ndarray:
        take = tracker.affordable(ids.size)
        if not take:
            return _EMPTY_F64
        ids = ids[:take]
        tracker.charge(take)
        distances = np.asarray(
            tree._batch_dist(obs, gather(objects, ids), query), dtype=np.float64
        )
        sink.add(distances, ids)
        return distances

    def scale(bounds: np.ndarray) -> np.ndarray:
        """Bounds as compared with :func:`cutoff` (``x * 1.0 == x``, so
        the exact search skips the multiply)."""
        return bounds * approximation if approximation != 1.0 else bounds

    def cutoff() -> float:
        """Scaled bounds above this definitely exceed the running
        threshold."""
        threshold = sink.threshold()
        return threshold + slack(threshold)

    front = adapter.root()
    dropped: list[np.ndarray] = []  # child rows the threshold dropped
    dropped_points: list[np.ndarray] = []  # their lower bounds
    stranded: list[np.ndarray] = []  # frontier rows the budget never opened
    stranded_points = _EMPTY_F64  # leaf points the budget never paid
    cut = False

    while True:
        if whole:
            take = len(front)
        else:
            # The admitted entries are a prefix of the sorted frontier.
            admitted = int(scale(front[:, _LB]).searchsorted(cutoff(), "right"))
            if budget is None:
                cap = max(sink.k, 2 * tracker.spent)
            elif sink.full():
                cap = max(sink.k, tracker.spent // 8)
            else:
                cap = 0
            take = int(front[:admitted, _COST].cumsum().searchsorted(cap, "right"))
            take = min(admitted, max(1, take))
        if not take:
            break
        batch, front = front[:take], front[take:]

        is_leaf = batch[:, _KIND] == _LEAF
        if np.count_nonzero(is_leaf):
            internal = batch.compress(~is_leaf, axis=0)
            leaves = batch.compress(is_leaf, axis=0)
        else:
            internal, leaves = batch, batch[:0]
        iidx = internal[:, _SLOT].astype(np.intp)
        lidx = leaves[:, _SLOT].astype(np.intp)
        vantage, real = adapter.vantage(iidx, lidx)
        dall = pay(vantage)
        n_int, n_leaf = iidx.size, lidx.size
        if dall.size < vantage.size:
            # An entry is opened once all of its vantage points are paid.
            cut = True
            paid = dall.size
            n_int = min(n_int, paid // v)
            ends = iidx.size * v + adapter.arrays.leaf_width[lidx].cumsum()
            n_leaf = int(ends.searchsorted(paid, "right"))
            stranded += [internal[n_int:], leaves[n_leaf:]]
            # Pad to full length; the unpaid slots are never read.
            dall = np.concatenate((dall, np.zeros(vantage.size - paid)))
        if obs is not None:
            obs.enter_internals(n_int)

        if n_leaf:
            ids, lower, seg, lens, gap = adapter.points(
                lidx[:n_leaf], leaves[:n_leaf], dall, iidx.size * v, real
            )
            if obs is not None:
                obs.enter_leaves(lens)
            limit = cutoff()
            drop = scale(lower) > limit
            n_drop = int(np.count_nonzero(drop))
            if n_drop:
                if not exact_range:
                    dropped_points.append(lower[drop])
                elif obs is not None:
                    _book_by_bound(
                        obs.filter_points,
                        adapter.point_kinds,
                        None if gap is None else gap.compress(drop, axis=1),
                        n_drop,
                        limit,
                    )
                keep = ~drop
                ids, lower, seg = ids[keep], lower[keep], seg[keep]
            if budget is not None:
                order = np.lexsort((ids, lower))
                ids, lower, seg = ids[order], lower[order], seg[order]
            scanned = pay(ids).size
            if scanned < ids.size:
                cut = True
                stranded_points = lower[scanned:]
            if obs is not None:
                obs.leaf_scans(lens, np.bincount(seg[:scanned], minlength=lens.size))

        if n_int:
            rows, flat, shells = adapter.children(
                iidx[:n_int], dall[: n_int * v].reshape(n_int, v), internal[:n_int]
            )
            limit = cutoff()
            drop = scale(rows[:, _LB]) > limit
            n_drop = int(np.count_nonzero(drop))
            if n_drop:
                if not exact_range:
                    dropped.append(rows.compress(drop, axis=0))
                elif obs is not None:
                    _book_by_bound(
                        obs.prune,
                        adapter.shell_kinds,
                        None if shells is None else shells.take(flat[drop], axis=0).T,
                        n_drop,
                        limit,
                    )
                rows = rows.compress(~drop, axis=0)
            if whole:
                front = rows
            else:
                # A stable sort puts new rows after equal bounds already there.
                front = np.concatenate((front, rows))
                front = front.take(front[:, _LB].argsort(kind="stable"), axis=0)

        if cut:
            stranded.append(front)
            break

    # Classify everything left unpaid against the final threshold.
    threshold = sink.threshold()
    limit = threshold + slack(threshold)
    missed = 0
    min_missed_lb = _INF
    if not cut:
        dropped.append(front)
    groups = [(rows, False) for rows in dropped] + [(rows, True) for rows in stranded]
    groups += [(lower, False) for lower in dropped_points]
    groups.append((stranded_points, True))
    for rows, budget_cut in groups:
        is_points = rows.ndim == 1
        bounds = rows if is_points else rows[:, _LB]
        inside = ~(bounds > limit)
        n_in = int(np.count_nonzero(inside))
        if n_in:
            min_missed_lb = min(min_missed_lb, float(bounds[inside].min()))
            if is_points:
                missed += n_in
            else:
                internal_sizes, leaf_sizes = adapter.arrays.sizes
                slot = rows[inside, _SLOT].astype(np.intp)
                is_leaf = rows[inside, _KIND] == _LEAF
                missed += int(leaf_sizes[slot[is_leaf]].sum())
                missed += int(internal_sizes[slot[~is_leaf]].sum())
        if obs is not None:
            book = obs.filter_points if is_points else obs.prune
            n_out = bounds.size - n_in
            if n_out:
                book(stale_kind, n_out)
            if n_in:
                book(PRUNE_BUDGET if budget_cut else stale_kind, n_in)

    return sink.answer(), ApproxOutcome(tracker.spent, cut, missed, min_missed_lb)


def approx_tree_knn(
    tree,
    query,
    k: int,
    *,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
    obs: Optional[Observation] = None,
) -> tuple[list[Neighbor], ApproxOutcome]:
    """Best-first k-NN over a vp/mvp/gmvp tree, exact or budgeted.

    With ``budget=None`` and ``epsilon=0`` this is the exact search
    every tree's ``knn_search`` runs: the ``(distance, id)`` k-best set
    is unique, so the answer does not depend on the batch schedule.
    Every prune is booked as ``knn-radius``.
    """
    adapter = _approx_adapter(tree)
    if adapter is None:
        return [], _NO_OUTCOME
    return _frontier(
        tree, adapter, query, _TopK(k), 1.0 + epsilon, budget, obs, PRUNE_KNN_RADIUS
    )


def approx_tree_range(
    tree,
    query,
    radius: float,
    *,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
    obs: Optional[Observation] = None,
) -> tuple[list[int], ApproxOutcome]:
    """Range search over a vp/mvp/gmvp tree, exact or budgeted.

    With ``budget=None`` and ``epsilon=0`` this is the exact search
    every tree's ``range_search`` runs: whole-frontier batches, one tree
    level each, and every prune booked to the section 4.3 bound that
    decided it (``vp-shell``/``vpN-shell``, ``leaf-dN``, ``path-filter``).
    Otherwise every returned id is still a true hit (distances are
    verified before reporting), so approximate range answers have
    precision 1; the outcome's missed mass bounds how many in-range
    points may have been skipped, and every prune is booked as
    ``lower-bound``.
    """
    adapter = _approx_adapter(tree)
    if adapter is None:
        return [], _NO_OUTCOME
    return _frontier(
        tree, adapter, query, _Hits(radius), 1.0 + epsilon, budget, obs, PRUNE_LOWER_BOUND
    )
