"""Array-backed frontier kernels for the tree indexes.

These are the search paths of :mod:`repro.indexes.vptree` and of the
multi-vantage trees in :mod:`repro.core.gmvptree` (``MVPTree`` is its
``v = 2`` case, with region-wide shells; the kernels are shared).  They run
level-synchronously: every wave batches *all* of its vantage-point
distances through one ``_batch_dist`` call, applies the paper's section
4.3 pruning bounds as numpy boolean masks over the whole frontier, and
gathers the surviving leaf candidates into a single batched distance
computation, so the metric, not the interpreter, sits on the hot path.

Invariants:

* every metric evaluation goes through the counting gateway
  (``_dist`` / ``_batch_dist``), so ``QueryStats.distance_calls``
  equals the :class:`~repro.metric.base.CountingMetric` delta;
* range search visits exactly the nodes the section 4.3 bounds admit —
  a node is entered iff no ancestor shell (and, at leaves, no D1/D2 or
  PATH filter) excludes the query ball, independent of visit order — and
  its ``QueryStats`` match a node-at-a-time walk counter for counter;
* k-NN returns the exact answer set with ``(distance, id)`` tie-breaks.
  The running k-th-distance threshold is refreshed once per wave rather
  than per node, which can only *loosen* pruning (a stale threshold
  admits extra candidates, never drops true answers), so batched k-NN
  may pay slightly more distance computations than a strictly
  sequential best-first order in exchange for vectorised execution;
* prune accounting is per bound and exact in total; one trace event may
  carry ``count > 1`` (the same aggregation
  :meth:`Observation.filter_points` uses).

Tree structure is flattened into numpy arrays once per index and cached
on the instance (``_kernel_cache``); mutating structures
(:class:`~repro.core.dynamic.DynamicMVPTree`) reset the cache on every
update.  Missing children carry ``(-inf, +inf)`` sentinel bounds so the
vectorised comparisons never see them as prunable (and never produce
``inf - inf`` NaNs); an existence mask excludes them from every count.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional

import numpy as np

from repro._util import PRUNE_EPSILON, gather, slack
from repro.indexes.base import Neighbor
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

_EMPTY_IDS = np.empty(0, dtype=np.intp)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_KIND = np.empty(0, dtype=np.int8)

#: ``child_kind`` codes in the flattened arrays.
_NONE, _INTERNAL, _LEAF = 0, 1, 2


def _slack_of(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro._util.slack` (same constant, same formula)."""
    return PRUNE_EPSILON * (1.0 + np.abs(values))


def _shell_miss(dq, radius: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised shell-intersection test (paper section 4.3).

    True where ``definitely_greater(dq - radius, hi)`` or
    ``definitely_less(dq + radius, lo)`` — the query ball provably misses
    the spherical shell ``[lo, hi]`` (paper Appendix), with the same
    epsilon slack the scalar comparisons carry.
    """
    return ((dq - radius) > hi + _slack_of(hi)) | ((dq + radius) < lo - _slack_of(lo))


def _admitted(bounds: np.ndarray, approximation: float, threshold: float) -> np.ndarray:
    """Mask of entries whose lower bound does NOT definitely exceed the
    current k-th distance (``not definitely_greater(b * approx, thr)``)."""
    return ~(bounds * approximation > threshold + slack(threshold))


class _KBest:
    """Running k-best set with exact ``(distance, id)`` tie-breaks.

    A max-heap via negation; the k-best set is determined by the item
    values alone, so insertion order (and therefore wave order) cannot
    change the final answer.
    """

    __slots__ = ("k", "heap")

    def __init__(self, k: int):
        self.k = k
        self.heap: list[tuple[float, int]] = []

    def consider_many(self, distances: list, ids: list) -> None:
        heap, k = self.heap, self.k
        for distance, idx in zip(distances, ids):
            item = (-distance, -idx)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)

    def threshold(self) -> float:
        return -self.heap[0][0] if len(self.heap) == self.k else float("inf")

    def sorted_neighbors(self) -> list[Neighbor]:
        return sorted(
            (Neighbor(-d, -i) for d, i in self.heap),
            key=lambda n: (n.distance, n.id),
        )


# ----------------------------------------------------------------------
# vp-tree: flattened structure + kernels
# ----------------------------------------------------------------------


class _VPArrays:
    """Flat array view of a static vp-tree (built once, cached)."""

    __slots__ = (
        "vp_ids",
        "child_lo",
        "child_hi",
        "child_kind",
        "child_idx",
        "leaf_ids",
        "root_kind",
        "root_idx",
        "sizes",
    )


def _vp_arrays(tree) -> _VPArrays:
    cached = getattr(tree, "_kernel_cache", None)
    if cached is not None:
        return cached
    from repro.indexes.vptree import VPLeafNode

    m = tree.m
    internal_nodes: list = []
    leaf_nodes: list = []
    slot_of: dict[int, tuple[int, int]] = {}
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if isinstance(node, VPLeafNode):
            slot_of[id(node)] = (_LEAF, len(leaf_nodes))
            leaf_nodes.append(node)
        else:
            slot_of[id(node)] = (_INTERNAL, len(internal_nodes))
            internal_nodes.append(node)
            stack.extend(c for c in node.children if c is not None)

    count = len(internal_nodes)
    arrays = _VPArrays()
    arrays.vp_ids = np.empty(count, dtype=np.intp)
    arrays.child_lo = np.full((count, m), -np.inf)
    arrays.child_hi = np.full((count, m), np.inf)
    arrays.child_kind = np.zeros((count, m), dtype=np.int8)
    arrays.child_idx = np.zeros((count, m), dtype=np.intp)
    for n, node in enumerate(internal_nodes):
        arrays.vp_ids[n] = node.vp_id
        for c, (child, (lo, hi)) in enumerate(zip(node.children, node.bounds)):
            if child is None:
                continue
            kind, pos = slot_of[id(child)]
            arrays.child_kind[n, c] = kind
            arrays.child_idx[n, c] = pos
            arrays.child_lo[n, c] = lo
            arrays.child_hi[n, c] = hi
    arrays.leaf_ids = [np.asarray(node.ids, dtype=np.intp) for node in leaf_nodes]
    arrays.root_kind, arrays.root_idx = slot_of[id(tree._root)]
    tree._kernel_cache = arrays
    return arrays


def vp_range(tree, query, radius: float, obs: Optional[Observation]) -> list[int]:
    """Level-synchronous vp-tree range search: visits exactly the nodes
    whose shells the query ball can reach."""
    arrays = _vp_arrays(tree)
    objects = tree._objects
    hits: list[np.ndarray] = []
    if arrays.root_kind == _INTERNAL:
        frontier = np.array([arrays.root_idx], dtype=np.intp)
        leaf_wave = _EMPTY_IDS
    else:
        frontier = _EMPTY_IDS
        leaf_wave = np.array([arrays.root_idx], dtype=np.intp)

    while frontier.size or leaf_wave.size:
        next_frontier = _EMPTY_IDS
        if frontier.size:
            if obs is not None:
                for _ in range(frontier.size):
                    obs.enter_internal()
            vps = arrays.vp_ids[frontier]
            dq = np.asarray(
                tree._batch_dist(obs, gather(objects, vps), query), dtype=np.float64
            )
            inside = vps[dq <= radius]
            if inside.size:
                hits.append(inside)
            miss = _shell_miss(
                dq[:, None], radius, arrays.child_lo[frontier], arrays.child_hi[frontier]
            )
            kind = arrays.child_kind[frontier]
            exists = kind != _NONE
            if obs is not None:
                pruned = int(np.count_nonzero(exists & miss))
                if pruned:
                    obs.prune(PRUNE_VP_SHELL, pruned)
            admit = exists & ~miss
            child_idx = arrays.child_idx[frontier]
            next_frontier = child_idx[admit & (kind == _INTERNAL)]
            leaf_wave = child_idx[admit & (kind == _LEAF)]
        if leaf_wave.size:
            segments = [arrays.leaf_ids[j] for j in leaf_wave.tolist()]
            if obs is not None:
                for segment in segments:
                    obs.enter_leaf(len(segment))
                    obs.leaf_scan(len(segment), len(segment))
            candidates = segments[0] if len(segments) == 1 else np.concatenate(segments)
            distances = np.asarray(
                tree._batch_dist(obs, gather(objects, candidates), query),
                dtype=np.float64,
            )
            inside = candidates[distances <= radius]
            if inside.size:
                hits.append(inside)
            leaf_wave = _EMPTY_IDS
        frontier = next_frontier

    if not hits:
        return []
    out = hits[0] if len(hits) == 1 else np.concatenate(hits)
    out.sort()
    return out.tolist()


def vp_knn(
    tree, query, k: int, approximation: float, obs: Optional[Observation]
) -> list[Neighbor]:
    """Wave-batched best-first vp-tree k-NN (exact answers; threshold
    refreshed per wave instead of per node)."""
    arrays = _vp_arrays(tree)
    objects = tree._objects
    best = _KBest(k)
    bounds = np.zeros(1)
    kinds = np.array([arrays.root_kind], dtype=np.int8)
    idxs = np.array([arrays.root_idx], dtype=np.intp)

    while bounds.size:
        alive = _admitted(bounds, approximation, best.threshold())
        if obs is not None:
            stale = int(np.count_nonzero(~alive))
            if stale:
                obs.prune(PRUNE_KNN_RADIUS, stale)
        bounds, kinds, idxs = bounds[alive], kinds[alive], idxs[alive]
        is_internal = kinds == _INTERNAL
        iidx, ib = idxs[is_internal], bounds[is_internal]

        dq = _EMPTY_F64
        if iidx.size:
            if obs is not None:
                for _ in range(iidx.size):
                    obs.enter_internal()
            vps = arrays.vp_ids[iidx]
            dq = np.asarray(
                tree._batch_dist(obs, gather(objects, vps), query), dtype=np.float64
            )
            best.consider_many(dq.tolist(), vps.tolist())

        lidx, lb = idxs[~is_internal], bounds[~is_internal]
        if lidx.size:
            # vp distances above may have tightened the threshold; leaves
            # admitted at wave start can be pruned before paying their scan.
            scan = _admitted(lb, approximation, best.threshold())
            if obs is not None:
                stale = int(np.count_nonzero(~scan))
                if stale:
                    obs.prune(PRUNE_KNN_RADIUS, stale)
            segments = [arrays.leaf_ids[j] for j in lidx[scan].tolist()]
            if segments:
                if obs is not None:
                    for segment in segments:
                        obs.enter_leaf(len(segment))
                        obs.leaf_scan(len(segment), len(segment))
                candidates = (
                    segments[0] if len(segments) == 1 else np.concatenate(segments)
                )
                distances = np.asarray(
                    tree._batch_dist(obs, gather(objects, candidates), query),
                    dtype=np.float64,
                )
                best.consider_many(distances.tolist(), candidates.tolist())

        if iidx.size:
            lo = arrays.child_lo[iidx]
            hi = arrays.child_hi[iidx]
            dqc = dq[:, None]
            child_bound = np.maximum(
                np.maximum(ib[:, None], dqc - hi), np.maximum(lo - dqc, 0.0)
            )
            kind = arrays.child_kind[iidx]
            exists = kind != _NONE
            admit = _admitted(child_bound, approximation, best.threshold())
            if obs is not None:
                pruned = int(np.count_nonzero(exists & ~admit))
                if pruned:
                    obs.prune(PRUNE_VP_SHELL, pruned)
            take = exists & admit
            bounds = child_bound[take]
            kinds = kind[take]
            idxs = arrays.child_idx[iidx][take]
        else:
            bounds, kinds, idxs = _EMPTY_F64, _EMPTY_KIND, _EMPTY_IDS

    return best.sorted_neighbors()


# ----------------------------------------------------------------------
# multi-vantage tree (GMVPTree, MVPTree = v=2): flat structure + kernels
# ----------------------------------------------------------------------


class _GMVPArrays:
    """Flat array view of a multi-vantage tree (built once, cached).

    Internal nodes become ``(count, m**v[, v])`` tables.  Leaves become
    offset-indexed flat tables — vantage points, ids, the D_t rows
    (``(rows, n)`` row-major per leaf) and the PATH rows (``(n,
    path_len)`` per leaf) — under the same names as the ``.rsx``
    sections they are written to, so a store maps them back unchanged
    and a wave gathers every leaf's points with a handful of numpy
    calls instead of a Python loop per leaf.
    """

    __slots__ = (
        "vp_ids",
        "blo",
        "bhi",
        "child_kind",
        "child_idx",
        "leaf_vp_offsets",
        "leaf_vp_ids",
        "leaf_offsets",
        "leaf_ids",
        "leaf_dist_offsets",
        "leaf_dists",
        "leaf_path_len",
        "leaf_path_offsets",
        "leaf_paths",
        "root_kind",
        "root_idx",
        "sizes",
    )


#: The flat leaf tables of :class:`_GMVPArrays` (also the ``.rsx``
#: section names of the ``mvpt`` and ``gmvpt`` families).
GMVP_LEAF_TABLES = (
    "leaf_vp_offsets",
    "leaf_vp_ids",
    "leaf_offsets",
    "leaf_ids",
    "leaf_dist_offsets",
    "leaf_dists",
    "leaf_path_len",
    "leaf_path_offsets",
    "leaf_paths",
)


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


def _gmvp_arrays(tree) -> _GMVPArrays:
    cached = getattr(tree, "_kernel_cache", None)
    if cached is not None:
        return cached
    from repro.core.gmvptree import GMVPLeafNode

    v = tree.v
    fanout = tree.m**v
    internal_nodes: list = []
    leaves: list = []
    slot_of: dict[int, tuple[int, int]] = {}
    stack = [tree._root]
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
    # int64/float64 throughout: the tables are written to stores as is.
    arrays.leaf_vp_offsets = _offsets([len(n.vp_ids) for n in leaves])
    arrays.leaf_vp_ids = _concat([n.vp_ids for n in leaves], np.int64)
    arrays.leaf_offsets = _offsets([len(n.ids) for n in leaves])
    arrays.leaf_ids = _concat([n.ids for n in leaves], np.int64)
    arrays.leaf_dist_offsets = _offsets([n.dists.size for n in leaves])
    arrays.leaf_dists = _concat([n.dists for n in leaves], np.float64)
    arrays.leaf_path_len = np.asarray([n.path_len for n in leaves], dtype=np.int64)
    arrays.leaf_path_offsets = _offsets([n.paths.size for n in leaves])
    arrays.leaf_paths = _concat([n.paths for n in leaves], np.float64)
    arrays.root_kind, arrays.root_idx = slot_of[id(tree._root)]
    tree._kernel_cache = arrays
    return arrays


def _segments(starts: np.ndarray, lens: np.ndarray):
    """Positions of the concatenated ranges ``[starts[i], starts[i] +
    lens[i])``, with each position's range number and offset in it."""
    seg = np.repeat(np.arange(lens.size), lens)
    local = np.arange(seg.size) - np.repeat(np.cumsum(lens) - lens, lens)
    return starts[seg] + local, seg, local


def _wave_roots(arrays):
    """Initial (internal, leaf) wave arrays for the root node."""
    root = np.array([arrays.root_idx], dtype=np.intp)
    no_path = np.empty((1, 0))
    if arrays.root_kind == _INTERNAL:
        return root, no_path, _EMPTY_IDS, np.empty((0, 0))
    return _EMPTY_IDS, np.empty((0, 0)), root, no_path


def _grow_paths(paths: np.ndarray, level: int, p: int, dq: np.ndarray) -> np.ndarray:
    """Append this wave's vantage-point distances to the query's PATH
    prefix (``path_q[level + t - 1] = dq[:, t]``)."""
    keep = max(0, min(dq.shape[1], p - level + 1))
    if not keep:
        return paths
    return np.hstack([paths, dq[:, :keep]])


class _LeafWave:
    """Every point of one wave's leaves, gathered from the flat tables:
    ids, the query-minus-precomputed distance gaps ``|D_t - d(q, vp_t)|``
    as a ``(v, n)`` block, and the PATH gaps as ``(n, path_len)``."""

    __slots__ = ("lens", "seg", "ids", "dist_gap", "path_gap")

    def __init__(self, arrays, lidx, lpaths, dall, offset: int):
        self.lens = arrays.leaf_offsets[lidx + 1] - arrays.leaf_offsets[lidx]
        pos, seg, local = _segments(arrays.leaf_offsets[lidx], self.lens)
        self.seg = seg
        self.ids = arrays.leaf_ids[pos]
        widths = arrays.leaf_vp_offsets[lidx + 1] - arrays.leaf_vp_offsets[lidx]
        # Every leaf holding points keeps all v vantage points, so its
        # D_t row t sits t * n past row 0 and d(q, vp_t) t past d(q, vp_0).
        rows = np.arange(arrays.vp_ids.shape[1])[:, None]
        first_vp = offset + np.cumsum(widths) - widths
        dist_pos = arrays.leaf_dist_offsets[lidx][seg] + local
        self.dist_gap = np.abs(
            arrays.leaf_dists[dist_pos + rows * self.lens[seg]]
            - dall[first_vp[seg] + rows]
        )
        # A leaf keeps min(p, vantage points above it) PATH entries: the
        # width of the query's PATH prefix at this level.
        path_len = lpaths.shape[1]
        self.path_gap = None
        if path_len and seg.size:
            path_pos = arrays.leaf_path_offsets[lidx][seg] + local * path_len
            self.path_gap = np.abs(
                arrays.leaf_paths[path_pos[:, None] + np.arange(path_len)]
                - lpaths[seg]
            )

    def scans(self, obs: Optional[Observation], keep: np.ndarray) -> None:
        """One ``leaf_scan`` per non-empty leaf of the wave."""
        if obs is not None:
            scanned = np.bincount(self.seg[keep], minlength=self.lens.size)
            for seen, count in zip(self.lens.tolist(), scanned.tolist()):
                if seen:
                    obs.leaf_scan(seen, count)


def _wave_distances(tree, arrays, iidx, lidx, query, obs):
    """One batch for every vantage-point distance of a wave: returns the
    batched ids and distances and the internal ``(n_int, v)`` block."""
    n_int = iidx.size
    if obs is not None:
        for _ in range(n_int):
            obs.enter_internal()
        for size in (arrays.leaf_offsets[lidx + 1] - arrays.leaf_offsets[lidx]).tolist():
            obs.enter_leaf(size)
    leaf_vps, _, _ = _segments(
        arrays.leaf_vp_offsets[lidx],
        arrays.leaf_vp_offsets[lidx + 1] - arrays.leaf_vp_offsets[lidx],
    )
    all_vps = np.concatenate(
        [arrays.vp_ids[iidx].ravel(), arrays.leaf_vp_ids[leaf_vps]]
    )
    dall = np.asarray(
        tree._batch_dist(obs, gather(tree._objects, all_vps), query),
        dtype=np.float64,
    )
    v = arrays.vp_ids.shape[1]
    return all_vps, dall, dall[: n_int * v].reshape(n_int, v)


def gmvp_range(tree, query, radius: float, obs: Optional[Observation]) -> list[int]:
    """Level-synchronous range search (paper section 4.3): visits
    exactly the nodes the shell and PATH bounds admit."""
    if tree._root is None:
        return []
    arrays = _gmvp_arrays(tree)
    p = tree.p
    loose = radius + slack(radius)
    out: list[int] = []
    iidx, ipaths, lidx, lpaths = _wave_roots(arrays)
    level = 1

    while iidx.size or lidx.size:
        n_int = iidx.size
        all_vps, dall, dq = _wave_distances(tree, arrays, iidx, lidx, query, obs)
        v = dq.shape[1]
        out.extend(all_vps[dall <= radius].tolist())

        # Leaf candidate selection: the D_t filters, then the PATH
        # filter (paper step 2.2), over every leaf point of the wave;
        # one batched verification pays the survivors.
        if lidx.size:
            wave = _LeafWave(arrays, lidx, lpaths, dall, n_int * v)
            ok = wave.dist_gap <= loose
            if obs is None:
                keep = ok.all(axis=0)
            else:
                # Each point is booked to the first row that rejects it.
                passed = np.logical_and.accumulate(ok, axis=0)
                before = wave.ids.size
                for t, after in enumerate(np.count_nonzero(passed, axis=1).tolist()):
                    obs.filter_points(leaf_dist_kind(t), before - after)
                    before = after
                keep = passed[-1]
            if wave.path_gap is not None:
                path_ok = np.all(wave.path_gap <= loose, axis=1)
                if obs is not None:
                    obs.filter_points(
                        PRUNE_PATH_FILTER, int(np.count_nonzero(keep & ~path_ok))
                    )
                keep &= path_ok
            wave.scans(obs, keep)
            candidates = wave.ids[keep]
            if candidates.size:
                distances = np.asarray(
                    tree._batch_dist(obs, gather(tree._objects, candidates), query),
                    dtype=np.float64,
                )
                out.extend(candidates[distances <= radius].tolist())

        if n_int:
            child_paths = _grow_paths(ipaths, level, p, dq)
            miss_t = _shell_miss(
                dq[:, None, :], radius, arrays.blo[iidx], arrays.bhi[iidx]
            )
            kind = arrays.child_kind[iidx]
            exists = kind != _NONE
            any_miss = miss_t.any(axis=2)
            if obs is not None:
                pruned = exists & any_miss
                if pruned.any():
                    # First-bound-wins attribution: the lowest vp index,
                    # one prune per child subtree.
                    first_t = np.argmax(miss_t, axis=2)
                    for t in range(v):
                        count = int(np.count_nonzero(pruned & (first_t == t)))
                        if count:
                            obs.prune(vp_shell_kind(t), count)
            admit = exists & ~any_miss
            w_sel, c_sel = np.nonzero(admit)
            child_kinds = kind[w_sel, c_sel]
            child_slots = arrays.child_idx[iidx][w_sel, c_sel]
            rows = child_paths[w_sel]
            internal_sel = child_kinds == _INTERNAL
            iidx, ipaths = child_slots[internal_sel], rows[internal_sel]
            lidx, lpaths = child_slots[~internal_sel], rows[~internal_sel]
        else:
            iidx, ipaths = _EMPTY_IDS, np.empty((0, 0))
            lidx, lpaths = _EMPTY_IDS, np.empty((0, 0))
        level += v

    out.sort()
    return out


def gmvp_knn(
    tree, query, k: int, approximation: float, obs: Optional[Observation]
) -> list[Neighbor]:
    """Wave-batched best-first k-NN (exact answers)."""
    if tree._root is None:
        return []
    arrays = _gmvp_arrays(tree)
    p = tree.p
    best = _KBest(k)
    iidx, ipaths, lidx, lpaths = _wave_roots(arrays)
    ib = np.zeros(iidx.size)
    lb = np.zeros(lidx.size)
    level = 1

    while iidx.size or lidx.size:
        threshold = best.threshold()
        ialive = _admitted(ib, approximation, threshold)
        lalive = _admitted(lb, approximation, threshold)
        if obs is not None:
            stale = int(np.count_nonzero(~ialive)) + int(np.count_nonzero(~lalive))
            if stale:
                obs.prune(PRUNE_KNN_RADIUS, stale)
        iidx, ipaths, ib = iidx[ialive], ipaths[ialive], ib[ialive]
        lidx, lpaths = lidx[lalive], lpaths[lalive]
        n_int = iidx.size
        if not n_int and not lidx.size:
            break
        all_vps, dall, dq = _wave_distances(tree, arrays, iidx, lidx, query, obs)
        v = dq.shape[1]
        best.consider_many(dall.tolist(), all_vps.tolist())

        # Leaf scans: precomputed-distance lower bounds select the scan
        # set against the post-vantage-point threshold, one batch pays
        # all surviving candidates.
        if lidx.size:
            wave = _LeafWave(arrays, lidx, lpaths, dall, n_int * v)
            lower = wave.dist_gap.max(axis=0, initial=0.0)
            if wave.path_gap is not None:
                lower = np.maximum(lower, wave.path_gap.max(axis=1))
            scan = _admitted(lower, approximation, best.threshold())
            if obs is not None:
                obs.filter_points(
                    PRUNE_KNN_RADIUS, wave.ids.size - int(np.count_nonzero(scan))
                )
            wave.scans(obs, scan)
            candidates = wave.ids[scan]
            if candidates.size:
                distances = np.asarray(
                    tree._batch_dist(obs, gather(tree._objects, candidates), query),
                    dtype=np.float64,
                )
                best.consider_many(distances.tolist(), candidates.tolist())

        if n_int:
            child_paths = _grow_paths(ipaths, level, p, dq)
            threshold = best.threshold()
            shells = np.maximum(
                dq[:, None, :] - arrays.bhi[iidx], arrays.blo[iidx] - dq[:, None, :]
            )
            shell_max = shells.max(axis=2)
            bound = np.maximum(ib[:, None], shell_max)
            kind = arrays.child_kind[iidx]
            exists = kind != _NONE
            keep = _admitted(bound, approximation, threshold)
            if obs is not None:
                pruned = exists & ~keep
                if pruned.any():
                    # Attribute each prune to the decisive vantage point
                    # (first index achieving the max shell bound), or to
                    # the inherited bound when no shell tightened it.
                    decisive = shell_max > ib[:, None]
                    first_t = np.argmax(shells, axis=2)
                    for t in range(v):
                        count = int(
                            np.count_nonzero(pruned & decisive & (first_t == t))
                        )
                        if count:
                            obs.prune(vp_shell_kind(t), count)
                    count = int(np.count_nonzero(pruned & ~decisive))
                    if count:
                        obs.prune(PRUNE_KNN_RADIUS, count)
            admit = exists & keep
            w_sel, c_sel = np.nonzero(admit)
            child_kinds = kind[w_sel, c_sel]
            child_slots = arrays.child_idx[iidx][w_sel, c_sel]
            child_bounds = bound[w_sel, c_sel]
            rows = child_paths[w_sel]
            internal_sel = child_kinds == _INTERNAL
            iidx, ipaths, ib = (
                child_slots[internal_sel],
                rows[internal_sel],
                child_bounds[internal_sel],
            )
            lidx, lpaths, lb = (
                child_slots[~internal_sel],
                rows[~internal_sel],
                child_bounds[~internal_sel],
            )
        else:
            iidx, ipaths, ib = _EMPTY_IDS, np.empty((0, 0)), _EMPTY_F64
            lidx, lpaths, lb = _EMPTY_IDS, np.empty((0, 0)), _EMPTY_F64
        level += v

    return best.sorted_neighbors()


# ----------------------------------------------------------------------
# Budgeted best-first traversal (the approximate tier, repro.approx)
# ----------------------------------------------------------------------
#
# The wave kernels above expand a whole frontier level per batch; the
# budgeted kernels instead pop one frontier entry at a time from a
# priority queue ordered by the entry's section 4.3 lower bound (ties
# broken by insertion sequence, so traversal order is deterministic).
# The search stops when the best outstanding lower bound exceeds the
# current k-th distance / (1+eps)*r, or at the *first* expansion the
# distance budget cannot cover.  Stopping at the first unaffordable
# expansion — rather than skipping it and continuing — makes the set of
# expansions under budget B1 a strict prefix of the set under B2 > B1,
# which is what gives measured recall its monotone-in-budget guarantee
# (tests/properties/test_approx_monotonicity.py).
#
# Everything the traversal did NOT pay for is classified when it stops:
# entries whose bound definitely exceeds the (unscaled) threshold are
# provably answer-free; the rest contribute their subtree's point count
# to ``possible_missed`` and their bound to ``min_missed_lb``, from
# which repro.approx derives the conservative recall lower bound.


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

    def can(self, cost: int) -> bool:
        """Whether ``cost`` more evaluations fit under the budget."""
        return self.limit is None or self.spent + cost <= self.limit

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


def _fill_subtree_sizes(
    root_kind, root_idx, internal_sizes, leaf_sizes, children_of, own_points
):
    """Iterative postorder point counts for every internal node."""
    if root_kind != _INTERNAL:
        return
    stack = [(int(root_idx), False)]
    while stack:
        idx, ready = stack.pop()
        if ready:
            total = own_points(idx)
            for kind, slot in children_of(idx):
                total += int(
                    leaf_sizes[slot] if kind == _LEAF else internal_sizes[slot]
                )
            internal_sizes[idx] = total
        else:
            stack.append((idx, True))
            for kind, slot in children_of(idx):
                if kind == _INTERNAL:
                    stack.append((slot, False))


def _vp_sizes(arrays: _VPArrays):
    cached = getattr(arrays, "sizes", None)
    if cached is not None:
        return cached
    leaf_sizes = np.array([ids.size for ids in arrays.leaf_ids], dtype=np.int64)
    internal_sizes = np.zeros(arrays.vp_ids.shape[0], dtype=np.int64)

    def children_of(idx):
        kinds = arrays.child_kind[idx]
        slots = arrays.child_idx[idx]
        return [
            (int(kinds[c]), int(slots[c]))
            for c in range(kinds.shape[0])
            if kinds[c] != _NONE
        ]

    _fill_subtree_sizes(
        arrays.root_kind,
        arrays.root_idx,
        internal_sizes,
        leaf_sizes,
        children_of,
        lambda idx: 1,
    )
    arrays.sizes = (internal_sizes, leaf_sizes)
    return arrays.sizes


def _gmvp_sizes(arrays: _GMVPArrays):
    cached = getattr(arrays, "sizes", None)
    if cached is not None:
        return cached
    leaf_sizes = (
        np.diff(arrays.leaf_offsets) + np.diff(arrays.leaf_vp_offsets)
    ).astype(np.int64)
    internal_sizes = np.zeros(arrays.vp_ids.shape[0], dtype=np.int64)
    own = arrays.vp_ids.shape[1]

    def children_of(idx):
        kinds = arrays.child_kind[idx]
        slots = arrays.child_idx[idx]
        return [
            (int(kinds[c]), int(slots[c]))
            for c in range(kinds.shape[0])
            if kinds[c] != _NONE
        ]

    _fill_subtree_sizes(
        arrays.root_kind,
        arrays.root_idx,
        internal_sizes,
        leaf_sizes,
        children_of,
        lambda idx: own,
    )
    arrays.sizes = (internal_sizes, leaf_sizes)
    return arrays.sizes


class _VPApprox:
    """Frontier adapter exposing a vp-tree to the budgeted engines."""

    __slots__ = ("arrays", "internal_sizes", "leaf_sizes")

    def __init__(self, tree):
        self.arrays = _vp_arrays(tree)
        self.internal_sizes, self.leaf_sizes = _vp_sizes(self.arrays)

    def roots(self):
        return [(0.0, (self.arrays.root_kind, int(self.arrays.root_idx)))]

    def is_leaf(self, entry):
        return entry[0] == _LEAF

    def size(self, entry):
        table = self.leaf_sizes if entry[0] == _LEAF else self.internal_sizes
        return int(table[entry[1]])

    def internal_cost(self, entry):
        return 1

    def open_internal(self, entry, batch):
        idx = entry[1]
        return float(batch(self.arrays.vp_ids[idx : idx + 1])[0])

    def children(self, entry, dq, parent_lb):
        arrays = self.arrays
        idx = entry[1]
        kinds = arrays.child_kind[idx]
        slots = arrays.child_idx[idx]
        lo = arrays.child_lo[idx]
        hi = arrays.child_hi[idx]
        bound = np.maximum(np.maximum(parent_lb, dq - hi), np.maximum(lo - dq, 0.0))
        return [
            (float(bound[c]), (int(kinds[c]), int(slots[c])))
            for c in range(kinds.shape[0])
            if kinds[c] != _NONE
        ]

    def leaf_cost(self, entry):
        return 0

    def leaf_points(self, entry):
        return int(self.leaf_sizes[entry[1]])

    def open_leaf(self, entry, batch):
        return None

    def candidates(self, entry, info, parent_lb):
        ids = self.arrays.leaf_ids[entry[1]]
        return ids, np.full(ids.size, parent_lb, dtype=np.float64)


class _GMVPApprox:
    """Frontier adapter exposing a multi-vantage tree to the budgeted
    engines."""

    __slots__ = ("arrays", "p", "internal_sizes", "leaf_sizes")

    def __init__(self, tree):
        self.arrays = _gmvp_arrays(tree)
        self.p = tree.p
        self.internal_sizes, self.leaf_sizes = _gmvp_sizes(self.arrays)

    def roots(self):
        arrays = self.arrays
        return [(0.0, (arrays.root_kind, int(arrays.root_idx), 1, ()))]

    def is_leaf(self, entry):
        return entry[0] == _LEAF

    def size(self, entry):
        table = self.leaf_sizes if entry[0] == _LEAF else self.internal_sizes
        return int(table[entry[1]])

    def internal_cost(self, entry):
        return int(self.arrays.vp_ids.shape[1])

    def open_internal(self, entry, batch):
        return batch(self.arrays.vp_ids[entry[1]])

    def children(self, entry, dq, parent_lb):
        arrays = self.arrays
        _, idx, level, path = entry
        for t in range(dq.shape[0]):
            if level + t <= self.p:
                path = path + (float(dq[t]),)
        shells = np.maximum(
            dq[None, :] - arrays.bhi[idx], arrays.blo[idx] - dq[None, :]
        )
        bound = np.maximum(parent_lb, shells.max(axis=1))
        kinds = arrays.child_kind[idx]
        slots = arrays.child_idx[idx]
        next_level = level + dq.shape[0]
        return [
            (float(bound[c]), (int(kinds[c]), int(slots[c]), next_level, path))
            for c in range(kinds.shape[0])
            if kinds[c] != _NONE
        ]

    def leaf_cost(self, entry):
        offsets = self.arrays.leaf_vp_offsets
        return int(offsets[entry[1] + 1] - offsets[entry[1]])

    def leaf_points(self, entry):
        offsets = self.arrays.leaf_offsets
        return int(offsets[entry[1] + 1] - offsets[entry[1]])

    def open_leaf(self, entry, batch):
        offsets = self.arrays.leaf_vp_offsets
        j = entry[1]
        return batch(self.arrays.leaf_vp_ids[offsets[j] : offsets[j + 1]])

    def candidates(self, entry, ldq, parent_lb):
        arrays = self.arrays
        j = entry[1]
        ids = arrays.leaf_ids[arrays.leaf_offsets[j] : arrays.leaf_offsets[j + 1]]
        if not ids.size:
            return _EMPTY_IDS, _EMPTY_F64
        dists = arrays.leaf_dists[
            arrays.leaf_dist_offsets[j] : arrays.leaf_dist_offsets[j + 1]
        ].reshape(-1, ids.size)
        lower = np.abs(dists - ldq[:, None]).max(axis=0)
        path_len = int(arrays.leaf_path_len[j])
        if path_len:
            paths = arrays.leaf_paths[
                arrays.leaf_path_offsets[j] : arrays.leaf_path_offsets[j + 1]
            ].reshape(ids.size, path_len)
            row = np.asarray(entry[3][:path_len], dtype=np.float64)
            lower = np.maximum(lower, np.abs(paths - row).max(axis=1))
        return ids, np.maximum(lower, parent_lb)


_APPROX_ADAPTERS = {"vpt": _VPApprox, "mvpt": _GMVPApprox, "gmvpt": _GMVPApprox}


def _approx_adapter(tree, family: str):
    try:
        return _APPROX_ADAPTERS[family](tree)
    except KeyError:
        raise ValueError(f"no budgeted kernel for family {family!r}") from None


def approx_tree_knn(
    tree,
    family: str,
    query,
    k: int,
    *,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
    obs: Optional[Observation] = None,
) -> tuple[list[Neighbor], ApproxOutcome]:
    """Budgeted best-first k-NN over a vp/mvp/gmvp tree.

    With ``budget=None`` and ``epsilon=0`` this reproduces the exact
    answer byte-identically: pop-time pruning expands a subset of the
    node set the exact search admits, and the exact ``(distance, id)``
    k-best set is unique.
    """
    adapter = _approx_adapter(tree, family)
    objects = tree._objects
    approximation = 1.0 + epsilon
    best = _KBest(k)
    tracker = BudgetTracker(budget)
    heap: list[tuple[float, int, tuple]] = []
    seq = 0
    for root_lb, root_entry in adapter.roots():
        heap.append((root_lb, seq, root_entry))
        seq += 1
    heapq.heapify(heap)
    possible_missed = 0
    min_missed_lb = float("inf")
    exhausted = False

    def batch(ids: np.ndarray) -> np.ndarray:
        if ids.size == 0:
            return _EMPTY_F64
        tracker.charge(ids.size)
        distances = np.asarray(
            tree._batch_dist(obs, gather(objects, ids), query), dtype=np.float64
        )
        best.consider_many(distances.tolist(), np.asarray(ids).tolist())
        return distances

    def strand(first: list, budget_strand: bool) -> None:
        # Classify everything the traversal will not pay for: provably
        # answer-free entries are ordinary prunes, the rest are counted
        # as possibly-missed mass at their lower bound.
        nonlocal possible_missed, min_missed_lb
        threshold = best.threshold()
        pending = first + [(lb_e, entry_e) for lb_e, _, entry_e in heap]
        heap.clear()
        for lb_e, entry_e in pending:
            if lb_e > threshold + slack(threshold):
                if obs is not None:
                    obs.prune(PRUNE_LOWER_BOUND)
            else:
                possible_missed += adapter.size(entry_e)
                min_missed_lb = min(min_missed_lb, lb_e)
                if obs is not None:
                    obs.prune(PRUNE_BUDGET if budget_strand else PRUNE_LOWER_BOUND)

    while heap:
        lb, _, entry = heapq.heappop(heap)
        threshold = best.threshold()
        if lb * approximation > threshold + slack(threshold):
            strand([(lb, entry)], budget_strand=False)
            break
        if adapter.is_leaf(entry):
            if not tracker.can(adapter.leaf_cost(entry)):
                exhausted = True
                strand([(lb, entry)], budget_strand=True)
                break
            if obs is not None:
                obs.enter_leaf(adapter.leaf_points(entry))
            info = adapter.open_leaf(entry, batch)
            ids, lowers = adapter.candidates(entry, info, lb)
            threshold = best.threshold()
            miss = lowers > threshold + slack(threshold)
            if obs is not None:
                obs.filter_points(PRUNE_LOWER_BOUND, int(np.count_nonzero(miss)))
            keep_ids = ids[~miss]
            keep_lowers = lowers[~miss]
            order = np.lexsort((keep_ids, keep_lowers))
            keep_ids = keep_ids[order]
            keep_lowers = keep_lowers[order]
            afford = tracker.affordable(int(keep_ids.size))
            if afford:
                batch(keep_ids[:afford])
            if obs is not None:
                obs.leaf_scan(adapter.leaf_points(entry), afford)
            if afford < keep_ids.size:
                skipped = int(keep_ids.size - afford)
                if obs is not None:
                    obs.filter_points(PRUNE_BUDGET, skipped)
                possible_missed += skipped
                min_missed_lb = min(min_missed_lb, float(keep_lowers[afford]))
                exhausted = True
                strand([], budget_strand=True)
                break
        else:
            if not tracker.can(adapter.internal_cost(entry)):
                exhausted = True
                strand([(lb, entry)], budget_strand=True)
                break
            if obs is not None:
                obs.enter_internal()
            info = adapter.open_internal(entry, batch)
            threshold = best.threshold()
            for child_lb, child in adapter.children(entry, info, lb):
                if child_lb > threshold + slack(threshold):
                    if obs is not None:
                        obs.prune(PRUNE_LOWER_BOUND)
                else:
                    heapq.heappush(heap, (child_lb, seq, child))
                    seq += 1

    return best.sorted_neighbors(), ApproxOutcome(
        tracker.spent, exhausted, possible_missed, min_missed_lb
    )


def approx_tree_range(
    tree,
    family: str,
    query,
    radius: float,
    *,
    epsilon: float = 0.0,
    budget: Optional[int] = None,
    obs: Optional[Observation] = None,
) -> tuple[list[int], ApproxOutcome]:
    """Budgeted best-first range search over a vp/mvp/gmvp tree.

    Every returned id is a true hit (distances are verified before
    reporting), so approximate range answers have precision 1; the
    outcome's missed mass bounds how many in-range points may have been
    skipped.  ``budget=None``/``epsilon=0`` reproduces the exact answer.
    """
    adapter = _approx_adapter(tree, family)
    objects = tree._objects
    approximation = 1.0 + epsilon
    loose = radius + slack(radius)
    hits: list[int] = []
    tracker = BudgetTracker(budget)
    heap: list[tuple[float, int, tuple]] = []
    seq = 0
    for root_lb, root_entry in adapter.roots():
        heap.append((root_lb, seq, root_entry))
        seq += 1
    heapq.heapify(heap)
    possible_missed = 0
    min_missed_lb = float("inf")
    exhausted = False

    def batch(ids: np.ndarray) -> np.ndarray:
        if ids.size == 0:
            return _EMPTY_F64
        tracker.charge(ids.size)
        distances = np.asarray(
            tree._batch_dist(obs, gather(objects, ids), query), dtype=np.float64
        )
        inside = np.asarray(ids)[distances <= radius]
        hits.extend(int(x) for x in inside)
        return distances

    def strand(first: list, budget_strand: bool) -> None:
        nonlocal possible_missed, min_missed_lb
        pending = first + [(lb_e, entry_e) for lb_e, _, entry_e in heap]
        heap.clear()
        for lb_e, entry_e in pending:
            if lb_e > loose:
                if obs is not None:
                    obs.prune(PRUNE_LOWER_BOUND)
            else:
                possible_missed += adapter.size(entry_e)
                min_missed_lb = min(min_missed_lb, lb_e)
                if obs is not None:
                    obs.prune(PRUNE_BUDGET if budget_strand else PRUNE_LOWER_BOUND)

    while heap:
        lb, _, entry = heapq.heappop(heap)
        if lb * approximation > loose:
            strand([(lb, entry)], budget_strand=False)
            break
        if adapter.is_leaf(entry):
            if not tracker.can(adapter.leaf_cost(entry)):
                exhausted = True
                strand([(lb, entry)], budget_strand=True)
                break
            if obs is not None:
                obs.enter_leaf(adapter.leaf_points(entry))
            info = adapter.open_leaf(entry, batch)
            ids, lowers = adapter.candidates(entry, info, lb)
            exact_miss = lowers > loose
            eps_miss = ~exact_miss & (lowers * approximation > loose)
            n_eps = int(np.count_nonzero(eps_miss))
            if obs is not None:
                obs.filter_points(
                    PRUNE_LOWER_BOUND, int(np.count_nonzero(exact_miss)) + n_eps
                )
            if n_eps:
                possible_missed += n_eps
                min_missed_lb = min(min_missed_lb, float(lowers[eps_miss].min()))
            keep = ~(exact_miss | eps_miss)
            keep_ids = ids[keep]
            keep_lowers = lowers[keep]
            order = np.lexsort((keep_ids, keep_lowers))
            keep_ids = keep_ids[order]
            keep_lowers = keep_lowers[order]
            afford = tracker.affordable(int(keep_ids.size))
            if afford:
                batch(keep_ids[:afford])
            if obs is not None:
                obs.leaf_scan(adapter.leaf_points(entry), afford)
            if afford < keep_ids.size:
                skipped = int(keep_ids.size - afford)
                if obs is not None:
                    obs.filter_points(PRUNE_BUDGET, skipped)
                possible_missed += skipped
                min_missed_lb = min(min_missed_lb, float(keep_lowers[afford]))
                exhausted = True
                strand([], budget_strand=True)
                break
        else:
            if not tracker.can(adapter.internal_cost(entry)):
                exhausted = True
                strand([(lb, entry)], budget_strand=True)
                break
            if obs is not None:
                obs.enter_internal()
            info = adapter.open_internal(entry, batch)
            for child_lb, child in adapter.children(entry, info, lb):
                if child_lb > loose:
                    if obs is not None:
                        obs.prune(PRUNE_LOWER_BOUND)
                elif child_lb * approximation > loose:
                    possible_missed += adapter.size(child)
                    min_missed_lb = min(min_missed_lb, child_lb)
                    if obs is not None:
                        obs.prune(PRUNE_LOWER_BOUND)
                else:
                    heapq.heappush(heap, (child_lb, seq, child))
                    seq += 1

    hits.sort()
    return hits, ApproxOutcome(
        tracker.spent, exhausted, possible_missed, min_missed_lb
    )
