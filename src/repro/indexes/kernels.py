"""Array-backed frontier kernels for the tree indexes.

These are the search paths of :mod:`repro.indexes.vptree`,
:mod:`repro.core.mvptree` and :mod:`repro.core.gmvptree`.  They run
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
    PRUNE_LEAF_D1,
    PRUNE_LEAF_D2,
    PRUNE_LOWER_BOUND,
    PRUNE_PATH_FILTER,
    PRUNE_VP1_SHELL,
    PRUNE_VP2_SHELL,
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
# mvp-tree: flattened internal structure + kernels
# ----------------------------------------------------------------------


class _MVPArrays:
    """Flat array view of an mvp-tree's internal nodes (leaves keep
    their node objects: ``d1``/``d2``/``paths`` are already numpy)."""

    __slots__ = (
        "vp1",
        "vp2",
        "b1lo",
        "b1hi",
        "b2lo",
        "b2hi",
        "child_kind",
        "child_idx",
        "leaves",
        "root_kind",
        "root_idx",
        "sizes",
    )


def _mvp_arrays(tree) -> _MVPArrays:
    cached = getattr(tree, "_kernel_cache", None)
    if cached is not None:
        return cached
    from repro.core.nodes import MVPLeafNode

    m = tree.m
    internal_nodes: list = []
    leaf_nodes: list = []
    slot_of: dict[int, tuple[int, int]] = {}
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if isinstance(node, MVPLeafNode):
            slot_of[id(node)] = (_LEAF, len(leaf_nodes))
            leaf_nodes.append(node)
        else:
            slot_of[id(node)] = (_INTERNAL, len(internal_nodes))
            internal_nodes.append(node)
            stack.extend(c for c in node.children if c is not None)

    count = len(internal_nodes)
    arrays = _MVPArrays()
    arrays.vp1 = np.empty(count, dtype=np.intp)
    arrays.vp2 = np.empty(count, dtype=np.intp)
    arrays.b1lo = np.full((count, m), -np.inf)
    arrays.b1hi = np.full((count, m), np.inf)
    arrays.b2lo = np.full((count, m, m), -np.inf)
    arrays.b2hi = np.full((count, m, m), np.inf)
    arrays.child_kind = np.zeros((count, m, m), dtype=np.int8)
    arrays.child_idx = np.zeros((count, m, m), dtype=np.intp)
    for n, node in enumerate(internal_nodes):
        arrays.vp1[n] = node.vp1_id
        arrays.vp2[n] = node.vp2_id
        for i in range(m):
            lo1, hi1 = node.bounds1[i]
            if lo1 <= hi1:  # empty partitions keep the never-prune sentinel
                arrays.b1lo[n, i] = lo1
                arrays.b1hi[n, i] = hi1
            for j in range(m):
                child = node.children[i * m + j]
                if child is None:
                    continue
                kind, pos = slot_of[id(child)]
                arrays.child_kind[n, i, j] = kind
                arrays.child_idx[n, i, j] = pos
                lo2, hi2 = node.bounds2[i][j]
                if lo2 <= hi2:
                    arrays.b2lo[n, i, j] = lo2
                    arrays.b2hi[n, i, j] = hi2
    arrays.leaves = leaf_nodes
    arrays.root_kind, arrays.root_idx = slot_of[id(tree._root)]
    tree._kernel_cache = arrays
    return arrays


def _mvp_wave_roots(arrays):
    """Initial (internal, leaf) wave arrays for the root node."""
    root = np.array([arrays.root_idx], dtype=np.intp)
    no_path = np.empty((1, 0))
    if arrays.root_kind == _INTERNAL:
        return root, no_path, _EMPTY_IDS, np.empty((0, 0))
    return _EMPTY_IDS, np.empty((0, 0)), root, no_path


def _grow_paths(paths: np.ndarray, level: int, p: int, cols: list) -> np.ndarray:
    """Append this wave's vantage-point distances to the query's PATH
    prefix (``path_q[level + t - 1] = dq[t]``)."""
    added = [c[:, None] for t, c in enumerate(cols) if level + t <= p]
    if not added:
        return paths
    return np.hstack([paths] + added)


def mvp_range(tree, query, radius: float, obs: Optional[Observation]) -> list[int]:
    """Level-synchronous mvp-tree range search (paper section 4.3):
    visits exactly the nodes the section 4.3 bounds admit."""
    if tree._root is None:
        return []
    arrays = _mvp_arrays(tree)
    objects = tree._objects
    p = tree.p
    loose = radius + slack(radius)
    out: list[int] = []
    iidx, ipaths, lidx, lpaths = _mvp_wave_roots(arrays)
    level = 1

    while iidx.size or lidx.size:
        n_int = iidx.size
        leaf_nodes = [arrays.leaves[j] for j in lidx.tolist()]
        if obs is not None:
            for _ in range(n_int):
                obs.enter_internal()
            for node in leaf_nodes:
                obs.enter_leaf(len(node.ids))

        # One batch for every vantage-point distance of the wave.
        leaf_vp1 = np.asarray([n.vp1_id for n in leaf_nodes], dtype=np.intp)
        leaf_has_vp2 = np.asarray(
            [n.vp2_id is not None for n in leaf_nodes], dtype=bool
        )
        leaf_vp2 = np.asarray(
            [n.vp2_id for n in leaf_nodes if n.vp2_id is not None], dtype=np.intp
        )
        all_vps = np.concatenate([arrays.vp1[iidx], arrays.vp2[iidx], leaf_vp1, leaf_vp2])
        dall = np.asarray(
            tree._batch_dist(obs, gather(objects, all_vps), query), dtype=np.float64
        )
        dq1, dq2 = dall[:n_int], dall[n_int : 2 * n_int]
        ld1 = dall[2 * n_int : 2 * n_int + len(leaf_nodes)]
        ld2 = np.full(len(leaf_nodes), np.nan)
        ld2[leaf_has_vp2] = dall[2 * n_int + len(leaf_nodes) :]
        out.extend(np.asarray(all_vps[dall <= radius]).tolist())

        # Leaf candidate selection: D1/D2 + PATH precomputed-distance
        # filters per leaf (paper step 2.2), one batched verification.
        candidate_arrays: list[np.ndarray] = []
        for w, node in enumerate(leaf_nodes):
            if node.vp2_id is None or len(node.ids) == 0:
                continue
            mask1 = np.abs(node.d1 - ld1[w]) <= loose
            mask = mask1 & (np.abs(node.d2 - ld2[w]) <= loose)
            if obs is not None:
                obs.filter_points(PRUNE_LEAF_D1, int(np.count_nonzero(~mask1)))
                obs.filter_points(PRUNE_LEAF_D2, int(np.count_nonzero(mask1 & ~mask)))
            if node.path_len:
                path_mask = np.all(
                    np.abs(node.paths - lpaths[w, : node.path_len]) <= loose, axis=1
                )
                if obs is not None:
                    obs.filter_points(
                        PRUNE_PATH_FILTER, int(np.count_nonzero(mask & ~path_mask))
                    )
                mask &= path_mask
            candidates = np.asarray(node.ids, dtype=np.intp)[mask]
            if obs is not None:
                obs.leaf_scan(len(node.ids), int(candidates.size))
            if candidates.size:
                candidate_arrays.append(candidates)
        if candidate_arrays:
            candidates = (
                candidate_arrays[0]
                if len(candidate_arrays) == 1
                else np.concatenate(candidate_arrays)
            )
            distances = np.asarray(
                tree._batch_dist(obs, gather(objects, candidates), query),
                dtype=np.float64,
            )
            out.extend(candidates[distances <= radius].tolist())

        # Children of the internal wave: both shell filters vectorised.
        if n_int:
            child_paths = _grow_paths(ipaths, level, p, [dq1, dq2])
            miss1 = _shell_miss(
                dq1[:, None], radius, arrays.b1lo[iidx], arrays.b1hi[iidx]
            )
            kind = arrays.child_kind[iidx]
            exists = kind != _NONE
            if obs is not None:
                pruned = int(np.count_nonzero(miss1 & exists.any(axis=2)))
                if pruned:
                    obs.prune(PRUNE_VP1_SHELL, pruned)
            miss2 = _shell_miss(
                dq2[:, None, None], radius, arrays.b2lo[iidx], arrays.b2hi[iidx]
            )
            alive1 = exists & ~miss1[:, :, None]
            if obs is not None:
                pruned = int(np.count_nonzero(alive1 & miss2))
                if pruned:
                    obs.prune(PRUNE_VP2_SHELL, pruned)
            admit = alive1 & ~miss2
            w_sel, i_sel, j_sel = np.nonzero(admit)
            child_kinds = kind[w_sel, i_sel, j_sel]
            child_slots = arrays.child_idx[iidx][w_sel, i_sel, j_sel]
            rows = child_paths[w_sel]
            internal_sel = child_kinds == _INTERNAL
            iidx, ipaths = child_slots[internal_sel], rows[internal_sel]
            lidx, lpaths = child_slots[~internal_sel], rows[~internal_sel]
        else:
            iidx, ipaths = _EMPTY_IDS, np.empty((0, 0))
            lidx, lpaths = _EMPTY_IDS, np.empty((0, 0))
        level += 2

    out.sort()
    return out


def mvp_knn(
    tree, query, k: int, approximation: float, obs: Optional[Observation]
) -> list[Neighbor]:
    """Wave-batched best-first mvp-tree k-NN (exact answers)."""
    if tree._root is None:
        return []
    arrays = _mvp_arrays(tree)
    objects = tree._objects
    p = tree.p
    best = _KBest(k)
    iidx, ipaths, lidx, lpaths = _mvp_wave_roots(arrays)
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
        leaf_nodes = [arrays.leaves[j] for j in lidx.tolist()]
        if not n_int and not leaf_nodes:
            break
        if obs is not None:
            for _ in range(n_int):
                obs.enter_internal()
            for node in leaf_nodes:
                obs.enter_leaf(len(node.ids))

        leaf_vp1 = np.asarray([n.vp1_id for n in leaf_nodes], dtype=np.intp)
        leaf_has_vp2 = np.asarray(
            [n.vp2_id is not None for n in leaf_nodes], dtype=bool
        )
        leaf_vp2 = np.asarray(
            [n.vp2_id for n in leaf_nodes if n.vp2_id is not None], dtype=np.intp
        )
        all_vps = np.concatenate([arrays.vp1[iidx], arrays.vp2[iidx], leaf_vp1, leaf_vp2])
        dall = np.asarray(
            tree._batch_dist(obs, gather(objects, all_vps), query), dtype=np.float64
        )
        best.consider_many(dall.tolist(), all_vps.tolist())
        dq1, dq2 = dall[:n_int], dall[n_int : 2 * n_int]
        ld1 = dall[2 * n_int : 2 * n_int + len(leaf_nodes)]
        ld2 = np.full(len(leaf_nodes), np.nan)
        ld2[leaf_has_vp2] = dall[2 * n_int + len(leaf_nodes) :]

        # Leaf scans: precomputed-distance lower bounds select the scan
        # set against the post-vantage-point threshold, one batch pays
        # all surviving candidates.
        threshold = best.threshold()
        candidate_arrays: list[np.ndarray] = []
        for w, node in enumerate(leaf_nodes):
            if node.vp2_id is None or len(node.ids) == 0:
                continue
            lower = np.maximum(np.abs(node.d1 - ld1[w]), np.abs(node.d2 - ld2[w]))
            if node.path_len:
                lower = np.maximum(
                    lower,
                    np.max(
                        np.abs(node.paths - lpaths[w, : node.path_len]),
                        axis=1,
                        initial=0.0,
                    ),
                )
            scan = _admitted(lower, approximation, threshold)
            scanned = int(np.count_nonzero(scan))
            if obs is not None:
                obs.filter_points(PRUNE_KNN_RADIUS, len(node.ids) - scanned)
                obs.leaf_scan(len(node.ids), scanned)
            if scanned:
                candidate_arrays.append(np.asarray(node.ids, dtype=np.intp)[scan])
        if candidate_arrays:
            candidates = (
                candidate_arrays[0]
                if len(candidate_arrays) == 1
                else np.concatenate(candidate_arrays)
            )
            distances = np.asarray(
                tree._batch_dist(obs, gather(objects, candidates), query),
                dtype=np.float64,
            )
            best.consider_many(distances.tolist(), candidates.tolist())

        if n_int:
            child_paths = _grow_paths(ipaths, level, p, [dq1, dq2])
            threshold = best.threshold()
            bound1 = np.maximum(
                np.maximum(
                    ib[:, None], dq1[:, None] - arrays.b1hi[iidx]
                ),
                np.maximum(arrays.b1lo[iidx] - dq1[:, None], 0.0),
            )
            kind = arrays.child_kind[iidx]
            exists = kind != _NONE
            keep1 = _admitted(bound1, approximation, threshold)
            if obs is not None:
                pruned = int(np.count_nonzero(~keep1 & exists.any(axis=2)))
                if pruned:
                    obs.prune(PRUNE_VP1_SHELL, pruned)
            bound = np.maximum(
                np.maximum(
                    bound1[:, :, None], dq2[:, None, None] - arrays.b2hi[iidx]
                ),
                arrays.b2lo[iidx] - dq2[:, None, None],
            )
            alive1 = exists & keep1[:, :, None]
            keep = _admitted(bound, approximation, threshold)
            if obs is not None:
                pruned = int(np.count_nonzero(alive1 & ~keep))
                if pruned:
                    obs.prune(PRUNE_VP2_SHELL, pruned)
            admit = alive1 & keep
            w_sel, i_sel, j_sel = np.nonzero(admit)
            child_kinds = kind[w_sel, i_sel, j_sel]
            child_slots = arrays.child_idx[iidx][w_sel, i_sel, j_sel]
            child_bounds = bound[w_sel, i_sel, j_sel]
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
        level += 2

    return best.sorted_neighbors()


# ----------------------------------------------------------------------
# gmvp-tree: flattened internal structure + kernels
# ----------------------------------------------------------------------


class _GMVPArrays:
    """Flat array view of a gmvp-tree's internal nodes."""

    __slots__ = (
        "vp_ids",
        "blo",
        "bhi",
        "child_kind",
        "child_idx",
        "leaves",
        "root_kind",
        "root_idx",
        "sizes",
    )


def _gmvp_arrays(tree) -> _GMVPArrays:
    cached = getattr(tree, "_kernel_cache", None)
    if cached is not None:
        return cached
    from repro.core.gmvptree import GMVPLeafNode

    v = tree.v
    fanout = tree.m**v
    internal_nodes: list = []
    leaf_nodes: list = []
    slot_of: dict[int, tuple[int, int]] = {}
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if isinstance(node, GMVPLeafNode):
            slot_of[id(node)] = (_LEAF, len(leaf_nodes))
            leaf_nodes.append(node)
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
    arrays.leaves = leaf_nodes
    arrays.root_kind, arrays.root_idx = slot_of[id(tree._root)]
    tree._kernel_cache = arrays
    return arrays


def _gmvp_leaf_distances(leaf_nodes, dall, offset):
    """Split the batched wave distances back into per-leaf vp arrays."""
    per_leaf = []
    for node in leaf_nodes:
        width = len(node.vp_ids)
        per_leaf.append(dall[offset : offset + width])
        offset += width
    return per_leaf


def gmvp_range(tree, query, radius: float, obs: Optional[Observation]) -> list[int]:
    """Level-synchronous gmvp-tree range search: visits exactly the nodes
    the shell and PATH bounds admit."""
    arrays = _gmvp_arrays(tree)
    objects = tree._objects
    p = tree.p
    v = tree.v
    loose = radius + slack(radius)
    out: list[int] = []
    if arrays.root_kind == _INTERNAL:
        iidx = np.array([arrays.root_idx], dtype=np.intp)
        ipaths = np.empty((1, 0))
        lidx, lpaths = _EMPTY_IDS, np.empty((0, 0))
    else:
        iidx, ipaths = _EMPTY_IDS, np.empty((0, 0))
        lidx = np.array([arrays.root_idx], dtype=np.intp)
        lpaths = np.empty((1, 0))
    level = 1

    while iidx.size or lidx.size:
        n_int = iidx.size
        leaf_nodes = [arrays.leaves[j] for j in lidx.tolist()]
        if obs is not None:
            for _ in range(n_int):
                obs.enter_internal()
            for node in leaf_nodes:
                obs.enter_leaf(len(node.ids))

        leaf_vps = (
            np.concatenate([np.asarray(n.vp_ids, dtype=np.intp) for n in leaf_nodes])
            if leaf_nodes
            else _EMPTY_IDS
        )
        all_vps = np.concatenate([arrays.vp_ids[iidx].ravel(), leaf_vps])
        dall = np.asarray(
            tree._batch_dist(obs, gather(objects, all_vps), query), dtype=np.float64
        )
        out.extend(np.asarray(all_vps[dall <= radius]).tolist())
        dq = dall[: n_int * v].reshape(n_int, v)
        leaf_dq = _gmvp_leaf_distances(leaf_nodes, dall, n_int * v)

        candidate_arrays: list[np.ndarray] = []
        for w, node in enumerate(leaf_nodes):
            if len(node.ids) == 0:
                continue
            mask = np.ones(len(node.ids), dtype=bool)
            for t in range(len(node.vp_ids)):
                mask_t = np.abs(node.dists[t] - leaf_dq[w][t]) <= loose
                if obs is not None:
                    obs.filter_points(
                        leaf_dist_kind(t), int(np.count_nonzero(mask & ~mask_t))
                    )
                mask &= mask_t
            if node.path_len:
                path_mask = np.all(
                    np.abs(node.paths - lpaths[w, : node.path_len]) <= loose, axis=1
                )
                if obs is not None:
                    obs.filter_points(
                        PRUNE_PATH_FILTER, int(np.count_nonzero(mask & ~path_mask))
                    )
                mask &= path_mask
            candidates = np.asarray(node.ids, dtype=np.intp)[mask]
            if obs is not None:
                obs.leaf_scan(len(node.ids), int(candidates.size))
            if candidates.size:
                candidate_arrays.append(candidates)
        if candidate_arrays:
            candidates = (
                candidate_arrays[0]
                if len(candidate_arrays) == 1
                else np.concatenate(candidate_arrays)
            )
            distances = np.asarray(
                tree._batch_dist(obs, gather(objects, candidates), query),
                dtype=np.float64,
            )
            out.extend(candidates[distances <= radius].tolist())

        if n_int:
            child_paths = _grow_paths(ipaths, level, p, [dq[:, t] for t in range(v)])
            miss_t = _shell_miss(
                dq[:, None, :], radius, arrays.blo[iidx], arrays.bhi[iidx]
            )
            kind = arrays.child_kind[iidx]
            exists = kind != _NONE
            any_miss = miss_t.any(axis=2)
            if obs is not None:
                pruned = exists & any_miss
                if pruned.any():
                    # First-bound-wins attribution: the lowest vp index.
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
    """Wave-batched best-first gmvp-tree k-NN (exact answers)."""
    arrays = _gmvp_arrays(tree)
    objects = tree._objects
    p = tree.p
    v = tree.v
    best = _KBest(k)
    if arrays.root_kind == _INTERNAL:
        iidx = np.array([arrays.root_idx], dtype=np.intp)
        ipaths = np.empty((1, 0))
        lidx, lpaths = _EMPTY_IDS, np.empty((0, 0))
    else:
        iidx, ipaths = _EMPTY_IDS, np.empty((0, 0))
        lidx = np.array([arrays.root_idx], dtype=np.intp)
        lpaths = np.empty((1, 0))
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
        leaf_nodes = [arrays.leaves[j] for j in lidx.tolist()]
        if not n_int and not leaf_nodes:
            break
        if obs is not None:
            for _ in range(n_int):
                obs.enter_internal()
            for node in leaf_nodes:
                obs.enter_leaf(len(node.ids))

        leaf_vps = (
            np.concatenate([np.asarray(n.vp_ids, dtype=np.intp) for n in leaf_nodes])
            if leaf_nodes
            else _EMPTY_IDS
        )
        all_vps = np.concatenate([arrays.vp_ids[iidx].ravel(), leaf_vps])
        dall = np.asarray(
            tree._batch_dist(obs, gather(objects, all_vps), query), dtype=np.float64
        )
        best.consider_many(dall.tolist(), all_vps.tolist())
        dq = dall[: n_int * v].reshape(n_int, v)
        leaf_dq = _gmvp_leaf_distances(leaf_nodes, dall, n_int * v)

        threshold = best.threshold()
        candidate_arrays: list[np.ndarray] = []
        for w, node in enumerate(leaf_nodes):
            if len(node.ids) == 0:
                continue
            lower = np.zeros(len(node.ids))
            for t in range(len(node.vp_ids)):
                lower = np.maximum(lower, np.abs(node.dists[t] - leaf_dq[w][t]))
            if node.path_len:
                lower = np.maximum(
                    lower,
                    np.max(
                        np.abs(node.paths - lpaths[w, : node.path_len]),
                        axis=1,
                        initial=0.0,
                    ),
                )
            scan = _admitted(lower, approximation, threshold)
            scanned = int(np.count_nonzero(scan))
            if obs is not None:
                obs.filter_points(PRUNE_KNN_RADIUS, len(node.ids) - scanned)
                obs.leaf_scan(len(node.ids), scanned)
            if scanned:
                candidate_arrays.append(np.asarray(node.ids, dtype=np.intp)[scan])
        if candidate_arrays:
            candidates = (
                candidate_arrays[0]
                if len(candidate_arrays) == 1
                else np.concatenate(candidate_arrays)
            )
            distances = np.asarray(
                tree._batch_dist(obs, gather(objects, candidates), query),
                dtype=np.float64,
            )
            best.consider_many(distances.tolist(), candidates.tolist())

        if n_int:
            child_paths = _grow_paths(ipaths, level, p, [dq[:, t] for t in range(v)])
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


def _mvp_sizes(arrays: _MVPArrays):
    cached = getattr(arrays, "sizes", None)
    if cached is not None:
        return cached
    leaf_sizes = np.array(
        [
            len(node.ids) + 1 + (1 if node.vp2_id is not None else 0)
            for node in arrays.leaves
        ],
        dtype=np.int64,
    )
    internal_sizes = np.zeros(arrays.vp1.shape[0], dtype=np.int64)

    def children_of(idx):
        kinds = arrays.child_kind[idx]
        slots = arrays.child_idx[idx]
        m = kinds.shape[0]
        return [
            (int(kinds[i, j]), int(slots[i, j]))
            for i in range(m)
            for j in range(m)
            if kinds[i, j] != _NONE
        ]

    _fill_subtree_sizes(
        arrays.root_kind,
        arrays.root_idx,
        internal_sizes,
        leaf_sizes,
        children_of,
        lambda idx: 2,
    )
    arrays.sizes = (internal_sizes, leaf_sizes)
    return arrays.sizes


def _gmvp_sizes(arrays: _GMVPArrays):
    cached = getattr(arrays, "sizes", None)
    if cached is not None:
        return cached
    leaf_sizes = np.array(
        [len(node.ids) + len(node.vp_ids) for node in arrays.leaves],
        dtype=np.int64,
    )
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


class _MVPApprox:
    """Frontier adapter exposing an mvp-tree to the budgeted engines.

    Entries carry ``(kind, slot, level, path)`` where ``path`` is the
    tuple of ancestor vantage-point distances accumulated so far (the
    query's PATH prefix, grown exactly like :func:`_grow_paths`).
    """

    __slots__ = ("arrays", "p", "internal_sizes", "leaf_sizes")

    def __init__(self, tree):
        self.arrays = _mvp_arrays(tree)
        self.p = tree.p
        self.internal_sizes, self.leaf_sizes = _mvp_sizes(self.arrays)

    def roots(self):
        arrays = self.arrays
        return [(0.0, (arrays.root_kind, int(arrays.root_idx), 1, ()))]

    def is_leaf(self, entry):
        return entry[0] == _LEAF

    def size(self, entry):
        table = self.leaf_sizes if entry[0] == _LEAF else self.internal_sizes
        return int(table[entry[1]])

    def internal_cost(self, entry):
        return 2

    def open_internal(self, entry, batch):
        arrays = self.arrays
        idx = entry[1]
        d = batch(np.array([arrays.vp1[idx], arrays.vp2[idx]], dtype=np.intp))
        return float(d[0]), float(d[1])

    def children(self, entry, dqs, parent_lb):
        arrays = self.arrays
        _, idx, level, path = entry
        dq1, dq2 = dqs
        if level <= self.p:
            path = path + (dq1,)
        if level + 1 <= self.p:
            path = path + (dq2,)
        kinds = arrays.child_kind[idx]
        slots = arrays.child_idx[idx]
        b1lo, b1hi = arrays.b1lo[idx], arrays.b1hi[idx]
        b2lo, b2hi = arrays.b2lo[idx], arrays.b2hi[idx]
        m = kinds.shape[0]
        out = []
        for i in range(m):
            bound1 = max(parent_lb, dq1 - b1hi[i], b1lo[i] - dq1, 0.0)
            for j in range(m):
                kind = int(kinds[i, j])
                if kind == _NONE:
                    continue
                bound = max(bound1, dq2 - b2hi[i, j], b2lo[i, j] - dq2)
                out.append(
                    (float(bound), (kind, int(slots[i, j]), level + 2, path))
                )
        return out

    def leaf_cost(self, entry):
        node = self.arrays.leaves[entry[1]]
        return 1 + (1 if node.vp2_id is not None else 0)

    def leaf_points(self, entry):
        return len(self.arrays.leaves[entry[1]].ids)

    def open_leaf(self, entry, batch):
        node = self.arrays.leaves[entry[1]]
        if node.vp2_id is None:
            return float(batch(np.array([node.vp1_id], dtype=np.intp))[0]), None
        d = batch(np.array([node.vp1_id, node.vp2_id], dtype=np.intp))
        return float(d[0]), float(d[1])

    def candidates(self, entry, info, parent_lb):
        node = self.arrays.leaves[entry[1]]
        if node.vp2_id is None or len(node.ids) == 0:
            return _EMPTY_IDS, _EMPTY_F64
        ld1, ld2 = info
        lower = np.maximum(np.abs(node.d1 - ld1), np.abs(node.d2 - ld2))
        if node.path_len:
            row = np.asarray(entry[3][: node.path_len], dtype=np.float64)
            lower = np.maximum(
                lower, np.max(np.abs(node.paths - row), axis=1, initial=0.0)
            )
        lower = np.maximum(lower, parent_lb)
        return np.asarray(node.ids, dtype=np.intp), lower


class _GMVPApprox:
    """Frontier adapter exposing a gmvp-tree to the budgeted engines."""

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
        return len(self.arrays.leaves[entry[1]].vp_ids)

    def leaf_points(self, entry):
        return len(self.arrays.leaves[entry[1]].ids)

    def open_leaf(self, entry, batch):
        node = self.arrays.leaves[entry[1]]
        return batch(np.asarray(node.vp_ids, dtype=np.intp))

    def candidates(self, entry, ldq, parent_lb):
        node = self.arrays.leaves[entry[1]]
        if len(node.ids) == 0:
            return _EMPTY_IDS, _EMPTY_F64
        lower = np.zeros(len(node.ids))
        for t in range(len(node.vp_ids)):
            lower = np.maximum(lower, np.abs(node.dists[t] - ldq[t]))
        if node.path_len:
            row = np.asarray(entry[3][: node.path_len], dtype=np.float64)
            lower = np.maximum(
                lower, np.max(np.abs(node.paths - row), axis=1, initial=0.0)
            )
        lower = np.maximum(lower, parent_lb)
        return np.asarray(node.ids, dtype=np.intp), lower


_APPROX_ADAPTERS = {"vpt": _VPApprox, "mvpt": _MVPApprox, "gmvpt": _GMVPApprox}


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
