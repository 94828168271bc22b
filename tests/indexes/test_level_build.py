"""The level-synchronous builds equal the recursive construction, node
for node.

``_Recursive*`` below are the node-at-a-time builders the level passes
replaced, kept verbatim as a reference (as the reference walk in
``test_range_walk.py`` is for range search).  A reference tree starts
from its nodes, which the flattens kept here with the reference builds
turn into kernel tables on demand; the level passes write the tables,
the trees' only form.  For every input the two builds must give the
same tables (derived ones and cutoffs included), the same persisted
form, the same nodes (the reference's own against the test node view
of the level build's tables), the same ``.rsx`` bytes, the same node
counters and the same construction distance count, and must leave the
rng in the same state.  The reference dynamic tree keeps the
node-at-a-time insert the table patch replaced.
"""

import hashlib
import json
from typing import Optional, Union

import numpy as np
import pytest

from repro import DynamicMVPTree, GMVPTree, MVPTree, QueryStats, VPTree
from repro._util import gather
from repro.datasets import synthetic_words, uniform_vectors
from repro.indexes import kernels
from repro.metric import L2, CountingMetric, EditDistance, FunctionMetric
from repro.persist import index_to_dict
from repro.store import write_store
from tests.nodeview import (
    EMPTY_SHELL,
    GMVPInternalNode,
    GMVPLeafNode,
    VPInternalNode,
    VPLeafNode,
    root_node,
)

COUNTERS = (
    "node_count",
    "leaf_count",
    "internal_count",
    "vantage_point_count",
    "leaf_data_point_count",
    "height",
)


def _split_cutoffs(chunks, distances) -> list[float]:
    """The ``m - 1`` boundary distances of one region's partition (an
    empty chunk repeats the previous cutoff, 0 at the start)."""
    row: list[float] = []
    for chunk in chunks[:-1]:
        if len(chunk):
            row.append(float(distances[chunk[-1]]))
        else:
            row.append(row[-1] if row else 0.0)
    return row


class _RecursiveVP:
    """The recursive vp-tree build."""

    def _build(self, ids: np.ndarray, depth: int):
        """Recursively partition ``ids`` (an integer array) into
        spherical shells.

        Recursion depth is bounded by the tree height (groups shrink by
        a factor of ``m`` per level), so the default interpreter stack
        suffices.
        """
        if not ids.size:
            return None
        self.height = max(self.height, depth)
        if ids.size <= self.leaf_capacity:
            self.node_count += 1
            self.leaf_count += 1
            return VPLeafNode(ids.tolist())

        vp_id = self._selector.select(ids, self._objects, self._metric, self._rng)
        rest = ids[ids != vp_id]
        distances = np.asarray(
            self._batch_dist(None, gather(self._objects, rest), self._objects[vp_id])
        )
        # Sorted, so every group's extremes are its first and last.
        order = distances.argsort(kind="stable")
        if distances.size and float(distances[order[-1]]) == 0.0:
            # Zero-diameter group (all points identical under the
            # metric, by the triangle inequality): no shell can ever
            # separate them, so recursing just peels one vantage point
            # per level.  Fall back to an (oversized) leaf.
            self.node_count += 1
            self.leaf_count += 1
            return VPLeafNode(ids.tolist())
        # np.array_split's sections: the first ``extra`` groups take one
        # more point.
        size, extra = divmod(order.size, self.m)
        ends = [g * size + min(g, extra) for g in range(self.m + 1)]
        groups = [order[ends[g] : ends[g + 1]] for g in range(self.m)]

        cutoffs: list[float] = []
        bounds: list[tuple[float, float]] = []
        children: list[Union[VPInternalNode, VPLeafNode, None]] = []
        for g, group in enumerate(groups):
            if len(group) == 0:
                children.append(None)
                bounds.append((float("inf"), float("-inf")))
            else:
                bounds.append(
                    (float(distances[group[0]]), float(distances[group[-1]]))
                )
                children.append(self._build(rest[group], depth + 1))
            if g < len(groups) - 1:
                # Boundary between this group and the next: the paper's
                # cutoff value (the median for m=2).
                if len(group):
                    upper = float(distances[group[-1]])
                else:
                    upper = cutoffs[-1] if cutoffs else 0.0
                cutoffs.append(upper)

        if self.bounds_mode == "cutoff":
            # The paper's pseudo-code prunes against cutoff values only:
            # child i covers [c_{i-1}, c_i] with 0 and infinity at the
            # ends.  Exact, but looser than the true shell radii.
            bounds = [
                (
                    0.0 if g == 0 else cutoffs[g - 1],
                    cutoffs[g] if g < len(cutoffs) else float("inf"),
                )
                if bounds[g][0] <= bounds[g][1]
                else bounds[g]
                for g in range(len(bounds))
            ]

        self.node_count += 1
        self.vantage_point_count += 1
        return VPInternalNode(vp_id, cutoffs, bounds, children)

    def _flatten(self, root) -> kernels._VPArrays:
        """The tables of a reference node graph: slots in preorder with
        each node's children taken last-first."""
        m = self.m
        internal_nodes: list = []
        leaf_nodes: list = []
        slot_of: dict[int, tuple[int, int]] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, VPLeafNode):
                slot_of[id(node)] = (kernels._LEAF, len(leaf_nodes))
                leaf_nodes.append(node)
            else:
                slot_of[id(node)] = (kernels._INTERNAL, len(internal_nodes))
                internal_nodes.append(node)
                stack.extend(c for c in node.children if c is not None)
        count = len(internal_nodes)
        arrays = kernels._VPArrays()
        arrays.vp_ids = np.empty(count, dtype=np.intp)
        arrays.cutoffs = np.array(
            [node.cutoffs for node in internal_nodes], dtype=np.float64
        ).reshape(count, m - 1)
        arrays.child_lo = np.full((count, m), -np.inf)
        arrays.child_hi = np.full((count, m), np.inf)
        arrays.child_kind = np.zeros((count, m), dtype=np.int8)
        arrays.child_idx = np.zeros((count, m), dtype=np.intp)
        for n, node in enumerate(internal_nodes):
            arrays.vp_ids[n] = node.vp_id
            for c, (child, (lo, hi)) in enumerate(zip(node.children, node.bounds)):
                if child is not None:
                    kind, pos = slot_of[id(child)]
                    arrays.child_kind[n, c], arrays.child_idx[n, c] = kind, pos
                    arrays.child_lo[n, c], arrays.child_hi[n, c] = lo, hi
        arrays.leaf_offsets = kernels._offsets([len(node.ids) for node in leaf_nodes])
        arrays.leaf_ids = kernels._concat([node.ids for node in leaf_nodes], np.int64)
        arrays.root_kind, arrays.root_idx = slot_of[id(root)]
        kernels.derive(arrays)
        return arrays


class _RecursiveGMVP:
    """The recursive multi-vantage build."""

    def _build(self, ids, paths, level: int, depth: int):
        """Build a subtree (mutually recursive with ``_build_internal``).

        Recursion depth is bounded by the tree height, so the default
        interpreter stack suffices.
        """
        if not ids:
            return None
        self.height = max(self.height, depth)
        if len(ids) <= self.k + self.v:
            return self._build_leaf(ids, paths, level)
        return self._build_internal(ids, paths, level, depth)

    def _select(self, candidate_ids) -> int:
        return self._selector.select(
            candidate_ids, self._objects, self._metric, self._rng
        )

    def _build_leaf(self, ids, paths, level: int):
        self.node_count += 1
        self.leaf_count += 1
        path_len = min(self.p, level - 1)

        rest_ids = list(ids)
        rest_paths = paths
        vp_ids: list[int] = []
        dist_rows: list[np.ndarray] = []  # distances of current rest to each vp
        min_to_chosen: Optional[np.ndarray] = None

        while len(vp_ids) < self.v and rest_ids:
            if not vp_ids:
                vp_id = self._select(rest_ids)
                position = rest_ids.index(vp_id)
            else:
                # Farthest-from-the-chosen (max-min) — the
                # generalisation of the paper's "farthest point from the
                # first vantage point" rule.
                position = int(np.argmax(min_to_chosen))
                vp_id = rest_ids[position]
            vp_ids.append(vp_id)
            self.vantage_point_count += 1
            del rest_ids[position]
            keep = np.arange(len(rest_ids) + 1) != position
            rest_paths = rest_paths[keep]
            dist_rows = [row[keep] for row in dist_rows]
            if min_to_chosen is not None:
                min_to_chosen = min_to_chosen[keep]
            if not rest_ids:
                break
            distances = np.asarray(
                self._batch_dist(
                    None, gather(self._objects, rest_ids), self._objects[vp_id]
                )
            )
            dist_rows.append(distances)
            min_to_chosen = (
                distances
                if min_to_chosen is None
                else np.minimum(min_to_chosen, distances)
            )

        dists = (
            np.stack(dist_rows) if dist_rows else np.empty((0, len(rest_ids)))
        )
        self.leaf_data_point_count += len(rest_ids)
        return GMVPLeafNode(
            vp_ids, rest_ids, dists, rest_paths[:, :path_len], path_len
        )

    def _build_internal(self, ids, paths, level: int, depth: int):
        """Nested-partition internal node; recurses via ``_build``.

        Part of the mutually recursive build; depth is bounded by the
        tree height.  A zero-diameter group comes back as one leaf.
        """
        m, v = self.m, self.v
        rest_ids = list(ids)
        rest_paths = paths

        vp_ids: list[int] = []
        dist_matrix: list[np.ndarray] = []  # per vp: distances over rest
        cutoffs: list[list[list[float]]] = []
        # groups: nested partition as position arrays in child
        # (digit-lexicographic) order; refined by each vantage point.
        groups: list[np.ndarray] = [np.arange(len(rest_ids))]

        for t in range(v):
            if t == 0:
                vp_id = self._select(rest_ids)
            else:
                # From the farthest region of the preceding partition
                # (paper step 3.5).
                donor = max(g for g in range(len(groups)) if groups[g].size)
                vp_id = self._select([rest_ids[pos] for pos in groups[donor]])
            vp_ids.append(vp_id)

            # Remove the vantage point from the working set.
            position = rest_ids.index(vp_id)
            rest_ids.pop(position)
            keep = np.arange(len(rest_ids) + 1) != position
            rest_paths = rest_paths[keep]
            dist_matrix = [row[keep] for row in dist_matrix]
            groups = [(g - (g > position))[g != position] for g in groups]

            distances = np.asarray(
                self._batch_dist(
                    None, gather(self._objects, rest_ids), self._objects[vp_id]
                )
            )
            if t == 0 and float(distances.max()) == 0.0:
                # Zero-diameter group (by the triangle inequality): every
                # cutoff collapses onto 0 and no shell can separate
                # identical points.  Fall back to an (oversized) leaf
                # instead of recursing one vantage point at a time.
                return self._build_leaf(ids, paths, level)
            dist_matrix.append(distances)
            if level + t <= self.p:
                rest_paths[:, level + t - 1] = distances

            # Refine every group into m sub-groups by this vp's distance
            # (ties broken by position).
            refined: list[np.ndarray] = []
            rows: list[list[float]] = []
            for group in groups:
                ordered = group[np.lexsort((group, distances[group]))]
                chunks = np.array_split(ordered, m)
                rows.append(_split_cutoffs(chunks, distances))
                refined.extend(chunks)
            cutoffs.append(rows)
            groups = refined

        # Per-child shells and children.
        bounds: list[list[tuple[float, float]]] = []
        children: list = []
        for group in groups:
            if group.size:
                member_rows = [row[group] for row in dist_matrix]
                bounds.append(
                    [(float(r.min()), float(r.max())) for r in member_rows]
                )
            else:
                bounds.append([EMPTY_SHELL] * v)
            children.append(
                self._build(
                    [rest_ids[pos] for pos in group],
                    rest_paths[group, :],
                    level + v,
                    depth + 1,
                )
            )

        self.node_count += 1
        self.internal_count += 1
        self.vantage_point_count += v
        return GMVPInternalNode(
            vp_ids, cutoffs, _region_shells(self, bounds, cutoffs), children
        )


def _region_shells(tree, bounds, cutoffs):
    """The shells of one node's children, as ``MVPTree`` widened them one
    node at a time: each child's shell around vantage point ``t`` becomes
    its depth-``t`` region's radii (``"tight"``) or cutoff interval
    (``"cutoff"``); a ``GMVPTree`` keeps the per-child shells."""
    if not isinstance(tree, MVPTree):
        return bounds
    m, v = tree.m, tree.v
    out = [list(child) for child in bounds]
    for t in range(v):
        width = m ** (v - 1 - t)  # children per partition of vp t
        if width == 1 and tree.bounds_mode == "tight":
            continue  # a one-child region's radii are the child's own
        for start in range(0, len(bounds), width):
            members = [
                bounds[c][t]
                for c in range(start, start + width)
                if bounds[c][t] != EMPTY_SHELL
            ]
            if not members:
                continue
            if tree.bounds_mode == "cutoff":
                row = cutoffs[t][start // (width * m)]
                g = (start // width) % m
                shell = (
                    0.0 if g == 0 else row[g - 1],
                    row[g] if g < m - 1 else float("inf"),
                )
            else:
                shell = (
                    min(lo for lo, _ in members),
                    max(hi for _, hi in members),
                )
            for c in range(start, start + width):
                out[c][t] = shell
    return out


def _gmvp_flatten(tree, root) -> kernels._GMVPArrays:
    """The tables of a reference multi-vantage node graph: slots in
    preorder with each node's children taken last-first."""
    m, v = tree.m, tree.v
    fanout = m**v
    internal_nodes: list = []
    leaves: list = []
    slot_of: dict[int, tuple[int, int]] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, GMVPLeafNode):
            slot_of[id(node)] = (kernels._LEAF, len(leaves))
            leaves.append(node)
        else:
            slot_of[id(node)] = (kernels._INTERNAL, len(internal_nodes))
            internal_nodes.append(node)
            stack.extend(c for c in node.children if c is not None)
    count = len(internal_nodes)
    arrays = kernels._GMVPArrays()
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
            arrays.child_kind[n, c], arrays.child_idx[n, c] = slot_of[id(child)]
            for t, (lo, hi) in enumerate(child_bounds):
                arrays.blo[n, c, t], arrays.bhi[n, c, t] = lo, hi
    arrays.leaf_offsets = kernels._offsets([len(n.ids) for n in leaves])
    arrays.leaf_ids = kernels._concat([n.ids for n in leaves], np.int64)
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
    kernels.derive(arrays)
    return arrays


class _NodeFirst:
    """The reference builds return nodes, so a reference tree starts
    from nodes (``_ref_root``): its tables are flattened from them when
    something reads them, and dropped when the nodes change."""

    _ref_root = None
    _ref_tables = None

    def _plant(self, root):
        self._ref_root, self._ref_tables = root, None

    def _tables(self):
        if self._ref_tables is None and self._ref_root is not None:
            self._ref_tables = self._flatten(self._ref_root)
        return self._ref_tables

    def _flatten(self, root):
        return _gmvp_flatten(self, root)


class _NodeInsert:
    """The node-at-a-time insert: route by the cutoffs, widen the shells
    on the path, append to the leaf, and rebuild a leaf that overflows
    into a subtree."""

    def insert(self, obj) -> int:
        self._objects.append(obj)
        idx = len(self._objects) - 1
        if self._ref_root is None:
            paths = np.full((1, self.p), np.nan)
            self._plant(self._build([idx], paths, level=1, depth=1))
            return idx
        self._plant(
            self._insert_into(self._ref_root, idx, 1, 1, path_entries=[], ancestors=[])
        )
        return idx

    def _insert_into(self, node, idx, level, depth, path_entries, ancestors):
        """Recursive descent; depth is bounded by the tree height."""
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
        m, v = self.m, self.v
        slot = 0
        for t, d in enumerate(ds):
            cutoffs = node.cutoffs[t][slot]
            slot = slot * m + next(
                (i for i, c in enumerate(cutoffs) if d <= c), len(cutoffs)
            )
        for t, d in enumerate(ds):
            width = m ** (v - 1 - t)
            start = slot // width * width
            for c in range(start, start + width):
                lo, hi = node.bounds[c][t]
                node.bounds[c][t] = (min(lo, d), max(hi, d))
        child = node.children[slot]
        if child is None:
            path_len = min(self.p, level + v - 1)
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

    def _insert_into_leaf(
        self, leaf, idx, d_first, level, depth, path_entries, ancestors
    ):
        if len(leaf.vp_ids) < self.v:
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
        previous = leaf.paths.reshape(n_prev, leaf.path_len)
        leaf.paths = np.vstack([previous, row.reshape(1, leaf.path_len)])
        self.leaf_data_point_count += 1
        if len(leaf.ids) > self.overflow_factor * self.k:
            return self._rebuild_leaf(leaf, level, depth, ancestors)
        return leaf

    def _rebuild_leaf(self, leaf, level, depth, ancestors):
        self.leaf_rebuild_count += 1
        vp_count = len(leaf.vp_ids)
        member_ids = list(leaf.vp_ids) + list(leaf.ids)
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
        self.node_count -= 1
        self.leaf_count -= 1
        self.vantage_point_count -= vp_count
        self.leaf_data_point_count -= len(leaf.ids)
        return self._build(member_ids, paths, level, depth)


class RefVPTree(_RecursiveVP, _NodeFirst, VPTree):
    pass


class RefGMVPTree(_RecursiveGMVP, _NodeFirst, GMVPTree):
    pass


class RefMVPTree(_RecursiveGMVP, _NodeFirst, MVPTree):
    pass


class RefDynamicMVPTree(_NodeInsert, _RecursiveGMVP, _NodeFirst, DynamicMVPTree):
    pass


def _duplicates() -> np.ndarray:
    """Distinct points plus runs of copies, so zero-diameter groups
    turn up at several depths (the 40 copies reach an mvp internal
    node whole)."""
    rng = np.random.default_rng(7)
    distinct = rng.random((260, 5))
    runs = ((3, 40), (50, 12), (90, 6), (120, 3), (200, 2))
    copies = [np.repeat(distinct[i : i + 1], n, axis=0) for i, n in runs]
    data = np.concatenate([distinct] + copies)
    return data[rng.permutation(len(data))]


UNIFORM = uniform_vectors(700, dim=6, rng=3)
DUPLICATES = _duplicates()
WORDS = synthetic_words(400, rng=5)
SELECTORS = ("random", "farthest", "max_spread")

CASES = {
    **{
        f"vpt-m{m}-leaf{cap}-{bounds}": (
            VPTree,
            dict(m=m, leaf_capacity=cap, bounds=bounds),
        )
        for m in (2, 3)
        for cap in (1, 4)
        for bounds in ("tight", "cutoff")
    },
    "mvpt-tight": (MVPTree, dict(m=3, k=9, p=4, bounds="tight")),
    "mvpt-cutoff": (MVPTree, dict(m=2, k=5, p=3, bounds="cutoff")),
    "gmvpt-v3": (GMVPTree, dict(m=2, v=3, k=6, p=5)),
}
REFERENCE = {
    VPTree: RefVPTree,
    MVPTree: RefMVPTree,
    GMVPTree: RefGMVPTree,
    DynamicMVPTree: RefDynamicMVPTree,
}


def _build(cls, data, metric, **params):
    counting = CountingMetric(metric)
    return cls(data, counting, rng=np.random.default_rng(11), **params), counting


def _node_form(node):
    """A node graph as nested lists (recursive; depth <= tree height)."""
    if node is None:
        return None
    if isinstance(node, VPLeafNode):
        return {"ids": list(node.ids)}
    if isinstance(node, VPInternalNode):
        return {
            "vp_id": node.vp_id,
            "cutoffs": list(node.cutoffs),
            "bounds": [list(b) for b in node.bounds],
            "children": [_node_form(c) for c in node.children],
        }
    if isinstance(node, GMVPLeafNode):
        return {
            "vp_ids": list(node.vp_ids),
            "ids": list(node.ids),
            "dists": node.dists.tolist(),
            "paths": node.paths.tolist(),
            "path_len": node.path_len,
        }
    return {
        "vp_ids": list(node.vp_ids),
        "cutoffs": [[list(row) for row in level] for level in node.cutoffs],
        "bounds": [[list(b) for b in row] for row in node.bounds],
        "children": [_node_form(c) for c in node.children],
    }


def _persisted(tree) -> str:
    """SHA-256 of the persisted form and the nodes, a reference tree's
    own or the view of a level build's tables (a digest keeps failure
    reports short)."""
    nodes = tree._ref_root if isinstance(tree, _NodeFirst) else root_node(tree)
    text = json.dumps([index_to_dict(tree), _node_form(nodes)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_same_tables(arrays, expected):
    for name in type(arrays).__slots__:
        got, want = getattr(arrays, name, None), getattr(expected, name, None)
        if isinstance(want, tuple):
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part, err_msg=name)
        elif isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        else:
            assert got == want, name


def _assert_same(tree, counting, ref, ref_counting, tmp_path=None):
    _assert_same_tables(tree._tables(), ref._tables())
    assert _persisted(tree) == _persisted(ref)
    for name in COUNTERS:
        assert getattr(tree, name, None) == getattr(ref, name, None), name
    assert counting.count == ref_counting.count
    assert tree._rng.bit_generator.state == ref._rng.bit_generator.state
    if tmp_path is not None:
        # The store writer takes exact family types only.
        plain = object.__new__(type(tree))
        plain.__dict__.update(ref.__dict__)
        plain._kernel_cache = ref._tables()
        write_store(tree, tmp_path / "level.rsx")
        write_store(plain, tmp_path / "recursive.rsx")
        stored = (tmp_path / "level.rsx").read_bytes()
        same = stored == (tmp_path / "recursive.rsx").read_bytes()
        assert same, ".rsx bytes differ"


def _check(cls, data, metric, tmp_path=None, **params):
    tree, counting = _build(cls, data, metric, **params)
    ref, ref_counting = _build(REFERENCE[cls], data, metric, **params)
    _assert_same(tree, counting, ref, ref_counting, tmp_path)


@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_vectors_build_node_for_node(case, selector, tmp_path):
    cls, params = CASES[case]
    _check(cls, UNIFORM, L2(), tmp_path, selector=selector, **params)


@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_duplicates_build_node_for_node(case, selector, tmp_path):
    cls, params = CASES[case]
    _check(cls, DUPLICATES, L2(), tmp_path, selector=selector, **params)


@pytest.mark.parametrize(
    "case", ["vpt-m2-leaf1-tight", "vpt-m3-leaf4-cutoff", "mvpt-tight", "gmvpt-v3"]
)
def test_words_build_node_for_node(case):
    cls, params = CASES[case]
    _check(cls, WORDS, EditDistance(), **params)


def test_identical_points_build_node_for_node():
    data = np.tile(np.array([0.5, -2.0]), (50, 1))
    for case in ("vpt-m2-leaf1-tight", "mvpt-tight", "gmvpt-v3"):
        cls, params = CASES[case]
        _check(cls, data, L2(), **params)


@pytest.mark.parametrize("data", [UNIFORM, DUPLICATES], ids=["uniform", "duplicates"])
def test_dynamic_rebuilds_node_for_node(data):
    """Inserts overflow leaves into local rebuilds; deletes past the
    threshold rebuild the whole tree."""
    trees = []
    for cls in (DynamicMVPTree, RefDynamicMVPTree):
        tree, counting = _build(
            cls, list(data[:150]), L2(), m=3, k=4, p=3, overflow_factor=1.5
        )
        for row in data[150:]:
            tree.insert(row)
        for idx in range(0, len(data), 3):
            tree.delete(idx)
        trees.append((tree, counting))
    assert trees[0][0].leaf_rebuild_count > 0 and trees[0][0].rebuild_count > 0
    _assert_same(*trees[0], *trees[1])


def test_non_metric_zero_groups_build_node_for_node():
    """A function that breaks the triangle inequality can hide a
    zero-diameter group from the crowding test; the build then starts
    over with the group marked and still yields the recursive tree,
    paying the distances of the abandoned passes again."""

    def near(a, b):
        return 0.0 if a[0] < 1.0 and b[0] < 1.0 else float(abs(a[0] - b[0]))

    rng = np.random.default_rng(0)
    inside = rng.random((300, 1)) < 0.3
    data = np.where(inside, rng.random((300, 1)), 1 + 7 * rng.random((300, 1)))
    for case in ("vpt-m2-leaf1-tight", "vpt-m3-leaf4-cutoff", "mvpt-tight", "gmvpt-v3"):
        cls, params = CASES[case]
        tree, counting = _build(cls, data, FunctionMetric(near), **params)
        ref, ref_counting = _build(REFERENCE[cls], data, FunctionMetric(near), **params)
        assert _persisted(tree) == _persisted(ref)
        for name in COUNTERS:
            assert getattr(tree, name, None) == getattr(ref, name, None), name
        assert counting.count > ref_counting.count  # it started over
        assert tree._rng.bit_generator.state == ref._rng.bit_generator.state


@pytest.mark.parametrize("case", ["vpt-m2-leaf4-tight", "mvpt-tight"])
def test_strided_view_builds_like_its_contiguous_copy(case):
    """A strided view is copied to C order once; the tree, its answers
    and its stats equal those over the contiguous copy."""
    cls, params = CASES[case]
    view = uniform_vectors(1200, dim=6, rng=9)[::2]
    assert not view.flags.c_contiguous
    tree, __ = _build(cls, view, L2(), **params)
    copy, __ = _build(cls, np.ascontiguousarray(view), L2(), **params)
    assert tree.objects.flags.c_contiguous
    assert _persisted(tree) == _persisted(copy)
    for query in view[:5] + 0.01:
        answers = []
        for index in (tree, copy):
            stats = QueryStats()
            knn = index.knn_search(query, 10, stats=stats)
            hits = index.range_search(query, 0.4, stats=stats)
            answers.append((knn, hits, stats.to_dict()))
        assert answers[0] == answers[1]


def _copies(distinct: int, copies: int) -> np.ndarray:
    """Every point ``copies`` times, shuffled."""
    rng = np.random.default_rng(copies)
    data = np.repeat(rng.random((distinct, 4)), copies, axis=0)
    return data[rng.permutation(len(data))]


@pytest.mark.parametrize("copies", [2, 5])
@pytest.mark.parametrize(
    "case", ["vpt-m2-leaf1-tight", "vpt-m3-leaf4-cutoff", "mvpt-tight", "gmvpt-v3"]
)
def test_copied_points_build_node_for_node(case, copies):
    """Zero-diameter groups in nearly every pass: pairs only ever form
    groups that draw what their planned subtrees would, five copies
    also form groups that move every later draw."""
    cls, params = CASES[case]
    _check(cls, _copies(150, copies), L2(), **params)


class _PassCounting(CountingMetric):
    """Counts segmented calls: one per level pass of a random vp-tree."""

    def __init__(self, inner):
        super().__init__(inner)
        self.passes = 0

    def segmented_distance(self, xs, starts, ys):
        self.passes += 1
        return super().segmented_distance(xs, starts, ys)


@pytest.mark.parametrize("copies", [1, 2])
def test_pairs_keep_one_pass_per_level(copies):
    """Zero-diameter pairs that move no draw neither split a level into
    several passes nor make the build start over."""
    metric = _PassCounting(L2())
    tree = VPTree(_copies(1000, copies), metric, m=2, leaf_capacity=1, rng=1)
    assert metric.passes <= tree.height
    assert metric.count == RefVPTree(
        _copies(1000, copies), CountingMetric(L2()), m=2, leaf_capacity=1, rng=1
    )._metric.count


def test_copies_that_fill_no_moving_group_keep_one_pass_per_level():
    """Five copies of every point crowd a pass only in subtrees with a
    planned group of four or five points, the only zero-diameter groups
    five copies could fill that move later draws; 800 points x 5 copies
    plan none, so the build keeps one pass per level and pays what the
    recursive build pays."""
    metric = _PassCounting(L2())
    tree = VPTree(_copies(800, 5), metric, m=2, leaf_capacity=1, rng=1)
    assert metric.passes <= tree.height
    assert metric.count == RefVPTree(
        _copies(800, 5), CountingMetric(L2()), m=2, leaf_capacity=1, rng=1
    )._metric.count

