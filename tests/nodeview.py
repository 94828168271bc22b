"""Node objects made from a tree's flat tables, for tests that walk nodes.

The trees keep only their tables (:mod:`repro.indexes.kernels`).  Tests
that state an invariant node by node, or walk a tree the way a
reference algorithm does, read the nodes :func:`root_node` makes from them:
GNAT nodes carry ``split_ids``, ``ranges[i][j] = (lo, hi)`` and
``children``; gh-tree nodes their pivots ``p1_id``/``p2_id``, covering
radii ``r1``/``r2`` and ``left``/``right``; the leaves of both ``ids``.
vp-tree nodes carry one vantage point, shells ``bounds[i] = (lo, hi)``
and ``children``; multi-vantage nodes carry ``v`` vantage points,
``cutoffs[t]`` (``m**t`` rows of ``m - 1``), ``bounds[c][t]`` and
``children``, and their leaves ``dists`` ``(v, n)`` (D1/D2 at
``v = 2``), ``paths`` ``(n, path_len)`` (PATH) and ``path_len``.
Missing children are ``None``; their shells are the ones the class's
``_shells`` gives an empty child (the empty shell
:data:`EMPTY_SHELL`, or an ``MVPTree`` region's).
"""

import numpy as np

from repro.indexes import kernels
from repro.indexes.ghtree import _GHArrays
from repro.indexes.gnat import _GNATArrays

#: Shell of an empty partition: no distance can fall inside it.
EMPTY_SHELL = (float("inf"), float("-inf"))


class VPInternalNode:
    __slots__ = ("vp_id", "cutoffs", "bounds", "children")

    def __init__(self, vp_id, cutoffs, bounds, children):
        self.vp_id = vp_id
        self.cutoffs = cutoffs
        self.bounds = bounds
        self.children = children


class VPLeafNode:
    __slots__ = ("ids",)

    def __init__(self, ids):
        self.ids = ids


class GMVPInternalNode:
    __slots__ = ("vp_ids", "cutoffs", "bounds", "children")

    def __init__(self, vp_ids, cutoffs, bounds, children):
        self.vp_ids = vp_ids
        self.cutoffs = cutoffs
        self.bounds = bounds
        self.children = children


class GMVPLeafNode:
    __slots__ = ("vp_ids", "ids", "dists", "paths", "path_len")

    def __init__(self, vp_ids, ids, dists, paths, path_len):
        self.vp_ids = vp_ids
        self.ids = ids
        self.dists = dists
        self.paths = paths
        self.path_len = path_len


class GNATInternalNode:
    __slots__ = ("split_ids", "ranges", "children")

    def __init__(self, split_ids, ranges, children):
        self.split_ids = split_ids
        self.ranges = ranges
        self.children = children


class GNATLeafNode:
    __slots__ = ("ids",)

    def __init__(self, ids):
        self.ids = ids


class GHInternalNode:
    __slots__ = ("p1_id", "p2_id", "r1", "r2", "left", "right")

    def __init__(self, p1_id, p2_id, r1, r2):
        self.p1_id, self.p2_id, self.r1, self.r2 = p1_id, p2_id, r1, r2
        self.left = self.right = None


class GHLeafNode:
    __slots__ = ("ids",)

    def __init__(self, ids):
        self.ids = ids


def root_node(tree):
    """The root node of ``tree`` (a vp-tree, multi-vantage tree, GNAT
    or gh-tree, or a store-backed one), or ``None`` for the empty
    tree."""
    tree = getattr(tree, "_impl", tree)
    tables = tree._tables()
    if tables is None:
        return None
    if isinstance(tables, kernels._VPArrays):
        return _vp_root(tree, tables)
    if isinstance(tables, _GNATArrays):
        return _gnat_root(tables)
    if isinstance(tables, _GHArrays):
        return _gh_root(tables)
    return _gmvp_root(tree, tables)


def _leaves(tables, leaf_class) -> list:
    at, ids = tables.leaf_offsets.tolist(), tables.leaf_ids.tolist()
    return [leaf_class(ids[a:b]) for a, b in zip(at, at[1:])]


def _gnat_root(tables):
    internals = []
    for n, degree in enumerate(tables.node_degree.tolist()):
        at = tables.split_offsets[n]
        cells = slice(tables.range_offsets[n], tables.range_offsets[n + 1])
        lo = tables.range_lo[cells].reshape(degree, degree).tolist()
        hi = tables.range_hi[cells].reshape(degree, degree).tolist()
        ranges = [list(zip(lo_row, hi_row)) for lo_row, hi_row in zip(lo, hi)]
        split_ids = tables.split_ids[at : at + degree].tolist()
        internals.append(GNATInternalNode(split_ids, ranges, None))
    kinds = (None, internals, _leaves(tables, GNATLeafNode))
    for n, node in enumerate(internals):
        kids, slots = (part.tolist() for part in kernels.children(tables, n))
        node.children = [kinds[k][c] if k else None for k, c in zip(kids, slots)]
    return kinds[tables.root_kind][tables.root_idx]


def _gh_root(tables):
    internals = [
        GHInternalNode(p1, p2, r1, r2)
        for (p1, p2), (r1, r2) in zip(tables.pivot_ids.tolist(), tables.radii.tolist())
    ]
    kinds = (None, internals, _leaves(tables, GHLeafNode))
    for node, kids, slots in zip(
        internals, tables.child_kind.tolist(), tables.child_idx.tolist()
    ):
        node.left, node.right = (
            kinds[k][c] if k else None for k, c in zip(kids, slots)
        )
    return kinds[tables.root_kind][tables.root_idx]


def _wire(tables, internals: list, leaves: list):
    """Hang the internal nodes (slot order) from the child tables over
    the leaves (slot order); returns the root node."""
    kinds = (None, internals, leaves)
    for node, kids, slots in zip(
        internals, tables.child_kind.tolist(), tables.child_idx.tolist()
    ):
        node.children = [kinds[k][c] if k else None for k, c in zip(kids, slots)]
    return kinds[tables.root_kind][tables.root_idx]


def _vp_root(tree, tables):
    m, present = tree.m, tables.child_kind > 0
    lo = np.where(present, tables.child_lo, np.inf).ravel().tolist()
    hi = np.where(present, tables.child_hi, -np.inf).ravel().tolist()
    shells = list(zip(lo, hi))
    leaves = _leaves(tables, VPLeafNode)
    internals = [
        VPInternalNode(vp_id, cuts, shells[n * m : n * m + m], None)
        for n, (vp_id, cuts) in enumerate(
            zip(tables.vp_ids.tolist(), tables.cutoffs.tolist())
        )
    ]
    return _wire(tables, internals, leaves)


def _gmvp_root(tree, tables):
    m, v, p = tree.m, tree.v, tree.p
    fanout = m**v
    kind, child = tables.child_kind, tables.child_idx
    present = (kind > 0)[..., None]
    lo, hi = tree._shells(
        np.where(present, tables.blo, np.inf),
        np.where(present, tables.bhi, -np.inf),
        tables.cutoffs,
    )
    shells = list(zip(lo.ravel().tolist(), hi.ravel().tolist()))
    first = [(m**t - 1) // (m - 1) for t in range(v + 1)]
    internals = []
    for n, (vp_ids, rows) in enumerate(
        zip(tables.vp_ids.tolist(), tables.cutoffs.tolist())
    ):
        cuts = [rows[first[t] : first[t + 1]] for t in range(v)]
        bounds = [
            shells[c * v : c * v + v] for c in range(n * fanout, (n + 1) * fanout)
        ]
        internals.append(GMVPInternalNode(vp_ids, cuts, bounds, None))
    # A leaf under an internal node at depth d (the root's is 0) sits at
    # level 1 + v * (d + 1) and keeps min(p, level - 1) PATH entries.
    leaf = kind == kernels._LEAF
    leaf_level = np.ones(len(tables.leaf_offsets) - 1, dtype=np.intp)
    below = 1 + v * (kernels.depths(tables) + 1)
    leaf_level[child[leaf]] = np.broadcast_to(below[:, None], kind.shape)[leaf]
    at, ids = tables.leaf_offsets.tolist(), tables.leaf_ids.tolist()
    leaves = []
    for vp_ids, a, b, path_len in zip(
        tables.leaf_vp_ids.tolist(),
        at,
        at[1:],
        np.minimum(p, leaf_level - 1).tolist(),
    ):
        vp_ids = [vp for vp in vp_ids if vp >= 0]
        if b > a:
            dists = tables.leaf_dists[a:b].T
        else:
            dists = np.zeros((max(len(vp_ids) - 1, 0), 0))
        paths = tables.leaf_paths[a:b, :path_len]
        leaves.append(GMVPLeafNode(vp_ids, ids[a:b], dists, paths, path_len))
    return _wire(tables, internals, leaves)
