"""Structural invariant verifier for every index class.

``verify_structure(index)`` walks a *built* index and re-derives the
claims its search algorithms rely on, returning a list of
:class:`Violation` records (empty when the structure is sound).  The
checks recompute distances with the index's own metric, so they cost
``O(n * height)`` metric evaluations — meant for tests and the
``repro-check`` CLI over small datasets, not for production data.

Invariants checked (paper sections 4.2/4.3 where applicable):

* ``id-partition`` — the node tree holds every expected id exactly once.
* ``cutoff-monotone`` — M1 cutoffs and every M2 row are non-decreasing
  (section 4.2: cutoffs are order statistics of sorted distances).
* ``m1-shape`` / ``m2-shape`` — M1 has ``m - 1`` entries, M2 is
  ``m x (m - 1)`` (a ``v``-vantage node keeps ``m**t`` such rows for
  its t-th vantage point), children/bounds have the advertised fanout.
* ``bounds-order`` — every present child's shell satisfies
  ``0 <= lo <= hi``.
* ``bounds-cutoff-consistent`` — shell radii fall inside the cutoff
  interval their partition claims (section 4.3 prunes against both).
* ``partition-membership`` — every point under a child really lies
  inside that child's claimed shells around every vantage point.
* ``leaf-distance`` — leaf D1/D2 entries equal recomputed distances to
  the leaf's vantage points (section 4.2 step 2.1/2.5).
* ``leaf-capacity`` — leaves respect ``k`` (or the dynamic overflow
  allowance ``overflow_factor * k``).
* ``path-shape`` / ``path-consistency`` — PATH rows have
  ``min(p, #ancestor vps)`` entries and equal recomputed distances to
  the ancestor vantage points in root-path order (section 4.1,
  Observation 2).
* ``gnat-range-bracket`` / ``gnat-voronoi`` — GNAT range tables bracket
  the true split-to-member distances (including the split point itself)
  and members are assigned to their closest split point.
* ``gh-membership`` / ``gh-covering-radius`` — GH-tree sides hold the
  closer points and the recorded covering radii dominate.
* ``bk-edge-exact`` — every BK-subtree under edge ``c`` sits at
  distance exactly ``c`` from the parent element.
* ``bk-dup-zero`` — every bucketed BK duplicate is at distance exactly
  0 from its node's element.
* ``table-truth`` / ``matrix-symmetry`` / ``matrix-diagonal`` — LAESA
  and AESA precomputed tables equal recomputed distances.
* ``transform-truth`` / ``transform-contraction`` — the transformed
  dataset matches ``transform.transform`` and sampled transformed
  distances never exceed the true metric (section 3.1's contraction
  requirement, the exactness precondition of filter-and-refine).
* ``shard-partition`` / ``shard-order`` / ``shard-size`` /
  ``replica-coverage`` / ``slot-consistency`` — a serving
  :class:`~repro.serve.sharding.ShardManager`'s shards partition the
  *live* id-set exactly (disjoint, covering ``next_id`` minus the
  deleted set, routing table agreeing), every shard's live ids and
  every slot's base ids are strictly increasing (deletes find their
  id by binary search), each built replica indexes
  exactly its base assignment, every populated shard keeps at least
  one available slot (the precondition for exact failover), and every
  slot's servable set — base minus tombstones, unioned with the
  memtable entries the base does not serve — equals the shard's live
  ids; replica inner structures are verified recursively.

The trees (and LAESA) are verified from their flat tables, their only
representation, so a built, JSON-loaded, insert-patched or store-backed
index takes the same path.  A
:class:`~repro.store.backed.StoreBackedIndex` is verified as the index
it holds over its mapped sections (``_impl``): the store's own tables,
cutoffs included.

An oversized leaf is exempt from ``leaf-capacity`` when its points are
a zero-diameter group (all at distance 0 from a representative — by
the triangle inequality that makes every pairwise distance 0): the
builders deliberately fall back to one leaf there, since no shell,
hyperplane, or range table can separate identical points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.dynamic import DynamicMVPTree
from repro.core.gmvptree import GMVPTree
from repro.indexes import kernels
from repro.indexes.base import MetricIndex
from repro.indexes.bktree import BKTree
from repro.indexes.distance_matrix import DistanceMatrixIndex
from repro.indexes.ghtree import GHTree
from repro.indexes.gnat import GNAT
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.indexes.vptree import VPTree
from repro.serve.sharding import ShardManager
from repro.store.backed import StoreBackedIndex
from repro.transforms.filter import TransformIndex

#: Relative tolerance for comparing stored against recomputed distances.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant at a node location."""

    invariant: str
    location: str
    message: str

    def format(self) -> str:
        return f"{self.invariant} @ {self.location}: {self.message}"


def _tol(*values: float) -> float:
    return _REL_TOL * (1.0 + max((abs(v) for v in values), default=0.0))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _tol(a, b)


def _within(value: float, lo: float, hi: float) -> bool:
    return lo - _tol(lo, value) <= value <= hi + _tol(hi, value)


def _nondecreasing(values) -> bool:
    return all(
        values[i + 1] >= values[i] - _tol(values[i])
        for i in range(len(values) - 1)
    )


def _first_disorder(ids) -> int:
    """Position of the first id not greater than its predecessor, or
    -1 when ``ids`` is strictly increasing."""
    bad = np.flatnonzero(np.diff(np.asarray(ids, dtype=np.int64)) <= 0)
    return int(bad[0]) + 1 if bad.size else -1


def _cutoff_interval(cutoffs, i: int) -> tuple[float, float]:
    """The cutoff-implied interval of partition ``i`` (section 4.3)."""
    lo = 0.0 if i == 0 else float(cutoffs[i - 1])
    hi = float(cutoffs[i]) if i < len(cutoffs) else float("inf")
    return lo, hi


def _zero_diameter(dist, objects, ids) -> bool:
    """Is every object in ``ids`` at distance 0 from the first one?

    By the triangle inequality all pairwise distances are then 0 too,
    so checking against one representative suffices.  Tree builders
    fall back to a single (oversized) leaf for such groups — no shell,
    hyperplane, or range table can separate identical points — and the
    leaf-capacity checks exempt exactly this case.
    """
    if len(ids) < 2:
        return True
    representative = objects[ids[0]]
    return all(float(dist(objects[i], representative)) == 0.0 for i in ids[1:])


def _check_id_partition(
    seen: list[int], expected: set[int], out: list[Violation], what: str
) -> None:
    counts: dict[int, int] = {}
    for idx in seen:
        counts[idx] = counts.get(idx, 0) + 1
    duplicates = sorted(i for i, c in counts.items() if c > 1)
    if duplicates:
        out.append(
            Violation(
                "id-partition",
                "root",
                f"ids stored more than once in the {what}: {duplicates[:10]}",
            )
        )
    missing = sorted(expected - set(counts))
    extra = sorted(set(counts) - expected)
    if missing or extra:
        out.append(
            Violation(
                "id-partition",
                "root",
                f"{what} id set mismatch: missing {missing[:10]}, "
                f"unexpected {extra[:10]}",
            )
        )


# ----------------------------------------------------------------------
# Table trees: VPTree, and GMVPTree (MVPTree = v=2, DynamicMVPTree)
# ----------------------------------------------------------------------
#
# The verifier reads the flat tables (repro.indexes.kernels), the trees'
# only representation, so one path covers built, decoded, store-backed
# and insert-patched trees of both families.  A walk from the root slot
# visits every reachable node once; a location is the child path from
# the root.


def _check_table_shapes(tables, shapes: dict, out: list[Violation]) -> bool:
    """``shapes`` maps a table to its ``(invariant, expected shape)``;
    reports every mismatch at the root and returns whether all match."""
    ok = True
    for name, (invariant, want) in shapes.items():
        got = getattr(tables, name).shape
        if got != want:
            ok = False
            out.append(
                Violation(invariant, "root", f"{name} has shape {got}, expected {want}")
            )
    return ok


def _reached_twice(
    reached: set, key: tuple, loc: str, out: list[Violation]
) -> bool:
    """Whether a node was reached before (the child tables do not make
    a tree); the first visit adds it to ``reached``."""
    if key in reached:
        out.append(Violation("id-partition", loc, f"node {key} is reached twice"))
        return True
    reached.add(key)
    return False


def _check_shell(lo, hi, cutoffs, g: int, name: str, loc: str, out) -> bool:
    """``bounds-order`` and ``bounds-cutoff-consistent`` for one present
    child's shell; False when the shell is unusable for membership
    checks."""
    if not (0.0 <= lo + _tol(lo) and lo <= hi + _tol(hi, lo)):
        out.append(
            Violation(
                "bounds-order",
                loc,
                f"{name}=({lo:.6g}, {hi:.6g}) violates 0 <= lo <= hi",
            )
        )
        return False
    c_lo, c_hi = _cutoff_interval(cutoffs, g)
    if not (_within(lo, c_lo, c_hi) and _within(hi, c_lo, c_hi)):
        out.append(
            Violation(
                "bounds-cutoff-consistent",
                loc,
                f"{name}=({lo:.6g}, {hi:.6g}) outside cutoff interval "
                f"({c_lo:.6g}, {c_hi:.6g})",
            )
        )
    return True


def _check_members(dist, objects, members, vp_id, lo, hi, label, loc, out) -> None:
    """``partition-membership``: every id in ``members`` lies inside the
    shell ``(lo, hi)`` around ``vp_id``."""
    for idx in members:
        d = dist(objects[idx], objects[vp_id])
        if not _within(d, lo, hi):
            out.append(
                Violation(
                    "partition-membership",
                    loc,
                    f"point {idx}: d(x, {label})={d:.6g} outside "
                    f"({lo:.6g}, {hi:.6g})",
                )
            )


def _check_leaf_capacity(dist, objects, ids, capacity, loc, out) -> None:
    if len(ids) > capacity and not _zero_diameter(dist, objects, ids):
        out.append(
            Violation(
                "leaf-capacity",
                loc,
                f"leaf holds {len(ids)} points > capacity {capacity}",
            )
        )


def _leaf_rows(tables, slot: int) -> slice:
    return slice(int(tables.leaf_offsets[slot]), int(tables.leaf_offsets[slot + 1]))


def verify_table_tree(index) -> list[Violation]:
    """Check a vp-tree's (section 3.3) or multi-vantage tree's (sections
    4.1-4.3, any number ``v`` of vantage points per node) invariants
    from its tables.  A vp-tree node is read as one vantage point, with
    no leaf vantage points, D_t or PATH rows."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    multi = isinstance(index, GMVPTree)
    m, v, p = index.m, (index.v if multi else 1), (index.p if multi else 0)
    fanout = m**v
    expected = set(range(len(objects)))
    leaf_cap = index.k if multi else index.leaf_capacity
    if isinstance(index, DynamicMVPTree):
        expected -= index.removed_ids - index.tombstone_ids
        leaf_cap = int(index.overflow_factor * index.k)
    tables = index._tables()
    if tables is None:
        if expected:
            out.append(
                Violation(
                    "id-partition", "root", f"empty tree but {len(expected)} ids expected"
                )
            )
        return out
    count, points = len(tables.vp_ids), len(tables.leaf_ids)
    if multi:
        shapes = {
            # M1 is vantage point 0's single cutoff row; M2 and beyond follow.
            "vp_ids": ("m1-shape", (count, v)),
            "cutoffs": ("m2-shape", (count, (fanout - 1) // (m - 1), m - 1)),
            "blo": ("m2-shape", (count, fanout, v)),
            "bhi": ("m2-shape", (count, fanout, v)),
            "child_kind": ("m2-shape", (count, fanout)),
            "child_idx": ("m2-shape", (count, fanout)),
            "leaf_vp_ids": ("leaf-distance", (len(tables.leaf_offsets) - 1, v)),
            "leaf_dists": ("leaf-distance", (points, v)),
            "leaf_paths": ("path-shape", (points, p)),
        }
    else:
        shapes = {
            name: ("m1-shape", shape)
            for name, shape in (
                ("vp_ids", (count,)),
                ("cutoffs", (count, m - 1)),
                ("child_lo", (count, m)),
                ("child_hi", (count, m)),
                ("child_kind", (count, m)),
                ("child_idx", (count, m)),
            )
        }
    if not _check_table_shapes(tables, shapes, out):
        return out  # indexed checks would be meaningless
    if multi:
        vp_table, cut_table = tables.vp_ids, tables.cutoffs
        lo_table, hi_table = tables.blo, tables.bhi
    else:
        vp_table, cut_table = tables.vp_ids[:, None], tables.cutoffs[:, None]
        lo_table, hi_table = tables.child_lo[..., None], tables.child_hi[..., None]
    first = [(m**t - 1) // (m - 1) for t in range(v)]  # cutoff rows per vp
    seen: list[int] = []
    reached: set = set()

    def visit(kind: int, slot: int, loc: str, ancestors: list[int]) -> list[int]:
        """Check the subtree at ``(kind, slot)`` and return its ids
        (recursive; depth bounded by tree height)."""
        if _reached_twice(reached, (kind, slot), loc, out):
            return []
        if kind == kernels._LEAF:
            return visit_leaf(slot, loc, ancestors)
        vps = vp_table[slot].tolist()
        seen.extend(vps)
        cutoffs = cut_table[slot]
        for t in range(v):
            for r in range(m**t):
                row = cutoffs[first[t] + r].tolist()
                if not _nondecreasing(row):
                    out.append(
                        Violation(
                            "cutoff-monotone",
                            loc,
                            f"cutoffs[{t}][{r}] not non-decreasing: {row}",
                        )
                    )
        ids = list(vps)
        for c in range(fanout):
            child_kind = int(tables.child_kind[slot, c])
            if not child_kind:
                continue
            child_loc = f"{loc}.children[{c}]"
            below = visit(
                child_kind, int(tables.child_idx[slot, c]), child_loc, ancestors + vps
            )
            for t in range(v):
                width = m ** (v - 1 - t)
                lo, hi = float(lo_table[slot, c, t]), float(hi_table[slot, c, t])
                row = cutoffs[first[t] + c // (width * m)]
                name = f"bounds[{c}][{t}]"
                if _check_shell(lo, hi, row, c // width % m, name, loc, out):
                    label = f"vp{t + 1}"
                    _check_members(
                        dist, objects, below, vps[t], lo, hi, label, child_loc, out
                    )
            ids += below
        return ids

    def visit_leaf(slot: int, loc: str, ancestors: list[int]) -> list[int]:
        rows = _leaf_rows(tables, slot)
        ids = tables.leaf_ids[rows].tolist()
        vp_ids = []
        if multi:
            vp_ids = [vp for vp in tables.leaf_vp_ids[slot].tolist() if vp >= 0]
        seen.extend(vp_ids + ids)
        if not ids:
            return vp_ids
        if multi and len(vp_ids) != v:
            out.append(
                Violation(
                    "leaf-distance",
                    loc,
                    f"leaf has data points but {len(vp_ids)} of {v} vantage points",
                )
            )
            return vp_ids + ids
        _check_leaf_capacity(dist, objects, ids, leaf_cap, loc, out)
        if not multi:
            return ids
        dists, paths = tables.leaf_dists[rows], tables.leaf_paths[rows]
        path_len = min(p, len(ancestors))
        if np.any(paths[:, path_len:]):
            out.append(
                Violation(
                    "path-shape",
                    loc,
                    f"PATH rows hold entries past their {path_len} kept ones",
                )
            )
        for t, vp_id in enumerate(vp_ids):
            for i, idx in enumerate(ids):
                d = dist(objects[idx], objects[vp_id])
                if not _close(float(dists[i, t]), d):
                    out.append(
                        Violation(
                            "leaf-distance",
                            loc,
                            f"D{t + 1}[{i}] (point {idx}, vp {vp_id}) = "
                            f"{float(dists[i, t]):.6g}, recomputed {d:.6g}",
                        )
                    )
        for i, idx in enumerate(ids):
            for s in range(path_len):
                expected_d = dist(objects[idx], objects[ancestors[s]])
                if not _close(float(paths[i, s]), expected_d):
                    out.append(
                        Violation(
                            "path-consistency",
                            loc,
                            f"PATH[{i}, {s}] (point {idx}, ancestor vp "
                            f"{ancestors[s]}) = {float(paths[i, s]):.6g}, "
                            f"recomputed {expected_d:.6g}",
                        )
                    )
        return vp_ids + ids

    visit(int(tables.root_kind), int(tables.root_idx), "root", [])
    _check_id_partition(
        seen, expected, out, "multi-vantage tree" if multi else "vp-tree"
    )
    return out


# ----------------------------------------------------------------------
# GHTree and GNAT, from their tables
# ----------------------------------------------------------------------


def verify_ghtree(index: GHTree) -> list[Violation]:
    """Check GHTree invariants (hyperplane sides + covering radii)."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    tables = index._tables()
    count = len(tables.pivot_ids)
    shapes = {
        name: ("m1-shape", (count, 2))
        for name in ("pivot_ids", "radii", "child_kind", "child_idx")
    }
    if not _check_table_shapes(tables, shapes, out):
        return out
    capacity = max(index.leaf_capacity, 1)
    seen: list[int] = []
    reached: set = set()

    def visit(kind: int, slot: int, loc: str) -> list[int]:
        """Check the subtree at ``(kind, slot)`` and return its ids
        (recursive; depth bounded by tree height)."""
        if _reached_twice(reached, (kind, slot), loc, out):
            return []
        if kind == kernels._LEAF:
            ids = tables.leaf_ids[_leaf_rows(tables, slot)].tolist()
            seen.extend(ids)
            _check_leaf_capacity(dist, objects, ids, capacity, loc, out)
            return ids
        pivots = tables.pivot_ids[slot].tolist()
        seen.extend(pivots)
        ids = list(pivots)
        for side, name in enumerate(("left", "right")):
            child_kind = int(tables.child_kind[slot, side])
            if not child_kind:
                continue
            child_loc = f"{loc}.{name}"
            below = visit(child_kind, int(tables.child_idx[slot, side]), child_loc)
            near, far = objects[pivots[side]], objects[pivots[1 - side]]
            radius = float(tables.radii[slot, side])
            for idx in below:
                d_near = dist(objects[idx], near)
                d_far = dist(objects[idx], far)
                if d_near > d_far + _tol(d_near, d_far):
                    out.append(
                        Violation(
                            "gh-membership",
                            child_loc,
                            f"point {idx} on the {name} side is closer to "
                            f"the other pivot ({d_near:.6g} > {d_far:.6g})",
                        )
                    )
                if d_near > radius + _tol(radius, d_near):
                    out.append(
                        Violation(
                            "gh-covering-radius",
                            child_loc,
                            f"point {idx}: d(x, pivot)={d_near:.6g} exceeds "
                            f"covering radius {radius:.6g}",
                        )
                    )
            ids += below
        return ids

    visit(int(tables.root_kind), int(tables.root_idx), "root")
    _check_id_partition(seen, set(range(len(objects))), out, "gh-tree")
    return out


def _gnat_layout(tables) -> str:
    """What is wrong with a GNAT's ragged table layout ('' if nothing):
    per internal node ``d`` split points and children and ``d**2``
    range cells."""
    degree = tables.node_degree
    runs = (
        ("split_offsets", degree, ("split_ids", "child_kind", "child_idx")),
        ("range_offsets", degree * degree, ("range_lo", "range_hi")),
    )
    for offsets_name, sizes, flat_names in runs:
        offsets = getattr(tables, offsets_name)
        if offsets.shape != (len(degree) + 1,) or offsets[0] != 0:
            return f"{offsets_name} has shape {offsets.shape}"
        if not np.array_equal(np.diff(offsets), sizes):
            return f"{offsets_name} runs disagree with node_degree"
        for name in flat_names:
            if getattr(tables, name).shape != (offsets[-1],):
                return f"{name} has shape {getattr(tables, name).shape}"
    return ""


def verify_gnat(index: GNAT) -> list[Violation]:
    """Check GNAT invariants (Voronoi assignment + range tables)."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    tables = index._tables()
    problem = _gnat_layout(tables)
    if problem:
        out.append(Violation("m1-shape", "root", problem))
        return out  # indexed checks would be meaningless
    seen: list[int] = []
    reached: set = set()

    def visit(kind: int, slot: int, loc: str) -> list[int]:
        """Check the subtree at ``(kind, slot)`` and return its ids
        (recursive; depth bounded by tree height)."""
        if _reached_twice(reached, (kind, slot), loc, out):
            return []
        if kind == kernels._LEAF:
            ids = tables.leaf_ids[_leaf_rows(tables, slot)].tolist()
            seen.extend(ids)
            _check_leaf_capacity(dist, objects, ids, index.leaf_capacity, loc, out)
            return ids
        start, stop = tables.split_offsets[slot : slot + 2].tolist()
        split_ids = tables.split_ids[start:stop].tolist()
        seen.extend(split_ids)
        degree = len(split_ids)
        kinds, slots = kernels.children(tables, slot)
        members = [
            visit(child_kind, child, f"{loc}.children[{j}]") if child_kind else []
            for j, (child_kind, child) in enumerate(zip(kinds.tolist(), slots.tolist()))
        ]
        for j in range(degree):
            child_loc = f"{loc}.children[{j}]"
            for idx in members[j]:
                d_own = dist(objects[idx], objects[split_ids[j]])
                for i in range(degree):
                    if i == j:
                        continue
                    d_other = dist(objects[idx], objects[split_ids[i]])
                    if d_own > d_other + _tol(d_own, d_other):
                        out.append(
                            Violation(
                                "gnat-voronoi",
                                child_loc,
                                f"point {idx} assigned to split {j} but is "
                                f"closer to split {i} "
                                f"({d_own:.6g} > {d_other:.6g})",
                            )
                        )
        at = int(tables.range_offsets[slot])
        cells = slice(at, at + degree * degree)
        lo_table = tables.range_lo[cells].reshape(degree, degree).tolist()
        hi_table = tables.range_hi[cells].reshape(degree, degree).tolist()
        for i in range(degree):
            for j in range(degree):
                lo, hi = lo_table[i][j], hi_table[i][j]
                if lo > hi + _tol(lo, hi):
                    out.append(
                        Violation(
                            "bounds-order",
                            loc,
                            f"ranges[{i}][{j}]=({lo:.6g}, {hi:.6g}) has lo > hi",
                        )
                    )
                    continue
                # The table must bracket split_j itself and every member
                # of dataset j (the [Bri95] contract the search relies on).
                for idx in [split_ids[j]] + members[j]:
                    d = dist(objects[split_ids[i]], objects[idx])
                    if not _within(d, lo, hi):
                        out.append(
                            Violation(
                                "gnat-range-bracket",
                                loc,
                                f"d(split_{i}, {idx})={d:.6g} outside "
                                f"ranges[{i}][{j}]=({lo:.6g}, {hi:.6g})",
                            )
                        )
        return split_ids + [idx for ids in members for idx in ids]

    visit(int(tables.root_kind), int(tables.root_idx), "root")
    _check_id_partition(seen, set(range(len(objects))), out, "gnat")
    return out


# ----------------------------------------------------------------------
# BKTree
# ----------------------------------------------------------------------


def verify_bktree(index: BKTree) -> list[Violation]:
    """Check BKTree invariants (exact-distance edges, [BK73])."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    seen: list[int] = []

    def subtree_ids(node) -> Iterator[int]:
        """Yield ids under ``node`` (recursive; depth <= tree height)."""
        yield node.id
        yield from node.dups
        for child in node.children.values():
            yield from subtree_ids(child)

    def visit(node, loc: str) -> None:
        """Recursive structural walk (depth bounded by tree height)."""
        seen.append(node.id)
        seen.extend(node.dups)
        for dup in node.dups:
            d = dist(objects[dup], objects[node.id])
            if float(d) != 0.0:
                out.append(
                    Violation(
                        "bk-dup-zero",
                        f"{loc}.dups",
                        f"bucketed duplicate {dup} is at distance {d} "
                        f"from element {node.id} (must be exactly 0)",
                    )
                )
        for edge, child in node.children.items():
            child_loc = f"{loc}.children[{edge!r}]"
            for idx in subtree_ids(child):
                d = dist(objects[idx], objects[node.id])
                if not _close(float(d), float(edge)):
                    out.append(
                        Violation(
                            "bk-edge-exact",
                            child_loc,
                            f"element {idx} under edge {edge} is at "
                            f"distance {d} from element {node.id}",
                        )
                    )
            visit(child, child_loc)

    if index.root is not None:
        visit(index.root, "root")
    _check_id_partition(seen, set(range(len(objects))), out, "bk-tree")
    return out


# ----------------------------------------------------------------------
# Table / matrix / transform / linear indexes
# ----------------------------------------------------------------------


def verify_laesa(index: LAESA) -> list[Violation]:
    """Check LAESA invariants (pivot-table truth)."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    n = len(objects)
    if index.table.shape != (n, index.n_pivots) or len(index.pivot_ids) != (
        index.n_pivots
    ):
        out.append(
            Violation(
                "table-truth",
                "table",
                f"table shape {index.table.shape} / {len(index.pivot_ids)} "
                f"pivots, expected ({n}, {index.n_pivots})",
            )
        )
        return out
    for column, pivot in enumerate(index.pivot_ids):
        if not 0 <= pivot < n:
            out.append(
                Violation(
                    "table-truth", f"table[:, {column}]", f"pivot id {pivot} out of range"
                )
            )
            continue
        for row in range(n):
            d = dist(objects[row], objects[pivot])
            if not _close(float(index.table[row, column]), d):
                out.append(
                    Violation(
                        "table-truth",
                        f"table[{row}, {column}]",
                        f"stored {float(index.table[row, column]):.6g}, "
                        f"recomputed {d:.6g} (pivot {pivot})",
                    )
                )
    return out


def verify_distance_matrix(index: DistanceMatrixIndex) -> list[Violation]:
    """Check AESA matrix invariants (symmetry, diagonal, truth)."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    n = len(objects)
    matrix = index.matrix
    if matrix.shape != (n, n):
        out.append(
            Violation(
                "table-truth",
                "matrix",
                f"matrix shape {matrix.shape}, expected ({n}, {n})",
            )
        )
        return out
    for i in range(n):
        if matrix[i, i] != 0.0:
            out.append(
                Violation(
                    "matrix-diagonal",
                    f"matrix[{i}, {i}]",
                    f"diagonal entry {matrix[i, i]:.6g} != 0",
                )
            )
    for i in range(n):
        for j in range(i + 1, n):
            if not _close(float(matrix[i, j]), float(matrix[j, i])):
                out.append(
                    Violation(
                        "matrix-symmetry",
                        f"matrix[{i}, {j}]",
                        f"{float(matrix[i, j]):.6g} != "
                        f"{float(matrix[j, i]):.6g} transposed",
                    )
                )
                continue
            d = dist(objects[i], objects[j])
            if not _close(float(matrix[i, j]), d):
                out.append(
                    Violation(
                        "table-truth",
                        f"matrix[{i}, {j}]",
                        f"stored {float(matrix[i, j]):.6g}, recomputed {d:.6g}",
                    )
                )
    return out


def verify_transform_index(index: TransformIndex) -> list[Violation]:
    """Check TransformIndex invariants (truth + contraction, section 3.1)."""
    out: list[Violation] = []
    objects = index._objects
    n = len(objects)
    transformed = index.transformed
    if len(transformed) != n:
        out.append(
            Violation(
                "transform-truth",
                "transformed",
                f"{len(transformed)} transformed rows for {n} objects",
            )
        )
        return out
    for i in range(n):
        fresh = np.asarray(index.transform.transform(objects[i]))
        stored = np.asarray(transformed[i])
        if stored.shape != fresh.shape or not np.allclose(
            stored, fresh, rtol=_REL_TOL, atol=_REL_TOL
        ):
            out.append(
                Violation(
                    "transform-truth",
                    f"transformed[{i}]",
                    "stored transform differs from transform.transform(object)",
                )
            )
    # Contraction on a deterministic sample of pairs: the filter is only
    # exact when transformed distances never exceed true distances.
    target = index.transform.target_metric
    sample = range(0, n, max(1, n // 12))
    for i in sample:
        for j in sample:
            if j <= i:
                continue
            d_true = index._metric.distance(objects[i], objects[j])
            d_low = target.distance(transformed[i], transformed[j])
            if d_low > d_true + _tol(d_low, d_true):
                out.append(
                    Violation(
                        "transform-contraction",
                        f"pair ({i}, {j})",
                        f"transformed distance {d_low:.6g} exceeds true "
                        f"distance {d_true:.6g}",
                    )
                )
    return out


def verify_linear(index: LinearScan) -> list[Violation]:
    """LinearScan stores no structure; only the dataset must be non-empty."""
    if len(index._objects) == 0:
        return [Violation("id-partition", "root", "empty dataset")]
    return []


def verify_shard_manager(manager) -> list[Violation]:
    """A :class:`~repro.serve.sharding.ShardManager` deployment.

    * ``shard-partition`` — the per-shard id lists partition the *live*
      id-set exactly: disjoint (no gid twice), and their union equals
      every gid ever assigned (``next_id``) minus every gid deleted
      (``removed_ids``).  This is what makes merged answers equal a
      single index's over the current live set: a duplicated gid could
      be reported twice, a missing gid never, a resurrected one wrongly.
      The gid→shard routing table must agree with the lists.
    * ``shard-order`` — every shard's live ids and every slot's base
      ids are strictly increasing: deletes locate a gid (and a
      ``DynamicMVPTree`` slot its local position) by binary search, so
      an out-of-order list would make them miss.
    * ``replica-coverage`` — the replica table has exactly
      ``replication_factor`` rows and every *populated* shard keeps at
      least one available slot (a live base index, or a base-less slot
      served entirely from the shard memtable, the state a fresh split
      starts in); with zero available slots exact failover is
      impossible and the deployment can only answer degraded.  A lost
      replica alongside an available sibling is legal (that is the
      state ``recover()`` repairs), so it is not flagged.
    * ``slot-consistency`` — the per-slot serving invariant behind
      memtable-union search: what a slot actually serves — its base
      ids minus its tombstones, unioned with the memtable entries its
      base does not actively serve — must equal the shard's live
      id-set, for every slot that still has its base (or never had
      one).
    * ``shard-size`` — a built replica indexes exactly its recorded
      base ids; a slot with no base ids must carry no index at all.
    * ``replica-share`` — one base object may serve several slots only
      when it is read-only (:meth:`ShardManager.absorbs_writes` is
      false: an absorbing base would take each insert once per slot)
      and only when those slots record the same base ids.

    Each built base's inner structure is then verified recursively
    with its own class verifier (depth 1 — shards never nest), once per
    base object, its violations prefixed with the location of the
    first slot holding it.
    """
    out: list[Violation] = []
    shard_ids = manager.shard_ids
    expected = set(range(manager.next_id())) - set(manager.removed_ids())
    seen: dict[int, int] = {}
    for ids in shard_ids:
        for idx in ids:
            seen[idx] = seen.get(idx, 0) + 1
    duplicated = sorted(idx for idx, times in seen.items() if times > 1)
    missing = sorted(expected - set(seen))
    alien = sorted(set(seen) - expected)
    if duplicated:
        out.append(
            Violation(
                "shard-partition",
                "shards",
                f"ids assigned to more than one shard: {duplicated[:10]}",
            )
        )
    if missing:
        out.append(
            Violation(
                "shard-partition",
                "shards",
                f"live ids assigned to no shard: {missing[:10]}",
            )
        )
    if alien:
        out.append(
            Violation(
                "shard-partition",
                "shards",
                f"ids outside the live set (deleted or never assigned): "
                f"{alien[:10]}",
            )
        )
    misrouted = sorted(
        gid
        for shard, ids in enumerate(shard_ids)
        for gid in ids
        if manager._shard_of.get(gid) != shard
    )
    if misrouted:
        out.append(
            Violation(
                "shard-partition",
                "shards",
                f"routing table disagrees with shard lists for: "
                f"{misrouted[:10]}",
            )
        )
    for shard, ids in enumerate(shard_ids):
        pos = _first_disorder(ids)
        if pos >= 0:
            out.append(
                Violation(
                    "shard-order",
                    f"shard[{shard}]",
                    f"live ids not strictly increasing at position {pos}: "
                    f"{ids[pos - 1]} then {ids[pos]}",
                )
            )
    factor = getattr(manager, "replication_factor", 1)
    rows = manager.replicas
    if len(rows) != factor:
        out.append(
            Violation(
                "replica-coverage",
                "shards",
                f"replica table has {len(rows)} rows but "
                f"replication_factor is {factor}",
            )
        )
    # id(base) -> (location, base ids) of the first slot holding it.
    holders: dict[int, tuple[str, list[int]]] = {}
    for shard, ids in enumerate(shard_ids):
        live_set = set(ids)
        available = [
            r for r in range(len(rows)) if manager.slot_available(shard, r)
        ]
        if ids and not available:
            out.append(
                Violation(
                    "replica-coverage",
                    f"shard[{shard}]",
                    f"{len(ids)} live ids assigned but no available slot "
                    f"(replication_factor={factor}) — exact failover "
                    "impossible",
                )
            )
        mem = manager.memtable(shard)
        for r in range(len(rows)):
            index = rows[r][shard]
            base_ids, dead = manager.slot_state(shard, r)
            location = (
                f"shard[{shard}]/replica[{r}]"
                if len(rows) > 1
                else f"shard[{shard}]"
            )
            pos = _first_disorder(base_ids)
            if pos >= 0:
                out.append(
                    Violation(
                        "shard-order",
                        location,
                        f"base ids not strictly increasing at position "
                        f"{pos}: {base_ids[pos - 1]} then {base_ids[pos]}",
                    )
                )
            first = (
                holders.setdefault(id(index), (location, base_ids))
                if index is not None
                else None
            )
            shared = first is not None and first[0] != location
            if shared and ShardManager.absorbs_writes(index):
                out.append(
                    Violation(
                        "replica-share",
                        location,
                        f"{type(index).__name__} updates in place but is "
                        f"also held by {first[0]}",
                    )
                )
            if shared and base_ids != first[1]:
                out.append(
                    Violation(
                        "replica-share",
                        location,
                        f"shares its base with {first[0]} but their base "
                        "ids differ",
                    )
                )
            if index is None and base_ids:
                # A lost replica: its base is gone but its bookkeeping
                # remains for recover() — nothing servable to check
                # (the all-lost case is caught above).
                continue
            if index is not None and not base_ids:
                out.append(
                    Violation(
                        "shard-size",
                        location,
                        "index built over an empty base assignment",
                    )
                )
                continue
            base_set = set(base_ids)
            # Tombstone-serving bases keep deleted points physically
            # present; DynamicMVPTree removes deleted points in place,
            # but a split only tombstones the points it moves away.
            expected_len = len(base_ids)
            if isinstance(index, DynamicMVPTree):
                removed = index.removed_ids
                expected_len -= len(removed)
                untracked = sorted(
                    i for i in removed
                    if i >= len(base_ids) or base_ids[i] not in dead
                )
                if untracked:
                    out.append(
                        Violation(
                            "shard-size",
                            location,
                            f"dynamic base deleted local ids its slot does "
                            f"not tombstone: {untracked[:5]}",
                        )
                    )
            if index is not None and len(index) != expected_len:
                out.append(
                    Violation(
                        "shard-size",
                        location,
                        f"index holds {len(index)} objects, base "
                        f"assignment expects {expected_len}",
                    )
                )
                continue
            served = (base_set - dead) | {
                gid for gid in mem if gid not in base_set or gid in dead
            }
            if served != live_set:
                extra = sorted(served - live_set)
                lost = sorted(live_set - served)
                out.append(
                    Violation(
                        "slot-consistency",
                        location,
                        f"slot serves the wrong id-set (phantom: "
                        f"{extra[:5]}, unreachable: {lost[:5]})",
                    )
                )
            if index is None or shared:
                # A shared base's structure is verified at its first slot.
                continue
            for violation in verify_structure(index):
                out.append(
                    Violation(
                        violation.invariant,
                        f"{location}/{violation.location}",
                        violation.message,
                    )
                )
    return out


def verify_breaker_machine() -> list[Violation]:
    """Drive a scripted circuit breaker through its full state graph.

    Under an injected clock, persistent failures must open the breaker,
    the cooldown must admit exactly a half-open probe, a failed probe
    must reopen, and a successful probe must close — and the recorded
    transition history must chain legally from ``closed``
    (:func:`repro.resilience.breaker.verify_transitions`).
    """
    from repro.resilience.breaker import (
        CLOSED,
        HALF_OPEN,
        OPEN,
        CircuitBreaker,
        verify_transitions,
    )

    now = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=0.5,
        window=4,
        min_samples=2,
        cooldown=1.0,
        clock=lambda: now[0],
    )
    out: list[Violation] = []

    def expect(state: str, step: str) -> None:
        if breaker.state != state:
            out.append(
                Violation(
                    "breaker-state",
                    f"breaker/{step}",
                    f"expected {state!r}, found {breaker.state!r}",
                )
            )

    for _ in range(4):
        breaker.allow()
        breaker.record_failure()
    expect(OPEN, "after-failures")
    if breaker.allow():
        out.append(
            Violation(
                "breaker-state",
                "breaker/open",
                "open breaker admitted a call before its cooldown elapsed",
            )
        )
    now[0] = 1.5
    if not breaker.allow():
        out.append(
            Violation(
                "breaker-state",
                "breaker/after-cooldown",
                "cooled-down breaker refused its half-open probe",
            )
        )
    expect(HALF_OPEN, "after-cooldown")
    breaker.record_failure()
    expect(OPEN, "after-failed-probe")
    now[0] = 3.0
    breaker.allow()
    breaker.record_success()
    expect(CLOSED, "after-successful-probe")

    for message in verify_transitions(breaker.transitions, breaker.state):
        out.append(Violation("breaker-transition", "breaker", message))
    return out


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

#: Ordered (class, verifier) registry; subclasses must precede parents.
VERIFIERS: list[tuple[type, Callable[[MetricIndex], list[Violation]]]] = [
    (ShardManager, verify_shard_manager),
    (StoreBackedIndex, lambda index: verify_structure(index._impl)),
    (GMVPTree, verify_table_tree),
    (VPTree, verify_table_tree),
    (GHTree, verify_ghtree),
    (GNAT, verify_gnat),
    (BKTree, verify_bktree),
    (LAESA, verify_laesa),
    (DistanceMatrixIndex, verify_distance_matrix),
    (TransformIndex, verify_transform_index),
    (LinearScan, verify_linear),
]


def verify_structure(index: MetricIndex) -> list[Violation]:
    """Verify the structural invariants of any supported index.

    Returns a (possibly empty) list of violations; raises ``TypeError``
    for index types without a registered verifier.
    """
    for cls, verifier in VERIFIERS:
        if isinstance(index, cls):
            return verifier(index)
    raise TypeError(
        f"no structural verifier registered for {type(index).__name__}"
    )
