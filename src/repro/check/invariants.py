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
* ``bounds-order`` — every stored shell satisfies ``0 <= lo <= hi``
  (the ``(inf, -inf)`` empty-partition sentinel is exempt).
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

A :class:`~repro.store.backed.StoreBackedIndex` is verified as the index
it holds over its mapped sections (``_impl``): a tree's node view is
made from the store's own tables, cutoffs included.

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
from repro.core.gmvptree import GMVPLeafNode, GMVPTree
from repro.indexes.base import MetricIndex
from repro.indexes.bktree import BKTree
from repro.indexes.distance_matrix import DistanceMatrixIndex
from repro.indexes.ghtree import GHLeafNode, GHTree
from repro.indexes.gnat import GNAT, GNATLeafNode
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.indexes.vptree import VPLeafNode, VPTree
from repro.serve.sharding import ShardManager
from repro.store.backed import StoreBackedIndex
from repro.transforms.filter import TransformIndex

#: Relative tolerance for comparing stored against recomputed distances.
_REL_TOL = 1e-9

_EMPTY_BOUND_LO = float("inf")


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


def _is_empty_bound(bound) -> bool:
    lo, hi = bound
    return lo == _EMPTY_BOUND_LO and hi == float("-inf")


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
# Multi-vantage trees (GMVPTree, MVPTree = v=2, DynamicMVPTree)
# ----------------------------------------------------------------------


def _gmvp_subtree_ids(node) -> Iterator[int]:
    """Yield every id under ``node`` (recursive; depth <= tree height)."""
    if node is None:
        return
    yield from node.vp_ids
    if isinstance(node, GMVPLeafNode):
        yield from node.ids
        return
    for child in node.children:
        yield from _gmvp_subtree_ids(child)


def verify_gmvptree(index: GMVPTree) -> list[Violation]:
    """Check GMVPTree / MVPTree / DynamicMVPTree invariants (sections
    4.1-4.3, for any number ``v`` of vantage points per node)."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    m, v = index.m, index.v
    if isinstance(index, DynamicMVPTree):
        expected = set(range(len(objects))) - (
            index.removed_ids - index.tombstone_ids
        )
        leaf_cap = int(index.overflow_factor * index.k)
    else:
        expected = set(range(len(objects)))
        leaf_cap = index.k
    if index.root is None:
        if expected:
            out.append(
                Violation(
                    "id-partition", "root", f"empty tree but {len(expected)} ids expected"
                )
            )
        return out
    seen: list[int] = []

    def visit(node, loc: str, ancestors: list[int]) -> None:
        """Recursive structural walk (depth bounded by tree height)."""
        seen.extend(node.vp_ids)
        if isinstance(node, GMVPLeafNode):
            _visit_leaf(node, loc, ancestors)
            return

        if len(node.vp_ids) != v:
            out.append(
                Violation(
                    "m1-shape",
                    loc,
                    f"internal node has {len(node.vp_ids)} vantage points, "
                    f"expected {v}",
                )
            )
        cutoff_shapes = [len(node.cutoffs) == v] + [
            len(rows) == m**t and all(len(row) == m - 1 for row in rows)
            for t, rows in enumerate(node.cutoffs)
        ]
        if not all(cutoff_shapes):
            # M1 is vantage point 0's single row; M2 and beyond follow.
            m1_ok = len(cutoff_shapes) > 1 and cutoff_shapes[1]
            out.append(
                Violation(
                    "m2-shape" if m1_ok else "m1-shape",
                    loc,
                    f"cutoffs are not {v} levels of m**t rows of {m - 1} "
                    "entries",
                )
            )
            return  # subsequent indexed checks would be meaningless
        if len(node.children) != m**v or len(node.bounds) != m**v or any(
            len(row) != v for row in node.bounds
        ):
            out.append(
                Violation(
                    "m2-shape",
                    loc,
                    f"children/bounds fanout inconsistent with m**v={m**v}",
                )
            )
            return

        for t, rows in enumerate(node.cutoffs):
            for r, row in enumerate(rows):
                if not _nondecreasing(row):
                    out.append(
                        Violation(
                            "cutoff-monotone",
                            loc,
                            f"cutoffs[{t}][{r}] not non-decreasing: {row}",
                        )
                    )

        for c, child in enumerate(node.children):
            for t in range(v):
                width = m ** (v - 1 - t)
                row = node.cutoffs[t][c // (width * m)]
                if not _check_shell(
                    node.bounds[c][t], child, row, c // width % m,
                    f"bounds[{c}][{t}]", loc,
                ):
                    continue
                if child is None:
                    continue
                lo, hi = node.bounds[c][t]
                for idx in _gmvp_subtree_ids(child):
                    d = dist(objects[idx], objects[node.vp_ids[t]])
                    if not _within(d, lo, hi):
                        out.append(
                            Violation(
                                "partition-membership",
                                f"{loc}.children[{c}]",
                                f"point {idx}: d(x, vp{t + 1})={d:.6g} outside "
                                f"bounds[{c}][{t}]=({lo:.6g}, {hi:.6g})",
                            )
                        )

        child_ancestors = ancestors + list(node.vp_ids)
        for c, child in enumerate(node.children):
            if child is not None:
                visit(child, f"{loc}.children[{c}]", child_ancestors)

    def _check_shell(bound, child, cutoffs, g: int, name: str, loc: str) -> bool:
        """``bounds-order`` and ``bounds-cutoff-consistent`` for one
        shell; False when the shell is unusable for membership checks."""
        if _is_empty_bound(bound):
            if child is not None:
                out.append(
                    Violation(
                        "bounds-order",
                        loc,
                        f"{name} is the empty sentinel but the child is "
                        "non-empty",
                    )
                )
            return False
        lo, hi = bound
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

    def _visit_leaf(node: GMVPLeafNode, loc: str, ancestors: list[int]) -> None:
        seen.extend(node.ids)
        if not len(node.ids):
            return
        if len(node.vp_ids) != v:
            out.append(
                Violation(
                    "leaf-distance",
                    loc,
                    f"leaf has data points but {len(node.vp_ids)} of {v} "
                    "vantage points",
                )
            )
            return
        if len(node.ids) > leaf_cap and not _zero_diameter(
            dist, objects, node.ids
        ):
            out.append(
                Violation(
                    "leaf-capacity",
                    loc,
                    f"leaf holds {len(node.ids)} points > capacity {leaf_cap}",
                )
            )
        if node.dists.shape != (v, len(node.ids)):
            out.append(
                Violation(
                    "leaf-distance",
                    loc,
                    f"dists shape {node.dists.shape}, expected "
                    f"({v}, {len(node.ids)})",
                )
            )
            return
        expected_path_len = min(index.p, len(ancestors))
        if node.path_len != expected_path_len or node.paths.shape != (
            len(node.ids),
            node.path_len,
        ):
            out.append(
                Violation(
                    "path-shape",
                    loc,
                    f"paths shape {node.paths.shape} / path_len "
                    f"{node.path_len}, expected ({len(node.ids)}, "
                    f"{expected_path_len})",
                )
            )
            return
        for t, vp_id in enumerate(node.vp_ids):
            for i, idx in enumerate(node.ids):
                d = dist(objects[idx], objects[vp_id])
                if not _close(float(node.dists[t, i]), d):
                    out.append(
                        Violation(
                            "leaf-distance",
                            loc,
                            f"D{t + 1}[{i}] (point {idx}, vp {vp_id}) = "
                            f"{float(node.dists[t, i]):.6g}, recomputed {d:.6g}",
                        )
                    )
        for i, idx in enumerate(node.ids):
            for s in range(node.path_len):
                expected_d = dist(objects[idx], objects[ancestors[s]])
                if not _close(float(node.paths[i, s]), expected_d):
                    out.append(
                        Violation(
                            "path-consistency",
                            loc,
                            f"PATH[{i}, {s}] (point {idx}, ancestor vp "
                            f"{ancestors[s]}) = {float(node.paths[i, s]):.6g}, "
                            f"recomputed {expected_d:.6g}",
                        )
                    )

    visit(index.root, "root", [])
    _check_id_partition(seen, expected, out, "multi-vantage tree")
    return out


# ----------------------------------------------------------------------
# VPTree
# ----------------------------------------------------------------------


def _vp_subtree_ids(node) -> Iterator[int]:
    """Yield every id under ``node`` (recursive; depth <= tree height)."""
    if node is None:
        return
    if isinstance(node, VPLeafNode):
        yield from node.ids
        return
    yield node.vp_id
    for child in node.children:
        yield from _vp_subtree_ids(child)


def verify_vptree(index: VPTree) -> list[Violation]:
    """Check VPTree invariants (spherical-cut shells, section 3.3)."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    m = index.m
    seen: list[int] = []

    def visit(node, loc: str) -> None:
        """Recursive structural walk (depth bounded by tree height)."""
        if isinstance(node, VPLeafNode):
            seen.extend(node.ids)
            if len(node.ids) > index.leaf_capacity and not _zero_diameter(
                dist, objects, node.ids
            ):
                out.append(
                    Violation(
                        "leaf-capacity",
                        loc,
                        f"leaf holds {len(node.ids)} points > capacity "
                        f"{index.leaf_capacity}",
                    )
                )
            return
        seen.append(node.vp_id)
        if (
            len(node.cutoffs) != m - 1
            or len(node.bounds) != m
            or len(node.children) != m
        ):
            out.append(
                Violation(
                    "m1-shape",
                    loc,
                    f"cutoffs/bounds/children fanout inconsistent with m={m}",
                )
            )
            return
        if not _nondecreasing(node.cutoffs):
            out.append(
                Violation(
                    "cutoff-monotone",
                    loc,
                    f"cutoffs not non-decreasing: {node.cutoffs}",
                )
            )
        for i in range(m):
            child = node.children[i]
            lo, hi = node.bounds[i]
            if child is None:
                continue
            if _is_empty_bound(node.bounds[i]):
                out.append(
                    Violation(
                        "bounds-order",
                        loc,
                        f"bounds[{i}] is the empty sentinel but the child "
                        "is non-empty",
                    )
                )
                continue
            if not (0.0 <= lo + _tol(lo) and lo <= hi + _tol(hi, lo)):
                out.append(
                    Violation(
                        "bounds-order",
                        loc,
                        f"bounds[{i}]=({lo:.6g}, {hi:.6g}) violates 0 <= lo <= hi",
                    )
                )
                continue
            c_lo, c_hi = _cutoff_interval(node.cutoffs, i)
            if not (_within(lo, c_lo, c_hi) and _within(hi, c_lo, c_hi)):
                out.append(
                    Violation(
                        "bounds-cutoff-consistent",
                        loc,
                        f"bounds[{i}]=({lo:.6g}, {hi:.6g}) outside cutoff "
                        f"interval ({c_lo:.6g}, {c_hi:.6g})",
                    )
                )
            child_loc = f"{loc}.children[{i}]"
            for idx in _vp_subtree_ids(child):
                d = dist(objects[idx], objects[node.vp_id])
                if not _within(d, lo, hi):
                    out.append(
                        Violation(
                            "partition-membership",
                            child_loc,
                            f"point {idx}: d(x, vp)={d:.6g} outside "
                            f"bounds[{i}]=({lo:.6g}, {hi:.6g})",
                        )
                    )
            visit(child, child_loc)

    visit(index.root, "root")
    _check_id_partition(seen, set(range(len(objects))), out, "vp-tree")
    return out


# ----------------------------------------------------------------------
# GHTree
# ----------------------------------------------------------------------


def _gh_subtree_ids(node) -> Iterator[int]:
    """Yield every id under ``node`` (recursive; depth <= tree height)."""
    if node is None:
        return
    if isinstance(node, GHLeafNode):
        yield from node.ids
        return
    yield node.p1_id
    yield node.p2_id
    yield from _gh_subtree_ids(node.left)
    yield from _gh_subtree_ids(node.right)


def verify_ghtree(index: GHTree) -> list[Violation]:
    """Check GHTree invariants (hyperplane sides + covering radii)."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    seen: list[int] = []

    def visit(node, loc: str) -> None:
        """Recursive structural walk (depth bounded by tree height)."""
        if node is None:
            return
        if isinstance(node, GHLeafNode):
            seen.extend(node.ids)
            if len(node.ids) > max(
                index.leaf_capacity, 1
            ) and not _zero_diameter(dist, objects, node.ids):
                out.append(
                    Violation(
                        "leaf-capacity",
                        loc,
                        f"leaf holds {len(node.ids)} points > capacity "
                        f"{max(index.leaf_capacity, 1)}",
                    )
                )
            return
        seen.append(node.p1_id)
        seen.append(node.p2_id)
        sides = (
            ("left", node.left, node.p1_id, node.p2_id, node.r1),
            ("right", node.right, node.p2_id, node.p1_id, node.r2),
        )
        for name, child, near_id, far_id, radius in sides:
            child_loc = f"{loc}.{name}"
            for idx in _gh_subtree_ids(child):
                d_near = dist(objects[idx], objects[near_id])
                d_far = dist(objects[idx], objects[far_id])
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
            visit(child, child_loc)

    visit(index.root, "root")
    _check_id_partition(seen, set(range(len(objects))), out, "gh-tree")
    return out


# ----------------------------------------------------------------------
# GNAT
# ----------------------------------------------------------------------


def _gnat_subtree_ids(node) -> Iterator[int]:
    """Yield every id under ``node`` (recursive; depth <= tree height)."""
    if node is None:
        return
    if isinstance(node, GNATLeafNode):
        yield from node.ids
        return
    yield from node.split_ids
    for child in node.children:
        yield from _gnat_subtree_ids(child)


def verify_gnat(index: GNAT) -> list[Violation]:
    """Check GNAT invariants (Voronoi assignment + range tables)."""
    out: list[Violation] = []
    dist = index._metric.distance
    objects = index._objects
    seen: list[int] = []

    def visit(node, loc: str) -> None:
        """Recursive structural walk (depth bounded by tree height)."""
        if node is None:
            return
        if isinstance(node, GNATLeafNode):
            seen.extend(node.ids)
            if len(node.ids) > index.leaf_capacity and not _zero_diameter(
                dist, objects, node.ids
            ):
                out.append(
                    Violation(
                        "leaf-capacity",
                        loc,
                        f"leaf holds {len(node.ids)} points > capacity "
                        f"{index.leaf_capacity}",
                    )
                )
            return
        seen.extend(node.split_ids)
        degree = len(node.split_ids)
        if len(node.children) != degree or len(node.ranges) != degree or any(
            len(row) != degree for row in node.ranges
        ):
            out.append(
                Violation(
                    "m1-shape",
                    loc,
                    f"ranges/children fanout inconsistent with degree={degree}",
                )
            )
            return
        members = [list(_gnat_subtree_ids(child)) for child in node.children]
        for j in range(degree):
            child_loc = f"{loc}.children[{j}]"
            for idx in members[j]:
                d_own = dist(objects[idx], objects[node.split_ids[j]])
                for i in range(degree):
                    if i == j:
                        continue
                    d_other = dist(objects[idx], objects[node.split_ids[i]])
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
        for i in range(degree):
            for j in range(degree):
                lo, hi = node.ranges[i][j]
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
                covered = [node.split_ids[j]] + members[j]
                for idx in covered:
                    d = dist(objects[node.split_ids[i]], objects[idx])
                    if not _within(d, lo, hi):
                        out.append(
                            Violation(
                                "gnat-range-bracket",
                                loc,
                                f"d(split_{i}, {idx})={d:.6g} outside "
                                f"ranges[{i}][{j}]=({lo:.6g}, {hi:.6g})",
                            )
                        )
        for j, child in enumerate(node.children):
            visit(child, f"{loc}.children[{j}]")

    visit(index.root, "root")
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
    (GMVPTree, verify_gmvptree),
    (VPTree, verify_vptree),
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
