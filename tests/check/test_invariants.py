"""Structural verifier tests: clean builds pass, seeded corruptions fail.

Every corruption spec mutates exactly one field of a built index (for
the trees, one of their flat tables) and asserts the verifier reports
exactly that invariant class, with a location that pinpoints the
corrupted node.
"""

import numpy as np
import pytest

from repro.check.builders import (
    build_store_backed_indexes,
    build_verification_indexes,
)
from repro.check.invariants import Violation, verify_structure
from repro.indexes import kernels
from repro.store import open_index, write_store

ALL_CLASSES = [
    "LinearScan",
    "VPTree",
    "GHTree",
    "GNAT",
    "BKTree",
    "DistanceMatrixIndex",
    "LAESA",
    "MVPTree",
    "DynamicMVPTree",
    "GMVPTree",
    "TransformIndex",
    "ShardManager",
]


@pytest.fixture(scope="module")
def clean_indexes():
    return build_verification_indexes(seed=0, n=48)


def fresh(name):
    """A private instance the corruption tests may mutate freely."""
    return build_verification_indexes(seed=0, n=48, only=[name])[name]


class TestCleanBuilds:
    @pytest.mark.parametrize("name", ALL_CLASSES)
    def test_fresh_index_verifies_clean(self, clean_indexes, name):
        violations = verify_structure(clean_indexes[name])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_unknown_index_type_raises(self):
        with pytest.raises(TypeError, match="no structural verifier"):
            verify_structure(object())

    def test_violation_format(self):
        v = Violation("leaf-distance", "root.children[3]", "boom")
        assert v.format() == "leaf-distance @ root.children[3]: boom"


def tables(index):
    return index._kernel_cache


def first_gmvp_leaf(index):
    """Row range of the first leaf with data points below the root (so
    it keeps a PATH prefix)."""
    t = tables(index)
    kids = t.child_kind[t.root_idx]
    for kind, slot in zip(kids.tolist(), t.child_idx[t.root_idx].tolist()):
        if kind == 2 and t.leaf_offsets[slot + 1] > t.leaf_offsets[slot]:
            return slice(t.leaf_offsets[slot], t.leaf_offsets[slot + 1])
    raise AssertionError("no leaf with data points under the root")


first_mvp_leaf = first_gmvp_leaf  # MVPTree is GMVPTree(v=2)


def corrupt_mvp_cutoff(index):
    m1 = tables(index).cutoffs[tables(index).root_idx, 0]
    m1[0] = m1[-1] + 1.0


def corrupt_mvp_m2_cell(index):
    row = tables(index).cutoffs[tables(index).root_idx, 1]
    row[0] = row[-1] + 1.0


def corrupt_mvp_leaf_d1(index):
    rows = first_mvp_leaf(index)
    tables(index).leaf_dists[rows.start, 0] += 0.25


def corrupt_mvp_leaf_d2(index):
    rows = first_mvp_leaf(index)
    tables(index).leaf_dists[rows.stop - 1, 1] -= 0.25


def corrupt_mvp_path_cell(index):
    rows = first_mvp_leaf(index)
    assert index.p > 0
    tables(index).leaf_paths[rows.start, 0] += 0.5


def corrupt_mvp_path_shape(index):
    assert index.p > 0
    tables(index).leaf_paths = tables(index).leaf_paths[:, :-1]


def corrupt_mvp_bounds(index):
    """Move one first-level region's vp1 shell (shared by its m
    children) past every member."""
    m, t = index.m, tables(index)
    root = t.root_idx
    for c, kind in enumerate(t.child_kind[root].tolist()):
        if kind:
            hi = t.bhi[root, c, 0]
            region = slice(c // m * m, c // m * m + m)
            present = t.child_kind[root, region] > 0
            t.blo[root, region, 0] = np.where(present, hi + 1.0, -np.inf)
            t.bhi[root, region, 0] = np.where(present, hi + 2.0, np.inf)
            return
    raise AssertionError("no non-empty vp1 shell")


def corrupt_vp_cutoff(index):
    cutoffs = tables(index).cutoffs[tables(index).root_idx]
    cutoffs[0] = cutoffs[-1] + 1.0


def corrupt_vp_bounds(index):
    t = tables(index)
    root = t.root_idx
    for i, kind in enumerate(t.child_kind[root].tolist()):
        if kind:
            hi = t.child_hi[root, i]
            t.child_lo[root, i], t.child_hi[root, i] = hi + 1.0, hi + 2.0
            return
    raise AssertionError("no non-empty bounds entry")


def corrupt_gh_radius(index):
    tables(index).radii[tables(index).root_idx, 0] = 0.0


def corrupt_gh_swap_pivots(index):
    t = tables(index)
    t.pivot_ids[t.root_idx] = t.pivot_ids[t.root_idx, ::-1].copy()


def overfill_leaf(index):
    """Give a leaf the points of the next leaf too, past capacity."""
    t = tables(index)
    sizes = np.diff(t.leaf_offsets)
    pair = np.flatnonzero(sizes[:-1] + sizes[1:] > index.leaf_capacity)[0]
    t.leaf_offsets[pair + 1] = t.leaf_offsets[pair + 2]


def duplicate_leaf_id(index):
    t = tables(index)
    t.leaf_ids[1] = t.leaf_ids[0]


def root_cell(index, i: int, j: int) -> int:
    """Position of GNAT range cell ``(i, j)`` of the root in the flat
    range tables."""
    t = tables(index)
    degree = int(t.node_degree[t.root_idx])
    return int(t.range_offsets[t.root_idx]) + i * degree + j


def corrupt_gnat_range(index):
    cell = root_cell(index, 0, 1)
    tables(index).range_hi[cell] = tables(index).range_lo[cell]


def corrupt_gnat_bounds_order(index):
    cell = root_cell(index, 0, 1)
    tables(index).range_lo[cell] = tables(index).range_hi[cell] + 1.0


def corrupt_gnat_degree(index):
    tables(index).node_degree[tables(index).root_idx] += 1


def corrupt_gnat_swap_members(index):
    """Swap a leaf point under the root's child 0 with one under its
    child 1."""
    t = tables(index)

    def first_point(kind, slot):
        while kind == kernels._INTERNAL:
            kinds, slots = kernels.children(t, slot)
            present = kinds.nonzero()[0][0]
            kind, slot = int(kinds[present]), int(slots[present])
        return int(t.leaf_offsets[slot])

    kinds, slots = kernels.children(t, t.root_idx)
    a, b = (first_point(int(kinds[c]), int(slots[c])) for c in (0, 1))
    t.leaf_ids[[a, b]] = t.leaf_ids[[b, a]]


def corrupt_bk_edge(index):
    root = index.root
    edge, child = next(iter(root.children.items()))
    del root.children[edge]
    root.children[edge + 7] = child


def corrupt_laesa_cell(index):
    index.table[3, 2] += 1.0


def corrupt_matrix_symmetry(index):
    index.matrix[1, 2] += 0.5


def corrupt_matrix_diagonal(index):
    index.matrix[4, 4] = 0.125


def corrupt_transform_row(index):
    index.transformed[0] = index.transformed[0] + 10.0


def corrupt_gmvp_leaf_dist(index):
    rows = first_gmvp_leaf(index)
    tables(index).leaf_dists[rows.start, 0] += 0.25


def corrupt_gmvp_bound(index):
    t = tables(index)
    root = t.root_idx
    for c, kind in enumerate(t.child_kind[root].tolist()):
        if kind:
            hi = t.bhi[root, c, 0]
            t.blo[root, c, 0], t.bhi[root, c, 0] = hi + 1.0, hi + 2.0
            return
    raise AssertionError("no non-empty child")


# (index class, mutator, expected invariant, location fragment)
CORRUPTIONS = [
    ("MVPTree", corrupt_mvp_cutoff, "cutoff-monotone", "root"),
    ("MVPTree", corrupt_mvp_m2_cell, "cutoff-monotone", "root"),
    ("MVPTree", corrupt_mvp_leaf_d1, "leaf-distance", "root"),
    ("MVPTree", corrupt_mvp_leaf_d2, "leaf-distance", "root"),
    ("MVPTree", corrupt_mvp_path_cell, "path-consistency", "root"),
    ("MVPTree", corrupt_mvp_path_shape, "path-shape", "root"),
    ("MVPTree", corrupt_mvp_bounds, "partition-membership", "root"),
    ("DynamicMVPTree", corrupt_mvp_cutoff, "cutoff-monotone", "root"),
    ("DynamicMVPTree", corrupt_mvp_leaf_d1, "leaf-distance", "root"),
    ("VPTree", corrupt_vp_cutoff, "cutoff-monotone", "root"),
    ("VPTree", corrupt_vp_bounds, "partition-membership", "root"),
    ("GHTree", corrupt_gh_radius, "gh-covering-radius", "root.left"),
    ("GHTree", corrupt_gh_swap_pivots, "gh-membership", "root.left"),
    ("GHTree", overfill_leaf, "leaf-capacity", "root"),
    ("GHTree", duplicate_leaf_id, "id-partition", "root"),
    ("GNAT", corrupt_gnat_range, "gnat-range-bracket", "root"),
    ("GNAT", corrupt_gnat_swap_members, "gnat-voronoi", "root.children"),
    ("GNAT", corrupt_gnat_bounds_order, "bounds-order", "root"),
    ("GNAT", corrupt_gnat_degree, "m1-shape", "root"),
    ("GNAT", overfill_leaf, "leaf-capacity", "root"),
    ("GNAT", duplicate_leaf_id, "id-partition", "root"),
    ("BKTree", corrupt_bk_edge, "bk-edge-exact", "root.children"),
    ("LAESA", corrupt_laesa_cell, "table-truth", "table[3, 2]"),
    ("DistanceMatrixIndex", corrupt_matrix_symmetry, "matrix-symmetry", "matrix[1, 2]"),
    ("DistanceMatrixIndex", corrupt_matrix_diagonal, "matrix-diagonal", "matrix[4, 4]"),
    ("TransformIndex", corrupt_transform_row, "transform-truth", "transformed[0]"),
    ("GMVPTree", corrupt_gmvp_leaf_dist, "leaf-distance", "root"),
    ("GMVPTree", corrupt_gmvp_bound, "partition-membership", "root"),
]


class TestCorruptions:
    @pytest.mark.parametrize(
        "name, mutate, invariant, location",
        CORRUPTIONS,
        ids=[f"{name}-{invariant}" for name, __, invariant, ___ in CORRUPTIONS],
    )
    def test_corruption_is_pinpointed(self, name, mutate, invariant, location):
        index = fresh(name)
        mutate(index)
        violations = verify_structure(index)
        assert violations, f"corrupted {name} verified clean"
        reported = {v.invariant for v in violations}
        assert invariant in reported, (
            f"expected {invariant}, got {sorted(reported)}"
        )
        matching = [v for v in violations if v.invariant == invariant]
        assert any(location in v.location for v in matching), (
            f"no location containing {location!r}: "
            f"{[v.location for v in matching]}"
        )

    def test_missing_id_detected(self):
        index = fresh("MVPTree")
        t = tables(index)
        row = first_mvp_leaf(index).stop - 1
        dropped = int(t.leaf_ids[row])
        t.leaf_ids = np.delete(t.leaf_ids, row)
        t.leaf_dists = np.delete(t.leaf_dists, row, axis=0)
        t.leaf_paths = np.delete(t.leaf_paths, row, axis=0)
        t.leaf_offsets[t.leaf_offsets > row] -= 1
        violations = verify_structure(index)
        reported = {v.invariant for v in violations}
        assert "id-partition" in reported
        assert any(str(dropped) in v.message for v in violations)


class TestStoreBacked:
    """A store-backed index verifies the index it decodes from its
    mapped sections."""

    def test_every_writer_family_verifies_clean(self, tmp_path):
        stored = build_store_backed_indexes(tmp_path, seed=0, n=48)
        assert len(stored) == 7
        for name, index in stored.items():
            with index:
                assert verify_structure(index) == [], name

    @pytest.mark.parametrize(
        "name, invariant",
        [
            ("VPTree", "cutoff-monotone"),
            ("MVPTree", "cutoff-monotone"),
            # m = 2: one cutoff per row, so the row cannot go out of
            # order; moving it below zero breaks its shells' interval.
            ("GMVPTree", "bounds-cutoff-consistent"),
        ],
    )
    def test_tampered_cutoffs_row_is_reported_from_the_store(
        self, name, invariant, tmp_path
    ):
        index = fresh(name)
        cutoffs = index._kernel_cache.cutoffs
        row = cutoffs.reshape(-1, cutoffs.shape[-1])[0]
        row[0] = -1.0 if row.size == 1 else row[-1] + 1.0
        path = write_store(index, tmp_path / f"{name}.rsx")
        with open_index(path, index.metric) as backed:
            violations = verify_structure(backed)
        assert invariant in {v.invariant for v in violations}
        assert violations == verify_structure(index)

    @pytest.mark.parametrize(
        "name, mutate, invariant",
        [
            ("GNAT", corrupt_gnat_range, "gnat-range-bracket"),
            ("GHTree", corrupt_gh_radius, "gh-covering-radius"),
            ("LAESA", corrupt_laesa_cell, "table-truth"),
        ],
    )
    def test_tampered_table_is_reported_from_the_store(
        self, name, mutate, invariant, tmp_path
    ):
        index = fresh(name)
        mutate(index)
        path = write_store(index, tmp_path / f"{name}.rsx")
        with open_index(path, index.metric) as backed:
            violations = verify_structure(backed)
        assert invariant in {v.invariant for v in violations}
        assert violations == verify_structure(index)


class TestVerifierIsReadOnly:
    @pytest.mark.parametrize("name", ["MVPTree", "GNAT", "LAESA"])
    def test_double_verify_is_stable(self, name):
        index = fresh(name)
        assert verify_structure(index) == []
        assert verify_structure(index) == []
