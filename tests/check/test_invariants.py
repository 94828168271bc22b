"""Structural verifier tests: clean builds pass, seeded corruptions fail.

Every corruption spec mutates exactly one field of a built index and
asserts the verifier reports exactly that invariant class, with a
location that pinpoints the corrupted node.
"""

import pytest

from repro.check.builders import (
    build_store_backed_indexes,
    build_verification_indexes,
)
from repro.check.invariants import Violation, verify_structure
from repro.core.gmvptree import GMVPLeafNode
from repro.indexes.gnat import GNATLeafNode
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


def first_gmvp_leaf(node):
    """Depth-first search for a non-empty gmvp leaf (depth <= height)."""
    if isinstance(node, GMVPLeafNode):
        return node if node.ids else None
    for child in node.children:
        if child is not None:
            leaf = first_gmvp_leaf(child)
            if leaf is not None:
                return leaf
    return None


first_mvp_leaf = first_gmvp_leaf  # MVPTree is GMVPTree(v=2)


def corrupt_mvp_cutoff(index):
    m1 = index.root.cutoffs[0][0]
    m1[0] = m1[-1] + 1.0


def corrupt_mvp_m2_cell(index):
    row = index.root.cutoffs[1][0]
    row[0] = row[-1] + 1.0


def corrupt_mvp_leaf_d1(index):
    first_mvp_leaf(index.root).dists[0, 0] += 0.25


def corrupt_mvp_leaf_d2(index):
    first_mvp_leaf(index.root).dists[1, -1] -= 0.25


def corrupt_mvp_path_cell(index):
    leaf = first_mvp_leaf(index.root)
    assert leaf.path_len > 0
    leaf.paths[0, 0] += 0.5


def corrupt_mvp_path_shape(index):
    leaf = first_mvp_leaf(index.root)
    assert leaf.path_len > 0
    leaf.paths = leaf.paths[:, :-1]


def corrupt_mvp_bounds(index):
    """Move one first-level region's vp1 shell (shared by its m
    children) past every member."""
    m = index.m
    for c, shells in enumerate(index.root.bounds):
        lo, hi = shells[0]
        if lo != float("inf"):
            region = c // m * m
            for child in range(region, region + m):
                index.root.bounds[child][0] = (hi + 1.0, hi + 2.0)
            return
    raise AssertionError("no non-empty vp1 shell")


def corrupt_vp_cutoff(index):
    index.root.cutoffs[0] = index.root.cutoffs[-1] + 1.0


def corrupt_vp_bounds(index):
    for i, bound in enumerate(index.root.bounds):
        lo, hi = bound
        if lo != float("inf") and index.root.children[i] is not None:
            index.root.bounds[i] = (hi + 1.0, hi + 2.0)
            return
    raise AssertionError("no non-empty bounds entry")


def corrupt_gh_radius(index):
    index.root.r1 = 0.0


def corrupt_gnat_range(index):
    lo, hi = index.root.ranges[0][1]
    index.root.ranges[0][1] = (lo, lo)


def corrupt_gnat_swap_members(index):
    """Move one leaf point from child 0's subtree into child 1's."""
    def find_leaf(node):
        """DFS for a non-empty GNAT leaf (depth <= tree height)."""
        if isinstance(node, GNATLeafNode):
            return node if node.ids else None
        for child in node.children:
            if child is not None:
                found = find_leaf(child)
                if found is not None:
                    return found
        return None

    source = find_leaf(index.root.children[0])
    target = find_leaf(index.root.children[1])
    assert source is not None and target is not None
    target.ids.append(source.ids.pop())


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
    leaf = first_gmvp_leaf(index.root)
    leaf.dists[0, 0] += 0.25


def corrupt_gmvp_bound(index):
    for c, child in enumerate(index.root.children):
        if child is not None:
            lo, hi = index.root.bounds[c][0]
            index.root.bounds[c][0] = (hi + 1.0, hi + 2.0)
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
    ("GNAT", corrupt_gnat_range, "gnat-range-bracket", "root"),
    ("GNAT", corrupt_gnat_swap_members, "gnat-voronoi", "root.children"),
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
        leaf = first_mvp_leaf(index.root)
        dropped = leaf.ids.pop()
        leaf.dists = leaf.dists[:, :-1]
        leaf.paths = leaf.paths[:-1]
        violations = verify_structure(index)
        reported = {v.invariant for v in violations}
        assert "id-partition" in reported
        assert any(str(dropped) in v.message for v in violations)


class TestStoreBacked:
    """A store-backed index verifies the index it decodes from its
    mapped sections."""

    def test_every_writer_family_verifies_clean(self, tmp_path):
        stored = build_store_backed_indexes(tmp_path, seed=0, n=48)
        assert len(stored) == 6
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


class TestVerifierIsReadOnly:
    @pytest.mark.parametrize("name", ["MVPTree", "GNAT", "LAESA"])
    def test_double_verify_is_stable(self, name):
        index = fresh(name)
        assert verify_structure(index) == []
        assert verify_structure(index) == []
