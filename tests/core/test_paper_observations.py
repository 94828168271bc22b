"""Tests for the paper's analytical observations (section 4.1).

These pin the *reasoning* behind the mvp-tree, not just its code:

* Observation around Figure 1: on uniformly distributed
  high-dimensional data, the spherical cuts of a vp-tree are thin —
  for an N-dimensional ball split into equal-volume regions,
  ``R2 = R1 * 2**(1/N)``, so at N=100 the shell of region 2 is only
  ~0.7% of R1 thick.  Thin shells mean range searches intersect many
  of them, which is what motivates sharing vantage points.
* Observation 1: a vantage point *outside* a region can partition it
  (so children can share the parent's second vantage point).
* Observation 2: the construction-time distances to ancestors are
  exactly what the PATH arrays store (verified structurally in the
  build tests; here we verify they filter as hard as recomputing
  would).
"""

import numpy as np
import pytest

from repro import MVPTree, VPTree
from repro.datasets import uniform_vectors
from repro.metric import L2
from tests.nodeview import VPInternalNode, root_node


class TestThinShellObservation:
    def test_equal_volume_radius_formula(self):
        # The paper's arithmetic: R2 = R1 * 2^(1/N); at N=100,
        # R2 = 1.007 R1.
        n_dim = 100
        ratio = 2 ** (1 / n_dim)
        assert ratio == pytest.approx(1.00696, abs=1e-4)

    def test_high_dimensional_shells_are_thin(self):
        # Built trees show the effect: at the root of a vp-tree over
        # uniform high-dimensional data, the middle shells are thin
        # relative to their radii.
        data = uniform_vectors(2000, dim=50, rng=0)
        tree = VPTree(data, L2(), m=3, rng=1)
        root = root_node(tree)
        assert isinstance(root, VPInternalNode)
        # Middle shell: thickness relative to its outer radius.
        lo, hi = root.bounds[1]
        relative_thickness = (hi - lo) / hi
        assert relative_thickness < 0.25

    def test_low_dimensional_shells_are_thick(self):
        # The contrast case: in 2 dimensions the shells are fat.
        data = uniform_vectors(2000, dim=2, rng=0)
        tree = VPTree(data, L2(), m=3, rng=1)
        lo, hi = root_node(tree).bounds[1]
        assert (hi - lo) / hi > 0.2

    def test_thin_shells_force_multi_branch_descent(self):
        # The consequence the paper draws: on high-dimensional uniform
        # data a modest query radius already intersects most root
        # shells, so search descends into several branches.
        data = uniform_vectors(2000, dim=50, rng=0)
        tree = VPTree(data, L2(), m=3, rng=1)
        root = root_node(tree)
        query = np.random.default_rng(2).random(50)
        dq = L2().distance(query, data[root.vp_id])
        radius = 0.5
        intersecting = sum(
            1
            for lo, hi in root.bounds
            if dq - radius <= hi and dq + radius >= lo
        )
        assert intersecting >= 2


class TestOutsideVantagePointObservation:
    def test_mvp_second_vantage_point_partitions_all_first_cuts(self):
        # Observation 1: vp2 lives in the outermost cut of vp1's
        # partition, yet partitions *every* cut — each child's vp2 shell
        # (bounds[i * m + j][1]) must be non-degenerate for populated
        # regions.
        data = uniform_vectors(1000, dim=10, rng=3)
        tree = MVPTree(data, L2(), m=3, k=9, p=0, rng=4)
        root = root_node(tree)
        populated = 0
        for i in range(tree.m):
            spans = [
                hi - lo
                for __, (lo, hi) in root.bounds[i * tree.m : (i + 1) * tree.m]
                if lo <= hi  # skip empty-child sentinels
            ]
            if spans:
                populated += 1
                # vp2's cuts genuinely split the region: the sub-shells
                # cover distinct distance bands.
                assert max(spans) > 0
        assert populated == tree.m

    def test_vp2_is_inside_the_outermost_cut_of_vp1(self):
        data = uniform_vectors(1000, dim=10, rng=5)
        tree = MVPTree(data, L2(), m=3, k=9, p=0, rng=6)
        root = root_node(tree)
        vp1_id, vp2_id = root.vp_ids
        d_vp2_vp1 = L2().distance(data[vp2_id], data[vp1_id])
        # vp2 was drawn from the farthest cut: at least the innermost
        # cut's outer radius away (vp1's shell of region 0, shared by
        # its children).
        __, hi_inner = root.bounds[0][0]
        assert d_vp2_vp1 >= hi_inner - 1e-9


class TestPathFilterObservation:
    def test_stored_paths_filter_exactly_like_recomputation(self):
        # Observation 2's point: the PATH entries are free information.
        # Filtering with them must reject exactly the points whose
        # recomputed ancestor distances would reject them.
        data = uniform_vectors(600, dim=10, rng=7)
        metric = L2()
        tree = MVPTree(data, metric, m=2, k=8, p=4, rng=8)

        from tests.nodeview import GMVPLeafNode

        def walk(node, ancestors):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                for pos, idx in enumerate(node.ids):
                    for t in range(node.path_len):
                        stored = node.paths[pos, t]
                        recomputed = metric.distance(
                            data[idx], data[ancestors[t]]
                        )
                        assert stored == pytest.approx(recomputed, abs=1e-12)
                return
            for child in node.children:
                walk(child, ancestors + list(node.vp_ids))

        walk(root_node(tree), [])
