"""The paper's primary contribution: the multi-vantage-point (mvp) tree.

An mvp-tree (section 4 of the paper) differs from a vp-tree in two ways:

1. **Two vantage points per node.**  Each node partitions the space with
   a first vantage point into ``m`` spherical cuts and then partitions
   each cut with a *second* vantage point shared by all of them, giving
   fanout ``m**2`` with half as many vantage points per level — and one
   fewer distance computation per extra level descended.
2. **Pre-computed leaf distances.**  For every data point stored in a
   leaf, the distances to its leaf's two vantage points (the D1/D2
   arrays) and to the first ``p`` vantage points on its root path (the
   PATH array) are retained from construction and used at query time to
   filter points *without computing any new distance*.

One build, node layout and set of search kernels serve both:
:class:`GMVPTree` keeps ``v >= 2`` vantage points per node (the
paper's "more than 2 vantage points" remark, section 4.2) and
:class:`MVPTree` is its ``v = 2`` case with the paper's region-wide
shells.  :class:`DynamicMVPTree` adds insertion and deletion.
"""

from repro.core.dynamic import DynamicMVPTree
from repro.core.gmvptree import GMVPInternalNode, GMVPLeafNode, GMVPTree
from repro.core.mvptree import MVPTree

__all__ = [
    "MVPTree",
    "DynamicMVPTree",
    "GMVPTree",
    "GMVPInternalNode",
    "GMVPLeafNode",
]
