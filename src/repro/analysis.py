"""Structural analysis of index trees.

Production-facing introspection: how deep is a tree, how full are its
leaves, how many of the dataset's objects ended up as vantage points,
how much memory do the precomputed distances take.  These are the
quantities the paper reasons with in section 4.2 — the vantage-point
count ``2 (m^2h - 1)/(m^2 - 1)``, the leaf population ``m^2(h-1) k``,
and the advice that "it is a good idea to keep k large so that most of
the data items are kept in the leaves".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.gmvptree import GMVPLeafNode, GMVPTree
from repro.indexes.base import MetricIndex
from repro.indexes.bktree import BKNode, BKTree
from repro.indexes.ghtree import GHLeafNode, GHTree
from repro.indexes.gnat import GNAT, GNATLeafNode
from repro.indexes.vptree import VPLeafNode, VPTree


@dataclass
class TreeReport:
    """Aggregated structural statistics of one index tree."""

    structure: str
    n_objects: int
    node_count: int = 0
    internal_count: int = 0
    leaf_count: int = 0
    height: int = 0
    vantage_point_count: int = 0
    leaf_data_point_count: int = 0
    leaf_sizes: list[int] = field(default_factory=list)
    leaf_depths: list[int] = field(default_factory=list)
    precomputed_distances: int = 0

    @property
    def leaf_fraction(self) -> float:
        """Fraction of objects living in leaf buckets (vs. as vantage
        points / pivots / routing entries)."""
        if self.n_objects == 0:
            return 0.0
        return self.leaf_data_point_count / self.n_objects

    @property
    def mean_leaf_size(self) -> float:
        return float(np.mean(self.leaf_sizes)) if self.leaf_sizes else 0.0

    @property
    def mean_leaf_depth(self) -> float:
        return float(np.mean(self.leaf_depths)) if self.leaf_depths else 0.0

    @property
    def balance(self) -> float:
        """Max leaf depth divided by min leaf depth (1.0 = perfectly
        balanced)."""
        if not self.leaf_depths or min(self.leaf_depths) == 0:
            return 1.0
        return max(self.leaf_depths) / min(self.leaf_depths)

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of the report."""
        return {
            "structure": self.structure,
            "n_objects": self.n_objects,
            "node_count": self.node_count,
            "internal_count": self.internal_count,
            "leaf_count": self.leaf_count,
            "height": self.height,
            "vantage_point_count": self.vantage_point_count,
            "leaf_data_point_count": self.leaf_data_point_count,
            "leaf_fraction": self.leaf_fraction,
            "mean_leaf_size": self.mean_leaf_size,
            "mean_leaf_depth": self.mean_leaf_depth,
            "balance": self.balance,
            "precomputed_distances": self.precomputed_distances,
        }

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"{self.structure} over {self.n_objects} objects",
            f"  nodes: {self.node_count} "
            f"({self.internal_count} internal, {self.leaf_count} leaves), "
            f"height {self.height}",
            f"  vantage/routing points: {self.vantage_point_count} "
            f"({1 - self.leaf_fraction:.1%} of objects)",
            f"  leaf data points: {self.leaf_data_point_count} "
            f"({self.leaf_fraction:.1%}), mean bucket {self.mean_leaf_size:.1f}",
            f"  leaf depth: mean {self.mean_leaf_depth:.1f}, "
            f"balance {self.balance:.2f}",
            f"  precomputed distances stored: {self.precomputed_distances}",
        ]
        return "\n".join(lines)


def analyze(index: MetricIndex) -> TreeReport:
    """Walk an index structure and return its :class:`TreeReport`.

    Supports every tree in the library (vp-tree, mvp-tree and its
    dynamic variant, gh-tree, GNAT, BK-tree).
    """
    report = TreeReport(type(index).__name__, len(index.objects))
    if isinstance(index, GMVPTree):  # MVPTree and DynamicMVPTree too
        _walk_gmvp(index.root, 1, report)
    elif isinstance(index, VPTree):
        _walk_vp(index.root, 1, report)
    elif isinstance(index, GHTree):
        _walk_gh(index.root, 1, report)
    elif isinstance(index, GNAT):
        _walk_gnat(index.root, 1, report)
    elif isinstance(index, BKTree):
        _walk_bk(index.root, 1, report)
    else:
        raise TypeError(
            f"cannot analyze index of type {type(index).__name__}"
        )
    return report


def _leaf(report: TreeReport, size: int, depth: int) -> None:
    report.node_count += 1
    report.leaf_count += 1
    report.leaf_sizes.append(size)
    report.leaf_depths.append(depth)
    report.leaf_data_point_count += size
    report.height = max(report.height, depth)


def _walk_gmvp(node, depth: int, report: TreeReport) -> None:
    """Accumulate multi-vantage tree stats (recursive; depth <= tree
    height); D1/D2 (``dists``) and PATH rows are its stored distances."""
    if node is None:
        return
    if isinstance(node, GMVPLeafNode):
        _leaf(report, len(node.ids), depth)
        report.vantage_point_count += len(node.vp_ids)
        report.precomputed_distances += node.dists.size + node.paths.size
        return
    report.node_count += 1
    report.internal_count += 1
    report.vantage_point_count += len(node.vp_ids)
    report.height = max(report.height, depth)
    for child in node.children:
        _walk_gmvp(child, depth + 1, report)


def _walk_vp(node, depth: int, report: TreeReport) -> None:
    """Accumulate vp-tree stats (recursive; depth <= tree height)."""
    if node is None:
        return
    if isinstance(node, VPLeafNode):
        _leaf(report, len(node.ids), depth)
        return
    report.node_count += 1
    report.internal_count += 1
    report.vantage_point_count += 1
    report.height = max(report.height, depth)
    for child in node.children:
        _walk_vp(child, depth + 1, report)


def _walk_gh(node, depth: int, report: TreeReport) -> None:
    """Accumulate gh-tree stats (recursive; depth <= tree height)."""
    if node is None:
        return
    if isinstance(node, GHLeafNode):
        _leaf(report, len(node.ids), depth)
        return
    report.node_count += 1
    report.internal_count += 1
    report.vantage_point_count += 2
    report.height = max(report.height, depth)
    _walk_gh(node.left, depth + 1, report)
    _walk_gh(node.right, depth + 1, report)


def _walk_gnat(node, depth: int, report: TreeReport) -> None:
    """Accumulate GNAT stats (recursive; depth <= tree height)."""
    if node is None:
        return
    if isinstance(node, GNATLeafNode):
        _leaf(report, len(node.ids), depth)
        return
    report.node_count += 1
    report.internal_count += 1
    report.vantage_point_count += len(node.split_ids)
    degree = len(node.split_ids)
    report.precomputed_distances += 2 * degree * degree  # the range table
    report.height = max(report.height, depth)
    for child in node.children:
        _walk_gnat(child, depth + 1, report)


def _walk_bk(node: Optional[BKNode], depth: int, report: TreeReport) -> None:
    """Accumulate BK-tree stats (recursive; depth <= tree height)."""
    if node is None:
        return
    report.node_count += 1
    report.height = max(report.height, depth)
    if node.children:
        report.internal_count += 1
        report.vantage_point_count += 1
    else:
        report.leaf_count += 1
        report.leaf_sizes.append(1 + len(node.dups))
        report.leaf_depths.append(depth)
        report.leaf_data_point_count += 1
    report.leaf_data_point_count += len(node.dups)
    for child in node.children.values():
        _walk_bk(child, depth + 1, report)
