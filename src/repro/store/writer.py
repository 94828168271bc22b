"""Serialise built indexes into ``.rsx`` stores.

A tree is written through the tree codec (:func:`repro.indexes.kernels.encode`,
the one JSON persist uses too): its sections are the flat tables the
frontier kernel searches — vp ids, cutoffs, shell bounds, child
kind/slot tables, and the multi-vantage leaves' precomputed D1/D2/PATH
distance arrays — so a reopened store plants mmap views of them in a
tree of the same class, with bit-exact values and therefore
byte-identical answers and ``QueryStats``.

Writers exist for the static families — :class:`~repro.indexes.vptree.VPTree`,
:class:`~repro.core.mvptree.MVPTree`, :class:`~repro.core.gmvptree.GMVPTree`,
:class:`~repro.indexes.gnat.GNAT`, :class:`~repro.indexes.laesa.LAESA` and
:class:`~repro.indexes.linear.LinearScan`.  GNAT's recursive node graph
is flattened into pre-order array tables (split ids, the pairwise range
table, child kind/slot pointers, leaf buckets) from which the reader
rebuilds identical node objects.  Mutating structures
(``DynamicMVPTree``) are refused: a store is a frozen artifact; rebuild
and rewrite after bulk updates (or let delta files carry the inserts).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro._util import as_rng
from repro.core.gmvptree import GMVPTree
from repro.core.mvptree import MVPTree
from repro.indexes import kernels
from repro.indexes.gnat import GNAT, GNATInternalNode, GNATLeafNode
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.indexes.vptree import VPTree
from repro.metric.base import Metric
from repro.store.atomic import atomic_write_bytes
from repro.store.format import pack_store, points_digest


#: ``family -> index class`` of every family with a writer.
FAMILY_CLASSES = {
    "vpt": VPTree,
    "mvpt": MVPTree,
    "gmvpt": GMVPTree,
    "gnat": GNAT,
    "laesa": LAESA,
    "linear": LinearScan,
}


def store_family(index) -> str:
    """The ``.rsx`` family name for ``index`` (exact type match).

    Subclasses are refused on purpose: a subclass may carry state the
    family's node table does not represent (``DynamicMVPTree``'s
    in-place inserts being the canonical example).
    """
    for family, cls in FAMILY_CLASSES.items():
        if type(index) is cls:
            return family
    raise TypeError(
        f"no .rsx store writer for index type {type(index).__name__}"
    )


def _points_of(index) -> np.ndarray:
    points = np.asarray(index.objects)
    if points.ndim != 2 or not np.issubdtype(points.dtype, np.number):
        raise TypeError(
            ".rsx stores hold contiguous float64 rows; got objects of "
            f"shape {points.shape} dtype {points.dtype} "
            "(discrete datasets are not storable)"
        )
    return np.ascontiguousarray(points, dtype=np.float64)


def _gnat_payload(index: GNAT):
    """Flatten GNAT's recursive node graph into pre-order array tables.

    Internal nodes and leaves are numbered separately in pre-order.
    Per internal node: its degree, a flat split-id segment, the dense
    degree² range table (row-major ``(i, j)``), and per split point a
    child pointer as ``(kind, slot)`` — 0 = absent, 1 = internal,
    2 = leaf.  The reader reconstructs identical
    :class:`~repro.indexes.gnat.GNATInternalNode` /
    :class:`~repro.indexes.gnat.GNATLeafNode` objects, so every search
    takes the in-memory code path over the same values.
    """
    internals: list[GNATInternalNode] = []
    leaves: list[GNATLeafNode] = []
    child_refs: list[list[tuple[int, int]]] = []

    def walk(node) -> tuple[int, int]:
        """Pre-order numbering; recursion depth is bounded by the tree
        height (same bound as ``GNAT._build``'s)."""
        if isinstance(node, GNATLeafNode):
            leaves.append(node)
            return 2, len(leaves) - 1
        slot = len(internals)
        internals.append(node)
        child_refs.append([])
        refs = child_refs[slot]
        for child in node.children:
            refs.append((0, -1) if child is None else walk(child))
        return 1, slot

    root_kind, root_idx = walk(index.root)
    degrees = [len(node.split_ids) for node in internals]
    range_lo = [
        np.asarray(
            [pair[0] for row in node.ranges for pair in row], dtype=np.float64
        )
        for node in internals
    ]
    range_hi = [
        np.asarray(
            [pair[1] for row in node.ranges for pair in row], dtype=np.float64
        )
        for node in internals
    ]
    sections = {
        "node_degree": np.asarray(degrees, dtype=np.int64),
        "split_offsets": kernels._offsets(degrees),
        "split_ids": kernels._concat(
            [np.asarray(node.split_ids) for node in internals], np.int64
        ),
        "range_offsets": kernels._offsets([d * d for d in degrees]),
        "range_lo": kernels._concat(range_lo, np.float64),
        "range_hi": kernels._concat(range_hi, np.float64),
        "child_kind": kernels._concat(
            [np.asarray([kind for kind, _ in refs]) for refs in child_refs],
            np.int8,
        ),
        "child_idx": kernels._concat(
            [np.asarray([idx for _, idx in refs]) for refs in child_refs],
            np.int64,
        ),
        "leaf_offsets": kernels._offsets([len(leaf.ids) for leaf in leaves]),
        "leaf_ids": kernels._concat([np.asarray(leaf.ids) for leaf in leaves], np.int64),
    }
    meta = {
        "tree": {
            "root_kind": int(root_kind),
            "root_idx": int(root_idx),
            "n_internal": len(internals),
            "n_leaves": len(leaves),
        },
        "params": {
            "degree": index.degree,
            "min_degree": index.min_degree,
            "max_degree": index.max_degree,
            "leaf_capacity": index.leaf_capacity,
            "candidate_factor": index.candidate_factor,
        },
        "build_stats": {
            "node_count": index.node_count,
            "leaf_count": index.leaf_count,
            "height": index.height,
        },
    }
    return sections, meta


def _laesa_payload(index: LAESA):
    sections = {
        "pivot_ids": np.asarray(index.pivot_ids, dtype=np.int64),
        "table": np.asarray(index.table, dtype=np.float64),
    }
    return sections, {"params": {"n_pivots": index.n_pivots}}


def _linear_payload(index: LinearScan):
    return {}, {}


#: ``family -> payload(index)``: the index's sections and its meta
#: (``tree``, ``params``, ``build_stats``).  The trees write the tree
#: codec's tables as they are.
_PAYLOADS = {
    "vpt": kernels.encode,
    "mvpt": kernels.encode,
    "gmvpt": kernels.encode,
    "gnat": _gnat_payload,
    "laesa": _laesa_payload,
    "linear": _linear_payload,
}


def store_bytes(
    index,
    *,
    global_ids=None,
    source_mtime: Optional[float] = None,
) -> bytes:
    """The exact bytes :func:`write_store` writes for ``index``."""
    family = store_family(index)
    points = _points_of(index)
    sections, family_meta = _PAYLOADS[family](index)
    all_sections = {"points": points, **sections}
    if global_ids is not None:
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if global_ids.shape != (len(points),):
            raise ValueError(
                f"global_ids must map every one of the {len(points)} rows; "
                f"got shape {global_ids.shape}"
            )
        all_sections["global_ids"] = global_ids
    meta = {
        "n_objects": len(points),
        "dim": int(points.shape[1]),
        "params": {},
        "tree": {},
        "build_stats": {},
        **family_meta,
        "source": {"digest": points_digest(points), "mtime": source_mtime},
    }
    return pack_store(family, meta, all_sections)


def write_store(
    index,
    path: Union[str, Path],
    *,
    global_ids=None,
    source_mtime: Optional[float] = None,
) -> Path:
    """Atomically write ``index`` to ``path`` as a ``.rsx`` store.

    ``global_ids`` (optional, one int64 per data row) records the
    dataset-global id of every local row — written by
    :func:`repro.store.sharded.save_shard_stores` so disk-backed workers
    can map local answers to deployment ids.  ``source_mtime`` (optional)
    is the modification time of the source dataset file, recorded for
    :meth:`Store.verify`'s staleness check; leave it ``None`` for purely
    in-memory datasets (writes stay deterministic).
    """
    blob = store_bytes(
        index, global_ids=global_ids, source_mtime=source_mtime
    )
    return atomic_write_bytes(path, blob)


def build_family_index(
    family: str,
    points: np.ndarray,
    metric: Metric,
    params: dict,
    rng=None,
):
    """Rebuild a family index from points + stored params (compaction)."""
    rng = as_rng(rng)
    if family == "linear":
        return LinearScan(points, metric)
    if family == "vpt":
        return VPTree(
            points,
            metric,
            m=params["m"],
            leaf_capacity=params["leaf_capacity"],
            bounds=params["bounds"],
            rng=rng,
        )
    if family == "mvpt":
        return MVPTree(
            points,
            metric,
            m=params["m"],
            k=params["k"],
            p=params["p"],
            bounds=params["bounds"],
            rng=rng,
        )
    if family == "gmvpt":
        return GMVPTree(
            points,
            metric,
            m=params["m"],
            v=params["v"],
            k=params["k"],
            p=params["p"],
            rng=rng,
        )
    if family == "gnat":
        return GNAT(
            points,
            metric,
            degree=params["degree"],
            min_degree=params["min_degree"],
            max_degree=params["max_degree"],
            leaf_capacity=params["leaf_capacity"],
            candidate_factor=params["candidate_factor"],
            rng=rng,
        )
    if family == "laesa":
        return LAESA(points, metric, n_pivots=params["n_pivots"], rng=rng)
    raise ValueError(f"unknown store family {family!r}")
