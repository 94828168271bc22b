"""JSON serialisation of index structures.

The serialised form contains the *structure* — node layout, ids,
cutoffs, and the construction-time distances that the mvp-tree's whole
design is about preserving — but not the data objects or the metric.
``load_index(path, objects, metric)`` re-attaches both; the caller is
responsible for passing the same dataset (in the same order) and an
equivalent metric, and :func:`index_from_dict` verifies the recorded
dataset size as a cheap guard.

Every table index (``VPTree``, ``MVPTree``, ``GMVPTree``,
``DynamicMVPTree``, ``GNAT``, ``GHTree``, ``LAESA``) is written through
the one codec an ``.rsx`` store uses too
(:func:`repro.indexes.kernels.encode`): its flat tables as named
``sections``, each with its dtype, shape and flat values, plus the
codec's ``params``, ``tree`` (root slot) and ``build_stats``.  Loading
plants those tables in an index of the same class, so a loaded index
searches exactly like the one saved.  Format 4; files of earlier
formats are refused.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro._util import gather
from repro.core.dynamic import DynamicMVPTree
from repro.core.gmvptree import GMVPTree
from repro.core.mvptree import MVPTree
from repro.indexes import kernels
from repro.indexes.base import MetricIndex
from repro.indexes.bktree import BKNode, BKTree
from repro.indexes.distance_matrix import DistanceMatrixIndex
from repro.indexes.ghtree import GHTree
from repro.indexes.gnat import GNAT
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.indexes.selection import get_selector
from repro.indexes.vptree import VPTree
from repro.metric.base import Metric
from repro.serve.sharding import SHARD_BACKENDS, ShardManager, _SlotState
from repro.transforms.filter import TransformIndex
from repro.transforms.fourier import DFTTransform
from repro.transforms.subsequence import SubsequenceIndex

_FORMAT_VERSION = 4

#: The table indexes, each written through the one codec
#: (:func:`repro.indexes.kernels.encode`); subclasses before parents.
_TABLED = (DynamicMVPTree, MVPTree, GMVPTree, VPTree, GNAT, GHTree, LAESA)
_TABLED_TYPES = {cls.__name__: cls for cls in _TABLED}

#: Serialisation coverage per index class, surfaced by ``repro-check
#: invariants``.  Every class the verification builders construct MUST
#: have an entry — ``"supported"`` when :func:`index_to_dict` round-trips
#: it, otherwise an explicit reason string — so a class can never fall
#: out of persistence silently.
PERSIST_COVERAGE: dict[str, str] = {
    "BKTree": "supported",
    "DistanceMatrixIndex": "supported",
    "DynamicMVPTree": "supported",
    "GHTree": "supported",
    "GMVPTree": "supported",
    "GNAT": "supported",
    "LAESA": "supported",
    "LinearScan": "supported",
    "MVPTree": "supported",
    "ShardManager": "supported",
    "SubsequenceIndex": "supported",
    "TransformIndex": "supported",
    "VPTree": "supported",
    "StoreBackedIndex": (
        "unsupported: a store-backed index is a read-only view over its "
        ".rsx file; reopen it with repro.store.open_index instead of "
        "JSON round-tripping the mmap"
    ),
}


# ----------------------------------------------------------------------
# Node encoders/decoders per structure
# ----------------------------------------------------------------------


def _encode_sections(sections: dict) -> dict:
    """Each table as its dtype, shape and flat values, so empty tables
    keep their shape and every table its dtype."""
    return {
        name: {
            "dtype": table.dtype.str,
            "shape": list(table.shape),
            "data": table.ravel().tolist(),
        }
        for name, table in sections.items()
    }


def _decode_sections(data: dict) -> dict:
    return {
        name: np.asarray(entry["data"], dtype=entry["dtype"]).reshape(entry["shape"])
        for name, entry in data.items()
    }


def _encode_bk_node(node: Optional[BKNode]) -> Optional[dict]:
    """Encode one bk node (recursive; depth <= tree height)."""
    if node is None:
        return None
    return {
        "id": node.id,
        "dups": list(node.dups),
        "children": [
            {"edge": edge, "node": _encode_bk_node(child)}
            for edge, child in node.children.items()
        ],
    }


def _decode_bk_node(data: Optional[dict]) -> Optional[BKNode]:
    """Decode one bk node (recursive; depth <= tree height)."""
    if data is None:
        return None
    node = BKNode(data["id"])
    node.dups = [int(i) for i in data.get("dups", [])]
    node.children = {
        entry["edge"]: _decode_bk_node(entry["node"]) for entry in data["children"]
    }
    return node


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def index_to_dict(index: MetricIndex) -> dict:
    """Encode an index structure as a JSON-serialisable dict.

    Recursion depth is 1: a ShardManager encodes each of its shard
    indexes, and shards are plain indexes, never nested managers.
    """
    if isinstance(index, SubsequenceIndex):
        # Not a MetricIndex: n_objects counts the *series*, and the
        # window-level structure is the inner index's own dict.  Every
        # series contributes at least one window (the constructor
        # enforces length >= window), so the last origin names the
        # final series.
        return {
            "format": _FORMAT_VERSION,
            "type": "SubsequenceIndex",
            "n_objects": index._origins[-1][0] + 1,
            "params": {"window": index.window, "stride": index.stride},
            "stats": {},
            "inner": index_to_dict(index._index),
        }
    if isinstance(index, ShardManager):
        # A sharded deployment: the shard assignment plus every
        # replica's own serialised structure (recursion depth 1 —
        # shards are plain indexes, never nested managers).  Lost
        # replicas serialise as None and stay lost on load; recover()
        # rebuilds them from the dataset.  The mutable state (inserted
        # tail rows, removed ids, memtables, epochs, per-slot id and
        # tombstone tables) rides along so a churned manager
        # round-trips; serialise a quiescent manager — a concurrent
        # mutation mid-encode is not supported.  A base an earlier
        # replica of the same shard already holds is written as
        # {"replica_of": r} and restored as that same object.
        rows = index.replicas
        return {
            "format": _FORMAT_VERSION,
            "type": "ShardManager",
            "n_objects": len(index.objects),
            "params": {
                "n_shards": index.n_shards,
                "assignment": index.assignment,
                "backend": index.backend_name,
                "replication_factor": index.replication_factor,
            },
            "stats": {},
            "shard_ids": [list(ids) for ids in index.shard_ids],
            **index.mutation_state(),
            "replicas": [
                [
                    _encode_replica(rows, r, shard)
                    for shard in range(len(row))
                ]
                for r, row in enumerate(rows)
            ],
        }
    if isinstance(index, kernels.TableIndex):
        # The codec's sections and meta, as an .rsx store holds them.
        cls = next(cls for cls in _TABLED if isinstance(index, cls))
        sections, meta = kernels.encode(index)
        data = {
            "format": _FORMAT_VERSION,
            "type": cls.__name__,
            "n_objects": len(index.objects),
            **meta,
            "sections": _encode_sections(sections),
        }
        if cls is DynamicMVPTree:
            data["deleted"] = sorted(index._deleted)
            data["removed"] = sorted(index._removed)
        return data
    if isinstance(index, BKTree):
        return {
            "format": _FORMAT_VERSION,
            "type": "BKTree",
            "n_objects": len(index.objects),
            "params": {},
            "stats": {"node_count": index.node_count, "height": index.height},
            "root": _encode_bk_node(index.root),
        }
    if isinstance(index, LinearScan):
        return {
            "format": _FORMAT_VERSION,
            "type": "LinearScan",
            "n_objects": len(index.objects),
            "params": {},
            "stats": {},
            "root": None,
        }
    if isinstance(index, DistanceMatrixIndex):
        return {
            "format": _FORMAT_VERSION,
            "type": "DistanceMatrixIndex",
            "n_objects": len(index.objects),
            "params": {},
            "stats": {},
            "matrix": index.matrix.tolist(),
        }
    if isinstance(index, TransformIndex):
        transform = index.transform
        if not isinstance(transform, DFTTransform):
            raise TypeError(
                f"cannot serialise TransformIndex over "
                f"{type(transform).__name__}: only DFTTransform records "
                "enough parameters to rebuild its transform"
            )
        # The transformed dataset is a pure function of (objects,
        # transform parameters): the constructor recomputes it on load
        # with zero metric evaluations, so nothing else needs storing.
        return {
            "format": _FORMAT_VERSION,
            "type": "TransformIndex",
            "n_objects": len(index.objects),
            "params": {
                "transform": "dft",
                "n_coefficients": transform.n_coefficients,
                "series_length": transform.series_length,
            },
            "stats": {},
        }
    raise TypeError(f"cannot serialise index of type {type(index).__name__}")


def _encode_replica(rows, replica: int, shard: int) -> Optional[dict]:
    """One replica slot's entry: ``None`` when lost, a reference when an
    earlier replica of the shard holds the same base, else the base.
    Recursion depth is 1: the base is a plain index, never a manager."""
    base = rows[replica][shard]
    if base is None:
        return None
    for r in range(replica):
        if rows[r][shard] is base:
            return {"replica_of": r}
    return index_to_dict(base)


def index_from_dict(data: dict, objects: Sequence, metric: Metric) -> MetricIndex:
    """Reconstruct an index from :func:`index_to_dict` output.

    ``objects`` must be the dataset the index was built over, in the
    same order; ``metric`` must be equivalent to the construction
    metric.  Only the dataset *size* can be verified mechanically.
    Recursion depth is 1: a ShardManager decodes each shard index, and
    shards are plain indexes, never nested managers.
    """
    if data.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported serialisation format: {data.get('format')!r}")
    if data["n_objects"] != len(objects):
        raise ValueError(
            f"dataset size mismatch: index was built over {data['n_objects']} "
            f"objects but {len(objects)} were supplied"
        )
    kind = data["type"]
    params = data["params"]

    if kind == "ShardManager":
        manager = ShardManager.__new__(ShardManager)
        MetricIndex.__init__(manager, objects, metric)
        manager.assignment = params["assignment"]
        manager.backend_name = params["backend"]
        manager.replication_factor = params["replication_factor"]
        manager.store_refusal_count = 0
        # Custom-builder managers serialise backend=None; they restore
        # fine but cannot recover() lost replicas.
        manager._builder = (
            SHARD_BACKENDS.get(manager.backend_name)
            if manager.backend_name is not None
            else None
        )
        # __new__ bypassed __init__: the replica-table lock must be
        # recreated here or restored managers crash on first search.
        manager._replicas_lock = threading.Lock()
        manager._shard_ids = [
            [int(gid) for gid in ids] for ids in data["shard_ids"]
        ]
        # Mutable state: inserted tail rows, removed ids, memtables,
        # epochs, and per slot its base ids and tombstones.
        tail = data["tail"]
        if isinstance(objects, np.ndarray):
            manager._tail = [np.asarray(row) for row in tail]
            objects_full = (
                np.concatenate([objects, np.asarray(tail)]) if tail else objects
            )
        else:
            manager._tail = list(tail)
            objects_full = list(objects) + list(tail) if tail else objects
        manager._shard_of = {
            gid: shard
            for shard, ids in enumerate(manager._shard_ids)
            for gid in ids
        }
        manager._removed = {int(gid) for gid in data["removed"]}
        manager._memtables = [
            dict.fromkeys(int(gid) for gid in mem) for mem in data["memtables"]
        ]
        manager._epochs = [int(e) for e in data["epochs"]]
        rows, slot_rows = data["replicas"], data["slots"]
        manager._replicas = []
        manager._slots = []
        for row, slot_row in zip(rows, slot_rows):
            replica_row = []
            slot_list = []
            for shard, (entry, slot_data) in enumerate(zip(row, slot_row)):
                if entry is not None and "replica_of" in entry:
                    # The same base as an earlier replica: the same
                    # object, and its id tables when they agree.
                    first = manager._slots[entry["replica_of"]][shard]
                    slot = (
                        first.sibling()
                        if slot_data["ids"] == first.ids
                        else _SlotState(slot_data["ids"])
                    )
                    base = manager._replicas[entry["replica_of"]][shard]
                else:
                    slot = _SlotState(slot_data["ids"])
                    base = (
                        index_from_dict(
                            entry, gather(objects_full, slot.ids), metric
                        )
                        if entry is not None
                        else None
                    )
                slot.dead = {int(gid) for gid in slot_data["dead"]}
                slot_list.append(slot)
                replica_row.append(base)
            manager._replicas.append(replica_row)
            manager._slots.append(slot_list)
        return manager

    if kind == "SubsequenceIndex":
        # objects is the series list; windows/origins are recomputed by
        # the same sliding-window sweep the constructor runs, then the
        # inner (window-level) index decodes over those windows.
        index = SubsequenceIndex.__new__(SubsequenceIndex)
        index.window = params["window"]
        index.stride = params["stride"]
        index._metric = metric
        windows = []
        origins: list[tuple[int, int]] = []
        for series_id, sequence in enumerate(objects):
            values = np.ravel(np.asarray(sequence, dtype=float))
            if len(values) < index.window:
                raise ValueError(
                    f"series {series_id} has length {len(values)} < "
                    f"window {index.window}"
                )
            for offset in range(0, len(values) - index.window + 1, index.stride):
                windows.append(values[offset : offset + index.window])
                origins.append((series_id, offset))
        index._windows = np.stack(windows)
        index._origins = origins
        index._index = index_from_dict(data["inner"], index._windows, metric)
        return index

    if kind == "LinearScan":
        return LinearScan(objects, metric)

    if kind in _TABLED_TYPES:
        cls = _TABLED_TYPES[kind]
        dynamic = cls is DynamicMVPTree
        index = kernels.decode(
            cls,
            # The dynamic tree owns a mutable object list.
            list(objects) if dynamic else objects,
            metric,
            _decode_sections(data["sections"]),
            data,
        )
        if dynamic:
            # A restored dynamic tree keeps accepting updates, so it
            # needs a working selector and randomness source.
            index._selector = get_selector("random")
            index._rng = np.random.default_rng()
            index._deleted = set(data["deleted"])
            index._removed = set(data["removed"])
        return index
    if kind == "BKTree":
        index = BKTree.__new__(BKTree)
        MetricIndex.__init__(index, objects, metric)
        index._size = data["n_objects"]
        index._root = _decode_bk_node(data["root"])
    elif kind == "TransformIndex":
        if params.get("transform") != "dft":
            raise ValueError(
                f"unknown transform kind {params.get('transform')!r} "
                "(this reader rebuilds 'dft' transforms only)"
            )
        index = TransformIndex(
            objects,
            metric,
            DFTTransform(params["n_coefficients"], params["series_length"]),
        )
    elif kind == "DistanceMatrixIndex":
        index = DistanceMatrixIndex.__new__(DistanceMatrixIndex)
        MetricIndex.__init__(index, objects, metric)
        index._matrix = np.asarray(data["matrix"], dtype=float).reshape(
            len(objects), len(objects)
        )
    else:
        raise ValueError(f"unknown index type {kind!r}")

    for key, value in data["stats"].items():
        setattr(index, key, value)
    return index


def save_index(index: MetricIndex, path: Union[str, Path]) -> None:
    """Serialise ``index`` to a JSON file at ``path``."""
    path = Path(path)
    with path.open("w") as handle:
        json.dump(index_to_dict(index), handle)


def load_index(
    path: Union[str, Path], objects: Sequence, metric: Metric
) -> MetricIndex:
    """Load an index saved with :func:`save_index` and re-attach data."""
    path = Path(path)
    with path.open() as handle:
        data = json.load(handle)
    return index_from_dict(data, objects, metric)
