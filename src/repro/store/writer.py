"""Serialise built indexes into ``.rsx`` stores.

A table index is written through the one codec
(:func:`repro.indexes.kernels.encode`, the one JSON persist uses too):
its sections are the flat tables its searches read — for the trees the
vp ids, cutoffs, shell bounds, child kind/slot tables and the
multi-vantage leaves' precomputed D1/D2/PATH distance arrays, GNAT's
split ids and range tables, the gh-tree's pivots and covering radii,
LAESA's pivot table — so a reopened store plants mmap views of them in
an index of the same class, with bit-exact values and therefore
byte-identical answers and ``QueryStats``.

Writers exist for the static families, every class of
:data:`FAMILY_CLASSES`.  Mutating structures (``DynamicMVPTree``) are
refused: a store is a frozen artifact; rebuild and rewrite after bulk
updates (or let delta files carry the inserts).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro._util import as_rng
from repro.core.gmvptree import GMVPTree
from repro.core.mvptree import MVPTree
from repro.indexes import kernels
from repro.indexes.ghtree import GHTree
from repro.indexes.gnat import GNAT
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
    "ght": GHTree,
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


def store_bytes(
    index,
    *,
    global_ids=None,
    source_mtime: Optional[float] = None,
) -> bytes:
    """The exact bytes :func:`write_store` writes for ``index``."""
    family = store_family(index)
    points = _points_of(index)
    sections, family_meta = {}, {}
    if isinstance(index, kernels.TableIndex):
        sections, family_meta = kernels.encode(index)
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
    """Rebuild a family index from points + stored params (compaction).

    A table class's stored params are its codec ``_PARAMS`` keys, which
    are its constructor's keywords (an ``MVPTree`` is always ``v = 2``).
    """
    if family == "linear":
        return LinearScan(points, metric)
    cls = FAMILY_CLASSES.get(family)
    if cls is None:
        raise ValueError(f"unknown store family {family!r}")
    kwargs = {key: params[key] for key in cls._PARAMS}
    if cls is MVPTree:
        del kwargs["v"]
    return cls(points, metric, **kwargs, rng=as_rng(rng))
