"""Disk-backed search workers: open shards by path, not by inheritance.

This is the leaf call for :class:`~repro.serve.procpool.ProcessExecutor`
in ``store_paths`` mode.  Instead of finding a fork-inherited index in
a registry, the worker *opens* the shard's ``.rsx`` file — which makes
the process backend spawn-safe (nothing needs to be inherited), shares
the mapped pages across every worker on the host (one page cache entry,
not one copy-on-write heap per process), and lets a worker pick up a
rebuilt shard simply by reopening the path.

The per-process cache below is keyed by path and invalidated by the
file's ``(inode, mtime_ns, size)``: when the parent atomically replaces a
shard store (rebuild, compaction), the next search in every worker sees
the changed stat and reopens — no re-fork, no coordination.  The cache
is a plain module-level dict of *lazily opened* handles; nothing is
opened at import time, so the module is safe to import in a parent that
later forks (see RC009).
"""

from __future__ import annotations

import os

from repro.indexes.base import Neighbor
from repro.obs.stats import QueryStats
from repro.store.backed import StoreBackedIndex, open_index
from repro.store.spec import MetricSpec, metric_from_spec

#: path -> ((inode, mtime_ns, size), open index).  Populated per
#: process on first use; never at import time.
_STORE_CACHE: dict[str, tuple[tuple[int, int, int], StoreBackedIndex]] = {}


def open_worker_index(path: str, metric_spec: MetricSpec) -> StoreBackedIndex:
    """The current index for ``path``, reopening after any rewrite.

    Every open verifies the payload digest, so a torn or corrupt
    rebuild is refused here (the exception travels to the parent's
    failover logic) rather than answering from bad bytes.  An atomic
    replace gives the path a new inode, so a rewrite is seen even when
    its mtime and size match the old file's.
    """
    stat = os.stat(path)
    key = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
    cached = _STORE_CACHE.get(path)
    if cached is not None and cached[0] == key:
        return cached[1]
    index = open_index(path, metric_from_spec(metric_spec))
    if cached is not None:
        cached[1].close()
    _STORE_CACHE[path] = (key, index)
    return index


def remote_store_search(
    path: str, metric_spec: MetricSpec, query, resume=None
) -> tuple[object, QueryStats, object]:
    """Answer one (query, shard) unit from the shard's store file.

    Runs the same :func:`repro.serve.sharding.search` as every other
    search path (``query`` is the unit's
    :class:`~repro.serve.sharding.Query`, its budget already split per
    shard), then maps the store's local ids to the *global* ids
    recorded in it.  Returns ``(value, stats, report)``: the worker-side
    :class:`QueryStats` ride back for the parent to merge, and
    ``report`` is ``None`` on the exact tier.  ``resume`` runs one round
    of a two-round exact k-NN, its outcome in the report slot; a paused
    state is stamped with the store's payload digest, so a round two
    that finds the file rebuilt searches it again from the root.
    """
    from repro.serve.sharding import search

    index = open_worker_index(path, metric_spec)
    stats = QueryStats()
    local, report = search(index, query, stats=stats, resume=resume)
    if query.kind == "range":
        return index.to_global(local), stats, report
    globals_ = index.to_global([n.id for n in local])
    neighbors = [Neighbor(n.distance, g) for n, g in zip(local, globals_)]
    return neighbors, stats, report
