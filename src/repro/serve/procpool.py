"""Process-pool serving backend: escape the GIL by forking workers.

Threads serve this workload well only while the expensive inner loops
release the GIL (numpy ``batch_distance``, C-implemented metrics).  A
pure-python metric — or any python-heavy search path — serialises on
the interpreter lock and a thread pool adds overhead without adding
throughput.  The :class:`ProcessExecutor` fixes that by running the
*search* of every (query, shard) unit in a forked worker process:

* **Workers inherit the index read-only at fork.**  The index (usually
  a :class:`~repro.serve.sharding.ShardManager`) is placed in the
  module-level :data:`_FORK_REGISTRY` *before* the pool forks, so every
  worker finds it in its own copy-on-write memory under a small integer
  token.  Each unit ships only its :class:`~repro.serve.sharding.Query`,
  shard and replica — the index itself is **never pickled**, not at
  setup and not per query.
* **Orchestration stays in the parent.**  Retry rounds, replica
  failover, circuit breakers, deadlines, backpressure and the fault
  hook all run on a parent-side thread pool exactly as they do for the
  threaded executor; only the leaf call —
  :func:`_remote_search`, which runs the same
  :func:`repro.serve.sharding.search` an in-thread unit runs — crosses
  the process boundary, returning a picklable ``(value, QueryStats,
  ApproxReport | None)`` triple that the parent merges into the unit's
  stats (the report is ``None`` on the exact tier).
* **Parent-side replica state is authoritative.**  Workers never see
  replicas dropped *after* the fork (their copy-on-write snapshot still
  has them), which is safe precisely because the engine checks
  ``index.slot_available(shard, replica)`` in the parent before
  dispatching, and resolves a concrete replica for a deadline
  downgrade there too — a dropped replica is skipped without ever
  reaching a worker.

Consequences callers must accept:

* The parent's :class:`~repro.metric.CountingMetric` is **not**
  incremented by worker searches (each worker bumps its own forked
  copy), so the parent-side ``stats == counter delta`` identity holds
  only for the returned :class:`~repro.obs.QueryStats`, which the
  workers report faithfully.  Correctness checks compare answers and
  stats against a sequential oracle instead (see the differential
  fuzzer).
* A :class:`~repro.serve.cache.DistanceCacheMetric` cannot work across
  the boundary (each worker would populate a private copy the parent
  never sees); the engine rejects the combination up front.
* Index mutations after the pool is built (e.g.
  ``DynamicMVPTree.insert``) are invisible to the workers.  Build the
  index, then the pool; rebuild the pool after bulk updates.

Fork safety: every worker is forked eagerly in ``__init__`` — before
the orchestration thread pool exists and before any query runs — so no
worker can inherit a lock some other parent thread happens to hold
mid-operation (the classic fork-after-threads deadlock).  Modules
imported by fork workers must not hold module-level locks, open file
handles, or thread pools; the RC009 lint rule enforces this.

**Disk-backed mode** (``store_paths``): instead of inheriting an index,
workers *open* each shard's ``.rsx`` store by path
(:func:`repro.store.worker.remote_store_search`).  Nothing crosses the
process boundary at setup, so this mode works under any start method —
pass ``start_method="spawn"`` for fork-free deployments — and the
mmap-ed store pages are shared by every worker through the page cache
instead of one copy-on-write heap per process.  Workers notice an
atomically replaced store file by its changed stat and reopen it, so a
rebuilt shard is picked up without re-creating the pool.  The parent's
replica table stays authoritative the same way as above: the engine
never dispatches to a slot it considers lost, and a ``(shard, replica)``
with no store file answers empty like an empty shard.
"""

from __future__ import annotations

import itertools
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from typing import Optional

from repro.approx import ApproxReport
from repro.indexes.base import MetricIndex
from repro.obs.stats import QueryStats
from repro.serve.sharding import Query, search
from repro.store.spec import MetricSpec
from repro.store.worker import remote_store_search

#: Indexes visible to fork workers, keyed by registration token.  Entries
#: added *before* a pool forks are inherited copy-on-write by its
#: workers; entries added afterwards are invisible to them — which is
#: why registration happens inside ``ProcessExecutor.__init__`` only.
_FORK_REGISTRY: dict[int, MetricIndex] = {}

_TOKENS = itertools.count(1)


def fork_available() -> bool:
    """Can this platform fork workers that inherit the registry?"""
    return "fork" in multiprocessing.get_all_start_methods()


#: The pool's warm-up barrier, set in each worker by
#: :func:`_init_worker` (``None`` in the parent).
_WARM_BARRIER = None


def _init_worker(barrier) -> None:
    """Pool initializer: keep the ``max_workers``-party warm-up barrier.
    It travels through ``initargs``, so it reaches workers under fork
    and spawn alike."""
    global _WARM_BARRIER
    _WARM_BARRIER = barrier


def _ping(timeout_s: float) -> int:
    """Worker warm-up task: hold this worker until every worker holds a
    ping, so no worker is idle while the pool is short of workers and
    each submission starts a fresh one (``ProcessPoolExecutor`` only
    spawns when no worker is idle).  A barrier that times out breaks
    and fails every waiting ping; ``_warm`` never reads the results."""
    _WARM_BARRIER.wait(timeout_s)
    return 0


def _remote_search(
    token: int, query: Query, shard: Optional[int], replica: Optional[int]
) -> tuple[object, QueryStats, Optional[ApproxReport]]:
    """Run one unit's search inside a worker; the picklable leaf call.

    Looks the index up in the fork-inherited registry, answers with
    :func:`~repro.serve.sharding.search`, and returns the value with the
    worker-side :class:`QueryStats` (which the parent merges into the
    unit's stats) and the unit-local report (``None`` on the exact
    tier).  Exceptions propagate through the future into the parent's
    failover logic unchanged.  ``query.budget`` arrives already split
    per shard by the engine.
    """
    index = _FORK_REGISTRY.get(token)
    if index is None:
        raise RuntimeError(
            f"fork registry has no index for token {token}; the worker "
            "predates the registration (pool built before the index?)"
        )
    stats = QueryStats()
    value, report = search(index, query, shard=shard, replica=replica, stats=stats)
    return value, stats, report


class ProcessExecutor:
    """Worker pool that runs searches in forked processes.

    Plugs into :class:`~repro.serve.engine.QueryEngine` through the
    same ``submit(fn, *args) -> Future`` surface as the thread pool:
    unit *orchestration* (``_run_unit`` — retries, failover, breakers)
    runs on an internal thread pool, and the engine routes the actual
    search through :meth:`search`, which blocks the orchestration
    thread on the forked worker's answer.

    The thread pool holds ``2 * max_workers`` orchestrators.  A blocked
    orchestrator holds one unit, so with one thread per worker at most
    ``max_workers`` units ever reached the process pool: a worker that
    finished a unit idled until a parent thread woke, collected the
    answer and picked up the next unit.  With two per worker, each
    worker has one unit running and the next already pickled in the
    pool's call queue.

    Parameters
    ----------
    index:
        The built index the workers should answer from.  Registered
        under a fresh token, then inherited by every worker at fork.
        May be ``None`` in disk-backed mode.
    max_workers:
        Worker process count (twice as many orchestration threads are
        created, see above).
    warm_timeout_s:
        How long ``__init__`` may spend forking the full complement of
        workers up front.  Eager forking is a *fork-safety* measure,
        not an optimisation — see the module docstring.
    store_paths:
        ``{(shard, replica): path}`` of ``.rsx`` stores (as produced by
        :func:`repro.store.sharded.save_shard_stores`) switching the
        executor to disk-backed mode: workers open shards from these
        paths instead of the fork registry.  A single-index deployment
        uses the key ``(0, 0)``; a missing key answers empty.  Requires
        ``metric_spec``.
    metric_spec:
        :mod:`repro.store.spec` spec (e.g. ``"l2"``) the workers build
        their metric from; disk-backed mode only.
    start_method:
        Multiprocessing start method for the pool.  Defaults to
        ``"fork"``; disk-backed mode accepts ``"spawn"`` (and falls
        back to it automatically where fork does not exist), registry
        mode cannot (spawned workers would not inherit the registry).
    """

    def __init__(
        self,
        index: Optional[MetricIndex],
        max_workers: int = 4,
        *,
        warm_timeout_s: float = 10.0,
        store_paths: Optional[dict] = None,
        metric_spec: Optional[MetricSpec] = None,
        start_method: Optional[str] = None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if store_paths is not None:
            if metric_spec is None:
                raise ValueError(
                    "store_paths mode needs a metric_spec for the workers "
                    "to rebuild the metric from (e.g. 'l2')"
                )
            self._store_paths: Optional[dict[tuple[int, int], str]] = {
                (key if isinstance(key, tuple) else (key, 0)): str(path)
                for key, path in store_paths.items()
            }
            if start_method is None:
                start_method = "fork" if fork_available() else "spawn"
        else:
            self._store_paths = None
            if start_method is None:
                start_method = "fork"
            elif start_method != "fork":
                raise ValueError(
                    f"start_method={start_method!r} requires store_paths: "
                    "only forked workers inherit the in-memory registry"
                )
            if not fork_available():
                raise RuntimeError(
                    "ProcessExecutor requires the 'fork' start method so "
                    "workers inherit the index; this platform offers only "
                    f"{multiprocessing.get_all_start_methods()} — use "
                    "store_paths mode for spawn-safe workers"
                )
        self._metric_spec = metric_spec
        self.start_method = start_method
        self.max_workers = max_workers
        self.token = next(_TOKENS)
        if self._store_paths is None:
            # Registration MUST precede pool creation: workers only see
            # registry entries that existed when they forked.
            _FORK_REGISTRY[self.token] = index
        context = multiprocessing.get_context(start_method)
        self._processes = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(context.Barrier(max_workers),),
        )
        self._warm(warm_timeout_s)
        self._threads = ThreadPoolExecutor(
            max_workers=2 * max_workers, thread_name_prefix="repro-serve-orch"
        )

    def _warm(self, timeout_s: float) -> None:
        """Fork every worker now, while the parent is single-threaded.

        ``ProcessPoolExecutor`` may start workers lazily — one per
        submission that finds no idle worker (spawn, and fork before
        Python 3.11) — so one round of ``max_workers`` pings, each
        waiting on a ``max_workers``-party barrier, keeps every worker
        busy until all of them exist.  Deadline-bounded: on a slow
        machine the barrier times out, the pool keeps the workers it
        has and starts the rest lazily (losing the safety guarantee is
        still better than hanging startup).
        """
        pings = [
            self._processes.submit(_ping, timeout_s)
            for _ in range(self.max_workers)
        ]
        wait(pings, timeout=timeout_s)

    @property
    def n_live_workers(self) -> int:
        """Forked worker processes currently in the pool."""
        return len(self._processes._processes)

    def submit(self, fn, *args) -> Future:
        """Run unit orchestration on a parent-side thread (engine API)."""
        return self._threads.submit(fn, *args)

    def search(
        self, query: Query, shard: Optional[int], replica: Optional[int]
    ) -> tuple[object, QueryStats, Optional[ApproxReport]]:
        """Dispatch one unit to a worker process and await its answer.

        Called by the engine's ``_search_unit`` from an orchestration
        thread; worker exceptions re-raise here and feed the engine's
        breaker/failover path exactly like an in-thread failure.
        Returns ``(value, stats, report)``; ``report`` is the unit's
        :class:`~repro.approx.ApproxReport` on the approximate tier,
        else ``None``.

        In disk-backed mode the unit's ``(shard, replica)`` selects a
        store path; a slot with no file (empty shard, unsaved replica)
        answers empty without leaving the parent.
        """
        if self._store_paths is None:
            future = self._processes.submit(
                _remote_search, self.token, query, shard, replica
            )
            return future.result()
        path = self._store_paths.get((shard or 0, replica or 0))
        if path is None:
            # Nothing to search: exact-empty, so no report needed —
            # the engine phrases it as a zero-mass certificate.
            return [], QueryStats(), None
        future = self._processes.submit(
            remote_store_search, path, self._metric_spec, query
        )
        return future.result()

    def shutdown(self, wait: bool = True) -> None:
        self._threads.shutdown(wait=wait)
        self._processes.shutdown(wait=wait)
        _FORK_REGISTRY.pop(self.token, None)
