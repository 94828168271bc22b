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
  stats (the report is ``None`` on the exact tier).  One round of a
  two-round exact k-NN crosses the same way, its paused state riding
  there and back (``resume`` out, the report slot back).
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
the reply reader and the orchestration thread pool exist and before any
query runs — so no worker can inherit a lock some other parent thread
happens to hold mid-operation (the classic fork-after-threads
deadlock).  Modules
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
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from multiprocessing.connection import wait as mp_wait
from typing import Optional

from repro.indexes.base import MetricIndex
from repro.obs.stats import QueryStats
from repro.serve.sharding import PausedShard, Query, search
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


def _serve(requests, read_lock, replies, write_lock) -> None:
    """A worker's loop: report ready, then take the next ``(id, fn,
    args)`` off the shared request pipe, run it, and send back ``(id,
    True, result)`` or ``(id, False, exception)``; ``None`` or a closed
    pipe ends it."""
    with write_lock:
        replies.send((None, True, None))
    while True:
        with read_lock:
            try:
                message = requests.recv()
            except (EOFError, OSError):  # repro-check: ignore[RC008] parent gone
                return
        if message is None:
            return
        call_id, fn, args = message
        try:
            reply = (call_id, True, fn(*args))
        except BaseException as exc:  # repro-check: ignore[RC008] sent on
            reply = (call_id, False, exc)  # to the parent's failover
        with write_lock:
            try:
                replies.send(reply)
            except Exception as exc:  # repro-check: ignore[RC008] sent on
                # An answer or error that does not pickle.
                failure = RuntimeError(f"worker reply failed: {exc!r}")
                replies.send((call_id, False, failure))


class WorkerDied(RuntimeError):
    """A worker process exited: the pool fails every unit from then on."""


class _Workers:
    """Worker processes sharing one request pipe and one reply pipe.

    A calling thread writes its call to the request pipe itself, and the
    first free worker takes it, so every worker has its next unit
    waiting while it runs one.  One parent thread reads the replies and
    completes each caller's future.  That leaves two parent-side thread
    hand-offs per unit, where ``ProcessPoolExecutor`` has four (its
    manager thread on the way out and back, its feeder thread, the
    caller).  Every worker starts in ``__init__``, before the reader
    thread.  A worker that exits breaks the pool, as it breaks a
    ``ProcessPoolExecutor``: every unit in flight or to come fails with
    :class:`WorkerDied`, and the engine fails them over.
    """

    def __init__(self, n: int, context, ready_timeout_s: float):
        requests_out, self._requests = context.Pipe(duplex=False)
        self._replies, replies_in = context.Pipe(duplex=False)
        read_lock, write_lock = context.Lock(), context.Lock()
        self.processes = [
            context.Process(
                target=_serve,
                args=(requests_out, read_lock, replies_in, write_lock),
                daemon=True,
            )
            for _ in range(n)
        ]
        for process in self.processes:
            process.start()
        requests_out.close()
        replies_in.close()
        # Ready messages; a worker not ready in time sends its own later.
        deadline = time.monotonic() + ready_timeout_s
        for _ in range(n):
            if not self._replies.poll(max(0.0, deadline - time.monotonic())):
                break
            self._replies.recv()
        self._send_lock = threading.Lock()
        self._futures: dict[int, Future] = {}
        self._ids = itertools.count()
        self._broken = False
        self._closing = False
        self._reader = threading.Thread(
            target=self._read, name="repro-serve-replies", daemon=True
        )
        self._reader.start()

    def call(self, fn, *args):
        """``fn(*args)`` in the first free worker; re-raises its error."""
        future: Future = Future()
        call_id = next(self._ids)
        self._futures[call_id] = future
        if self._broken:
            self._futures.pop(call_id, None)
            raise WorkerDied("a worker process exited; the pool is broken")
        with self._send_lock:
            self._requests.send((call_id, fn, args))
        return future.result()

    def _read(self) -> None:
        """Complete each reply's future.  A worker that exits outside a
        shutdown breaks the pool; once every worker has exited the reply
        pipe ends, and whatever is still waiting fails."""
        sentinels = [process.sentinel for process in self.processes]
        while True:
            ready = mp_wait([self._replies, *sentinels])
            if self._replies in ready:
                try:
                    call_id, ok, value = self._replies.recv()
                except (EOFError, OSError):  # repro-check: ignore[RC008] all exited
                    self._fail_all()
                    return
                future = self._futures.pop(call_id, None)
                if future is None:
                    continue  # a late ready message, or a failed unit's
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
                continue
            sentinels = [s for s in sentinels if s not in ready]
            if not self._closing:
                self._fail_all()

    def _fail_all(self) -> None:
        self._broken = True
        for call_id in list(self._futures):
            future = self._futures.pop(call_id, None)
            if future is not None:
                future.set_exception(WorkerDied("a worker process exited"))

    def shutdown(self, wait: bool) -> None:
        """Stop every worker; with ``wait``, join them and the reader."""
        self._closing = True
        with self._send_lock:
            for _ in self.processes:
                try:
                    self._requests.send(None)
                except OSError:  # repro-check: ignore[RC008] workers gone
                    break
        if not wait:
            return
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._reader.join(timeout=5.0)
        self._requests.close()
        self._replies.close()


def _remote_search(
    token: int,
    query: Query,
    shard: Optional[int],
    replica: Optional[int],
    resume: Optional[PausedShard] = None,
) -> tuple[object, QueryStats, object]:
    """Run one unit's search inside a worker; the picklable leaf call.

    Looks the index up in the fork-inherited registry, answers with
    :func:`~repro.serve.sharding.search`, and returns the value with the
    worker-side :class:`QueryStats` (which the parent merges into the
    unit's stats) and the unit-local report (``None`` on the exact
    tier).  Exceptions propagate through the future into the parent's
    failover logic unchanged.  ``query.budget`` arrives already split
    per shard by the engine; ``resume`` is a two-round k-NN's state.
    """
    index = _FORK_REGISTRY.get(token)
    if index is None:
        raise RuntimeError(
            f"fork registry has no index for token {token}; the worker "
            "predates the registration (pool built before the index?)"
        )
    stats = QueryStats()
    value, report = search(
        index, query, shard=shard, replica=replica, stats=stats, resume=resume
    )
    return value, stats, report


class ProcessExecutor:
    """Worker pool that runs searches in forked processes.

    Plugs into :class:`~repro.serve.engine.QueryEngine` through the
    same ``submit(fn, *args) -> Future`` surface as the thread pool:
    unit *orchestration* (``_run_unit`` — retries, failover, breakers)
    runs on an internal thread pool, and the engine routes the actual
    search through :meth:`search`, which blocks the orchestration
    thread on the forked worker's answer.

    The thread pool holds ``2 * max_workers`` orchestrators, so the
    next unit is already orchestrated (breaker, fault hook) and waiting
    for the first idle worker when one frees.  An orchestrator talks to
    its worker over that worker's own pipe (:class:`_Workers`).

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
        How long ``__init__`` may wait for every worker to report ready
        (a spawned worker boots an interpreter first).  Every worker is
        started before it returns either way: eager forking is a
        *fork-safety* measure, not an optimisation — see the module
        docstring.
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
        # Every worker forks here, while the parent is single-threaded.
        self._workers = _Workers(max_workers, context, warm_timeout_s)
        self._threads = ThreadPoolExecutor(
            max_workers=2 * max_workers, thread_name_prefix="repro-serve-orch"
        )

    @property
    def n_live_workers(self) -> int:
        """Worker processes currently in the pool."""
        return sum(process.is_alive() for process in self._workers.processes)

    def submit(self, fn, *args) -> Future:
        """Run unit orchestration on a parent-side thread (engine API)."""
        return self._threads.submit(fn, *args)

    def search(
        self,
        query: Query,
        shard: Optional[int],
        replica: Optional[int],
        resume: Optional[PausedShard] = None,
    ) -> tuple[object, QueryStats, object]:
        """Dispatch one unit to a worker process and await its answer.

        Called by the engine's ``_search_unit`` from an orchestration
        thread; worker exceptions re-raise here and feed the engine's
        breaker/failover path exactly like an in-thread failure.
        Returns ``(value, stats, report)``; ``report`` is the unit's
        :class:`~repro.approx.ApproxReport` on the approximate tier,
        else ``None``; with ``resume`` it is the round's outcome
        (:func:`repro.serve.sharding.search`).  A paused state pickles,
        so round two may run in any worker.

        In disk-backed mode the unit's ``(shard, replica)`` selects a
        store path; a slot with no file (empty shard, unsaved replica)
        answers empty without leaving the parent.
        """
        if self._store_paths is None:
            return self._workers.call(
                _remote_search, self.token, query, shard, replica, resume
            )
        path = self._store_paths.get((shard or 0, replica or 0))
        if path is None:
            # Nothing to search: exact-empty, so no report needed —
            # the engine phrases it as a zero-mass certificate.
            return [], QueryStats(), None
        return self._workers.call(
            remote_store_search, path, self._metric_spec, query, resume
        )

    def shutdown(self, wait: bool = True) -> None:
        self._threads.shutdown(wait=wait)
        self._workers.shutdown(wait=wait)
        _FORK_REGISTRY.pop(self.token, None)
