"""Concurrent batch-query execution with bounded latency.

The :class:`QueryEngine` turns a built index — a single
:class:`~repro.indexes.base.MetricIndex` or, usually, a
:class:`~repro.serve.sharding.ShardManager` — into a serving surface:

* a batch of range/k-NN queries executes over a pluggable worker pool
  (:class:`ThreadedExecutor` by default; :class:`SerialExecutor` gives
  a deterministic in-thread baseline;
  :class:`~repro.serve.procpool.ProcessExecutor` forks workers that
  inherit the index read-only, escaping the GIL — pass
  ``executor="process"``);
* the unit of work is one *(query, shard)* pair.  Only the process
  executor runs a single query's shards in parallel.  Under the GIL a
  tree search is mostly Python and small numpy calls that hold it (on
  concentrated data the search touches almost every point), so pool
  threads splitting one query's shards only hand the GIL back and
  forth.  With no deadline the caller therefore runs its own query: on
  a :class:`ThreadedExecutor` the first query of a batch runs its
  units on the calling thread, in shard order, and the pool runs the
  rest of the batch.  On perfbench's ``churn-vpt`` (16-d uniform data,
  two shards, single-query batches, 2 vCPUs) that took the median qps
  from 149 to 192 and p95 latency from 9.1 to 6.8 ms against pool-run
  units (``docs/serving.md``).  A batch with a deadline keeps every
  unit on the pool, so the caller stays free to enforce the deadline;
* every unit carries its own :class:`~repro.obs.QueryStats`; a query's
  stats are the merge of its units, and the batch's stats are the merge
  of its queries — so batch aggregation equals the per-query sum *by
  construction*, and equals the wrapped
  :class:`~repro.metric.CountingMetric` total because every index
  charges both through the same ``_dist``/``_batch_dist`` gateway;
* robustness: per-query deadlines (a late shard's result is dropped and
  the answer is returned partial with ``degraded=True``), replica
  failover behind per-replica circuit breakers, retry rounds spaced by
  capped exponential backoff with deterministic jitter, a
  fault-injection hook for tests, and backpressure via a bounded
  in-flight unit budget.

Failure semantics: a query never raises out of :meth:`run_batch`.  When
the index is a replicated :class:`ShardManager`, a failing unit first
*fails over* — within the same round it tries the shard's other live
replicas (skipping any whose circuit breaker is open), and an answer
from a sibling replica is exact, so the result stays
``degraded=False``; only when every replica of a shard fails does a
retry round begin, after a backoff delay.  A shard whose every replica
keeps failing through ``retries`` rounds, or that misses the deadline,
contributes nothing; the merged answer over the surviving shards is
returned with ``degraded=True`` so callers can distinguish "exact" from
"best effort under fault/timeout".  See ``docs/resilience.md``.
"""

from __future__ import annotations

import inspect
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from repro.approx import (
    ApproxDowngrade,
    ApproxReport,
    merge_reports,
    missing_shard_report,
)
from repro.indexes.base import MetricIndex, Neighbor
from repro.obs.stats import (
    SHARD_DOWNGRADED,
    SHARD_FAILED,
    SHARD_OK,
    SHARD_TIMEOUT,
    QueryStats,
    merge_all,
)
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.breaker import CircuitBreaker
from repro.serve.cache import DistanceCacheMetric, LRUCache
from repro.serve.procpool import ProcessExecutor
from repro.serve.sharding import (
    Query,
    ReplicaUnavailable,
    ShardManager,
    merge_knn,
    merge_range,
    search,
    unit_query,
)


class ShardFailure(RuntimeError):
    """Raised by fault hooks (or shard code) to simulate/signal a shard
    failing mid-search; the engine fails over, retries, then degrades."""


#: ``hook(query_index, shard, attempt, replica)`` called before every
#: unit attempt.  Raise to inject a failure, sleep to inject slowness.
#: Legacy three-parameter hooks (no ``replica``) are still accepted —
#: the engine inspects the callable's arity once at construction.
FaultHook = Union[
    Callable[[int, int, int], None], Callable[[int, int, int, int], None]
]


@dataclass
class QueryResult:
    """The engine's answer to one :class:`Query`.

    ``ids`` is set for range queries, ``neighbors`` for k-NN.  When
    ``degraded`` is true the answer is *partial*: ``shards_failed``
    shards exhausted their retries and ``shards_timed_out`` missed the
    deadline, and their contributions are missing.  ``stats`` merges
    every unit that ran for this query (including failed attempts —
    their distance computations really happened).

    ``approx`` carries the merged :class:`~repro.approx.ApproxReport`
    when the query ran (anywhere) on the approximate tier — because it
    was submitted with a budget/epsilon, or because the engine's
    downgrade policy converted a deadline miss into a budgeted pass
    (those shards count in ``shards_downgraded``, not
    ``shards_timed_out``, and do not set ``degraded``: the answer is
    complete under the approximate contract and says so honestly via
    ``approx.recall_lower_bound``).  Per-shard completion flags live in
    ``stats.shard_outcomes``.
    """

    index: int
    kind: str
    ids: Optional[list[int]] = None
    neighbors: Optional[list[Neighbor]] = None
    stats: QueryStats = field(default_factory=QueryStats)
    degraded: bool = False
    from_cache: bool = False
    shards_ok: int = 0
    shards_failed: int = 0
    shards_timed_out: int = 0
    shards_downgraded: int = 0
    approx: Optional[ApproxReport] = None

    @property
    def value(self):
        """The answer payload (`ids` or ``neighbors``)."""
        return self.ids if self.kind == "range" else self.neighbors


@dataclass
class BatchResult:
    """Results of one :meth:`QueryEngine.run_batch` call.

    ``stats`` is the merge of every per-query ``QueryStats`` — equal to
    their sum by construction (tested, not just asserted, by the serve
    suite).
    """

    results: list[QueryResult]
    stats: QueryStats
    wall_time_s: float

    @property
    def n_degraded(self) -> int:
        return sum(1 for r in self.results if r.degraded)

    @property
    def n_from_cache(self) -> int:
        return sum(1 for r in self.results if r.from_cache)

    def queries_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return float("inf")
        return len(self.results) / self.wall_time_s


# ----------------------------------------------------------------------
# Executors (pluggable worker pools)
# ----------------------------------------------------------------------


class SerialExecutor:
    """Run every unit inline on the submitting thread.

    The deterministic baseline: identical results and stats to the
    threaded pool, zero concurrency.  Deadlines degrade gracefully — a
    unit that was *started* always finishes (nothing preempts it), so
    only units still queued when the deadline passed are dropped, and
    with inline execution there is no queue.
    """

    max_workers = 1

    @staticmethod
    def submit(fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # pragma: no cover - units don't raise
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class ThreadedExecutor:
    """A thin wrapper over :class:`concurrent.futures.ThreadPoolExecutor`.

    Threads overlap the parts of a search that release the GIL: large
    numpy ``batch_distance`` blocks, C-implemented user metrics, sleeps
    and waits under fault/timeout scenarios.  A tree search on
    concentrated data mostly holds the GIL, so threads add hand-offs
    rather than parallelism there: on perfbench's ``churn-vpt`` a
    deployment answered 149 queries/s with each query's two shard units
    on two pool threads, and 192 with them run back to back on the
    caller.
    :meth:`QueryEngine.run_batch` therefore runs a no-deadline batch's
    first query on the calling thread and gives the pool only the rest
    of the batch.
    """

    def __init__(self, max_workers: int = 4):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )

    def submit(self, fn, *args) -> Future:
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


#: Anything with ``submit(fn, *args) -> Future`` and ``shutdown()``.
#: :class:`~repro.serve.procpool.ProcessExecutor` additionally exposes
#: ``search(...)``, which the engine routes unit searches through.
Executor = Union[SerialExecutor, ThreadedExecutor, ProcessExecutor]

#: Names accepted by ``QueryEngine(executor=...)`` as shorthand for an
#: engine-owned pool of ``workers`` workers.
EXECUTOR_KINDS = ("serial", "thread", "process")


@dataclass
class _UnitOutcome:
    """What one (query, shard) unit produced."""

    ok: bool
    value: object = None
    stats: QueryStats = field(default_factory=QueryStats)
    error: Optional[str] = None
    report: Optional[ApproxReport] = None


def _exact_unit_report(kind: str, stats: QueryStats) -> ApproxReport:
    """A unit that ran the exact tier, phrased as an approx certificate.

    Used when a query mixes tiers (deadline downgrade hit only some
    shards): an exact shard missed nothing, so it contributes zero
    unseen mass and an infinite missed lower bound to the merge.
    """
    return ApproxReport(
        kind=kind,
        budget=None,
        epsilon=0.0,
        spent=stats.distance_calls,
        exhausted=False,
        possible_missed=0,
        min_missed_lb=float("inf"),
        sound=(),
        recall_lower_bound=1.0,
    )


def _hook_takes_replica(hook: Optional[FaultHook]) -> bool:
    """Does a fault hook accept the 4th (replica) argument?

    Pre-replication hooks were ``hook(qi, shard, attempt)``; they keep
    working.  When the signature can't be introspected, assume the
    modern four-parameter form.
    """
    if hook is None:
        return False
    try:
        signature = inspect.signature(hook)
    except (TypeError, ValueError):  # repro-check: ignore[RC008] arity probe
        return True
    required = 0
    for param in signature.parameters.values():
        if param.kind == inspect.Parameter.VAR_POSITIONAL:
            return True
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            required += 1
    return required >= 4


class QueryEngine:
    """Execute query batches over an index with a worker pool.

    Parameters
    ----------
    index:
        A built :class:`ShardManager` (units fan out per shard) or any
        single :class:`MetricIndex` (one unit per query).
    executor:
        Worker pool: an executor object, or one of the names in
        :data:`EXECUTOR_KINDS` — ``"serial"`` (inline, deterministic),
        ``"thread"`` (the default; with no deadline the caller runs a
        batch's first query itself, see :meth:`run_batch`) or
        ``"process"`` (forked workers inheriting the index
        read-only — see :mod:`repro.serve.procpool`; incompatible with
        ``distance_cache``).  Defaults to ``ThreadedExecutor(workers)``.
    workers:
        Pool size when ``executor`` is not supplied or is a name.
    timeout:
        Default per-query deadline in seconds (None = no deadline).
        A query's deadline starts when its units are submitted; shards
        not finished by then are dropped and the result is degraded.
    retries:
        Retry *rounds* per failing unit before it is written off.  One
        round tries every live, breaker-admitted replica of the unit's
        shard once; rounds after the first are preceded by a backoff
        delay.
    backoff:
        The :class:`~repro.resilience.backoff.BackoffPolicy` spacing
        retry rounds (capped exponential, deterministic jitter keyed by
        ``"{query_index}:{shard}"``).  Defaults to a millisecond-scale
        policy with seed 0.
    breaker_config:
        Keyword arguments for each per-``(shard, replica)``
        :class:`~repro.resilience.breaker.CircuitBreaker` (e.g.
        ``{"cooldown": 0.5, "window": 4}``).  ``None`` keeps the
        breaker defaults; breakers are created lazily on first use and
        share the engine ``clock``.
    clock:
        Monotonic-seconds callable used by the circuit breakers'
        cooldown logic; inject a fake for deterministic tests.
    sleep:
        Callable the backoff delays go through (default ``time.sleep``);
        inject a recorder to test schedules without waiting.
    result_cache_size:
        Capacity of the LRU whole-answer cache (0 disables it).  Only
        exact, non-degraded answers are cached.
    distance_cache:
        The :class:`DistanceCacheMetric` the index's shards were built
        over, if any; the engine binds it to each unit's stats so cache
        hits/misses are attributed per query.
    max_pending:
        Backpressure bound: at most this many units are admitted
        (queued + running) at once; submission blocks beyond it.
        Defaults to ``4 * workers``.
    fault_hook:
        Test seam called as ``hook(query_index, shard, attempt,
        replica)`` (or the legacy three-parameter form) before every
        unit attempt; raise to fail the attempt, sleep to slow it.
    store_paths:
        With ``executor="process"``: run the pool disk-backed — workers
        open each shard's ``.rsx`` store from this ``{(shard, replica):
        path}`` mapping (see :func:`repro.store.sharded.save_shard_stores`)
        instead of inheriting the index at fork.  Requires
        ``metric_spec``; spawn-safe.
    metric_spec:
        :mod:`repro.store.spec` metric spec (e.g. ``"l2"``) for
        disk-backed workers.
    approximate:
        Deadline-downgrade policy: an
        :class:`~repro.approx.ApproxDowngrade` (or a bare int, shorthand
        for ``ApproxDowngrade(budget=n)``).  When set, a shard that
        misses the query deadline is re-run inline as a *budgeted* pass
        instead of being dropped — the result stays ``degraded=False``
        and instead carries an honest ``approx`` recall certificate.
        ``None`` (the default) keeps the drop-and-degrade behaviour.
    """

    def __init__(
        self,
        index: MetricIndex,
        *,
        executor: Union[Executor, str, None] = None,
        workers: int = 4,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: Optional[BackoffPolicy] = None,
        breaker_config: Optional[dict] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        result_cache_size: int = 0,
        distance_cache: Optional[DistanceCacheMetric] = None,
        max_pending: Optional[int] = None,
        fault_hook: Optional[FaultHook] = None,
        store_paths: Optional[dict] = None,
        metric_spec=None,
        approximate: Union[None, int, ApproxDowngrade] = None,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if store_paths is not None and executor != "process":
            raise ValueError(
                "store_paths is a ProcessExecutor feature; pass "
                "executor='process' (or construct the executor yourself)"
            )
        self.index = index
        if isinstance(executor, str):
            if executor not in EXECUTOR_KINDS:
                raise ValueError(
                    f"unknown executor {executor!r}; expected one of "
                    f"{EXECUTOR_KINDS} or an executor object"
                )
            if executor == "process" and distance_cache is not None:
                raise ValueError(
                    "executor='process' cannot use a distance_cache: "
                    "forked workers would populate private copies the "
                    "parent never sees"
                )
            self._own_executor = True
            if executor == "serial":
                self.executor: Executor = SerialExecutor()
            elif executor == "thread":
                self.executor = ThreadedExecutor(workers)
            else:
                self.executor = ProcessExecutor(
                    index,
                    workers,
                    store_paths=store_paths,
                    metric_spec=metric_spec,
                )
        else:
            self._own_executor = executor is None
            self.executor = (
                executor if executor is not None else ThreadedExecutor(workers)
            )
        if isinstance(self.executor, ProcessExecutor) and distance_cache is not None:
            raise ValueError(
                "a ProcessExecutor cannot use a distance_cache: forked "
                "workers would populate private copies the parent never sees"
            )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._breaker_config = dict(breaker_config or {})
        self._breaker_config.setdefault("clock", clock)
        self._breakers: dict[
            tuple[int, int], CircuitBreaker
        ] = {}  # guarded-by: _breakers_lock
        self._breakers_lock = threading.Lock()
        self._sleep = sleep
        self.result_cache = (
            LRUCache(result_cache_size) if result_cache_size > 0 else None
        )
        self.distance_cache = distance_cache
        workers_hint = getattr(self.executor, "max_workers", workers)
        self.max_pending = (
            max_pending if max_pending is not None else 4 * workers_hint
        )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        self._pending = threading.BoundedSemaphore(self.max_pending)
        self.fault_hook = fault_hook
        self._hook_takes_replica = _hook_takes_replica(fault_hook)
        if isinstance(approximate, bool):
            raise TypeError(
                "approximate expects a budget int or ApproxDowngrade, "
                f"got {approximate!r}"
            )
        if isinstance(approximate, int):
            approximate = ApproxDowngrade(budget=approximate)
        if approximate is not None and not isinstance(
            approximate, ApproxDowngrade
        ):
            raise TypeError(
                "approximate expects a budget int or ApproxDowngrade, "
                f"got {type(approximate).__name__}"
            )
        self.approximate = approximate

    # ------------------------------------------------------------------
    # Unit execution (runs on a worker thread, or on the caller's)
    # ------------------------------------------------------------------

    def breaker(self, shard: int, replica: int) -> CircuitBreaker:
        """The (lazily created) circuit breaker for one replica slot."""
        key = (shard, replica)
        with self._breakers_lock:
            if key not in self._breakers:
                self._breakers[key] = CircuitBreaker(**self._breaker_config)
            return self._breakers[key]

    def breaker_snapshots(self) -> dict[str, dict]:
        """Every instantiated breaker's state, keyed ``"shard/replica"``."""
        with self._breakers_lock:
            items = list(self._breakers.items())
        return {
            f"{shard}/{replica}": breaker.snapshot()
            for (shard, replica), breaker in sorted(items)
        }

    def _call_fault_hook(
        self, qi: int, shard: int, attempt: int, replica: int
    ) -> None:
        if self.fault_hook is None:
            return
        if self._hook_takes_replica:
            self.fault_hook(qi, shard, attempt, replica)
        else:
            self.fault_hook(qi, shard, attempt)

    def _search_unit(
        self,
        query: Query,
        shard: Optional[int],
        replica: Optional[int],
        stats: QueryStats,
    ):
        """One replica's (or the whole single index's) answer for a query.

        Returns ``(value, report)``; ``report`` is ``None`` on the exact
        tier and an :class:`~repro.approx.ApproxReport` (in this unit's
        *local* frame: spent/missed mass for this shard only) on the
        approximate tier.  A shard unit runs its slice of the budget —
        the same split :meth:`ShardManager.search` uses, so engine
        answers match the sequential path exactly.
        """
        if shard is not None:
            query = unit_query(query, shard, self.index.n_shards)
        if isinstance(self.executor, ProcessExecutor):
            # The search itself runs in a worker process; only the
            # orchestration (this thread) stays parent-side.  The
            # worker's stats come back by value and merge into the
            # unit's stats, preserving every per-query identity except
            # the parent CountingMetric delta (the worker charged its
            # own forked copy).
            value, remote_stats, report = self.executor.search(
                query, shard, replica
            )
            stats.merge(remote_stats)
            return value, report
        return search(self.index, query, shard=shard, replica=replica, stats=stats)

    def _unit_replicas(self, shard: Optional[int]) -> list[Optional[int]]:
        """Failover candidates for a unit, preferred replica first.

        A replicated manager offers every replica number (dead ones are
        filtered per round so a replica revived between rounds is used);
        a plain index or unreplicated manager has the single ``None``
        target, which resolves to "whatever can answer".
        """
        index = self.index
        if shard is not None and isinstance(index, ShardManager):
            factor = index.replication_factor
            if factor > 1:
                return list(range(factor))
        return [None]

    def _run_unit(self, qi: int, query: Query, shard: Optional[int]) -> _UnitOutcome:
        """Execute one unit with failover and retry rounds; never raises.

        Each round walks the shard's replicas in order: lost replicas
        are skipped, breaker-rejected ones are skipped and counted, a
        failure is recorded to that replica's breaker and *fails over*
        to the next candidate, and the first success answers the unit —
        exactly, whichever replica produced it.  Only when a whole round
        yields nothing does the unit back off (capped exponential,
        deterministic jitter) and try again, up to ``retries`` rounds.

        Stats accumulate across attempts: a failed attempt's distance
        computations really ran (and were charged to the wrapped
        CountingMetric), so dropping them would break the engine's
        stats-equals-counter identity.
        """
        stats = QueryStats()
        shard_no = shard if shard is not None else 0
        error: Optional[str] = None
        try:
            for attempt in range(self.retries + 1):
                if attempt > 0:
                    delay = self.backoff.delay(
                        attempt - 1, token=f"{qi}:{shard_no}"
                    )
                    stats.retries += 1
                    stats.backoff_total_s += delay
                    self._sleep(delay)
                failed_this_round = 0
                for replica in self._unit_replicas(shard):
                    replica_no = replica if replica is not None else 0
                    if replica is not None and not self.index.slot_available(
                        shard_no, replica
                    ):
                        # Lost replica: not a health signal, just gone.
                        failed_this_round += 1
                        continue
                    breaker = self.breaker(shard_no, replica_no)
                    if not breaker.allow():
                        stats.breaker_rejections += 1
                        failed_this_round += 1
                        continue
                    try:
                        self._call_fault_hook(qi, shard_no, attempt, replica_no)
                        if self.distance_cache is not None:
                            with self.distance_cache.observe(stats):
                                value, report = self._search_unit(
                                    query, shard, replica, stats
                                )
                        else:
                            value, report = self._search_unit(
                                query, shard, replica, stats
                            )
                    except Exception as exc:
                        breaker.record_failure()
                        failed_this_round += 1
                        error = f"{type(exc).__name__}: {exc}"
                        continue
                    breaker.record_success()
                    if failed_this_round:
                        stats.failovers += 1
                    return _UnitOutcome(
                        ok=True, value=value, stats=stats, report=report
                    )
            if error is None:
                error = (
                    f"shard {shard_no}: no live replica admitted the unit"
                )
            return _UnitOutcome(ok=False, stats=stats, error=error)
        finally:
            self._pending.release()

    # ------------------------------------------------------------------
    # Batch execution (runs on the caller's thread)
    # ------------------------------------------------------------------

    def _shard_plan(self) -> list[Optional[int]]:
        """Unit targets per query: shard numbers, or one ``None`` unit."""
        if isinstance(self.index, ShardManager):
            return list(range(self.index.n_shards))
        return [None]

    def submit_query(self, qi: int, query: Query) -> list[Future]:
        """Submit one query's units to the pool; returns their futures.

        Blocks while the in-flight unit budget (``max_pending``) is
        exhausted — the engine's backpressure: a caller pushing a huge
        batch is throttled to what the pool can absorb instead of
        queueing unboundedly.
        """
        return self._submit_units(qi, query, self.executor.submit)

    def _submit_units(self, qi: int, query: Query, submit) -> list[Future]:
        """One ``submit(self._run_unit, ...)`` per shard, in shard order,
        each holding a ``max_pending`` permit that the unit releases."""
        futures: list[Future] = []
        for shard in self._shard_plan():
            self._pending.acquire()
            try:
                futures.append(submit(self._run_unit, qi, query, shard))
            except BaseException:  # pragma: no cover - submission failed
                self._pending.release()
                raise
        return futures

    def _cached_result(
        self, qi: int, query: Query, miss_stats: dict[int, QueryStats]
    ) -> Optional[QueryResult]:
        if self.result_cache is None:
            return None
        key = query.cache_key()
        if key is None:
            return None
        hit = self.result_cache.get(key)
        stats = QueryStats()
        if hit is None:
            stats.result_cache_misses += 1
            # Remember the miss so the gathered result reports it.
            miss_stats[qi] = stats
            return None
        stats.result_cache_hits += 1
        result = QueryResult(
            index=qi,
            kind=query.kind,
            stats=stats,
            from_cache=True,
            shards_ok=0,
        )
        if query.is_approximate:
            # Approximate entries store (payload, report) so a hit
            # replays the recall certificate along with the answer.
            payload, result.approx = hit
        else:
            payload = hit
        if query.kind == "range":
            result.ids = list(payload)
        else:
            result.neighbors = list(payload)
        return result

    def _downgraded_unit(
        self, query: Query, shard: Optional[int], stats: QueryStats
    ):
        """Inline budgeted re-run of a unit that missed the deadline.

        Runs on the gathering thread with no deadline: the whole point
        of a budget is that its cost is bounded up front.  The shard's
        slice of the policy budget is the same deterministic split an
        explicitly budgeted query would get.
        """
        policy = self.approximate
        downgraded = replace(
            query, budget=policy.budget, epsilon=policy.epsilon
        )
        replica = None
        if shard is not None and isinstance(self.index, ShardManager):
            # Resolve the replica here, against the parent's replica
            # table: a worker resolving ``None`` itself could pick a
            # replica the parent has already dropped.
            live = self.index.live_replicas(shard)
            if not live:
                raise ReplicaUnavailable(f"shard {shard} has no live replica")
            replica = live[0]
        if self.distance_cache is not None:
            with self.distance_cache.observe(stats):
                return self._search_unit(downgraded, shard, replica, stats)
        return self._search_unit(downgraded, shard, replica, stats)

    def _gather(
        self,
        qi: int,
        query: Query,
        futures: list[Future],
        deadline: Optional[float],
        miss_stats: dict[int, QueryStats],
    ) -> QueryResult:
        """Assemble one query's result from its unit futures.

        Waits until every unit finished or the deadline passed; late
        units are cancelled if still queued, abandoned if running (their
        worker finishes in the background — threads cannot be
        preempted), and their answers are dropped either way.
        """
        result = QueryResult(index=qi, kind=query.kind, stats=QueryStats())
        missed = miss_stats.pop(qi, None)
        if missed is not None:
            result.stats.merge(missed)
        pending = set(futures)
        while pending:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                break
            done, pending = wait(
                pending, timeout=remaining, return_when=FIRST_COMPLETED
            )
            if not done:
                break  # timed out with units still outstanding
        plan = self._shard_plan()
        shard_sizes = (
            self.index.shard_sizes()
            if isinstance(self.index, ShardManager)
            else None
        )
        values = []
        # (report, stats) per answering unit; an exact unit's certificate
        # is only built when the query needs a merged report.
        unit_reports: list[tuple[Optional[ApproxReport], QueryStats]] = []
        missing_sizes: list[int] = []

        def note_outcome(shard: Optional[int], flag: str) -> None:
            # Per-shard completion flags only exist for sharded
            # deployments — a plain index has no shards to flag, and
            # recording one would break engine-vs-sequential stats
            # parity (the sequential search records none).
            if shard is not None:
                result.stats.record_shard_outcome(shard, flag)

        for shard, future in zip(plan, futures):
            shard_no = shard if shard is not None else 0
            size = (
                len(self.index) if shard_sizes is None else shard_sizes[shard]
            )
            if future in pending:
                if future.cancel():
                    # A cancelled unit never runs, so _run_unit's finally
                    # can't release its backpressure permit — do it here.
                    self._pending.release()
                if self.approximate is not None:
                    # Deadline downgrade: replace the missing shard with
                    # an inline budgeted pass instead of dropping it.
                    downgrade_stats = QueryStats()
                    try:
                        value, report = self._downgraded_unit(
                            query, shard, downgrade_stats
                        )
                    except Exception:
                        result.stats.merge(downgrade_stats)
                        result.shards_timed_out += 1
                        note_outcome(shard, SHARD_TIMEOUT)
                        missing_sizes.append(size)
                        continue
                    result.stats.merge(downgrade_stats)
                    result.shards_downgraded += 1
                    note_outcome(shard, SHARD_DOWNGRADED)
                    values.append(value)
                    unit_reports.append((report, downgrade_stats))
                    continue
                result.shards_timed_out += 1
                note_outcome(shard, SHARD_TIMEOUT)
                missing_sizes.append(size)
                continue
            outcome: _UnitOutcome = future.result()
            result.stats.merge(outcome.stats)
            if outcome.ok:
                result.shards_ok += 1
                note_outcome(shard, SHARD_OK)
                values.append(outcome.value)
                unit_reports.append((outcome.report, outcome.stats))
            else:
                result.shards_failed += 1
                note_outcome(shard, SHARD_FAILED)
                missing_sizes.append(size)
        result.degraded = bool(result.shards_failed or result.shards_timed_out)
        if query.kind == "range":
            result.ids = merge_range(values)
        else:
            k = min(query.k, len(self.index))
            result.neighbors = merge_knn(values, k)
        if query.is_approximate or result.shards_downgraded:
            # Shards that contributed nothing are honestly accounted as
            # fully unseen mass with a zero lower bound: the certificate
            # can only understate recall, never overstate it.
            reports = [
                report
                if report is not None
                else _exact_unit_report(query.kind, unit_stats)
                for report, unit_stats in unit_reports
            ]
            for size in missing_sizes:
                reports.append(missing_shard_report(query.kind, size))
            target = (
                min(query.k, len(self.index)) if query.kind == "knn" else None
            )
            result.approx = merge_reports(
                query.kind,
                reports,
                result.value,
                budget=query.budget,
                epsilon=query.epsilon,
                target=target,
            )
        if (
            self.result_cache is not None
            and not result.degraded
            and not result.shards_downgraded
        ):
            key = query.cache_key()
            if key is not None:
                payload = tuple(result.value)
                if result.approx is not None:
                    payload = (payload, result.approx)
                self.result_cache.put(key, payload)
        return result

    def run_batch(
        self,
        queries: Sequence[Query],
        *,
        timeout: Optional[float] = None,
    ) -> BatchResult:
        """Execute a batch; returns per-query results plus merged stats.

        ``timeout`` overrides the engine default for this batch.  The
        call never raises on shard failure or deadline — inspect
        ``degraded`` per result.

        On a :class:`ThreadedExecutor` with no deadline the caller runs
        its own query: the first uncached query's units run on the
        calling thread, in shard order, once the rest of the batch is
        queued on the pool.  Splitting one query's shards across pool
        threads buys no parallelism under the GIL, only hand-offs.  A
        batch with a deadline keeps every unit on the pool so the caller
        stays free to enforce it.
        """
        deadline_s = self.timeout if timeout is None else timeout
        start = time.perf_counter()
        miss_stats: dict[int, QueryStats] = {}
        results: list[Optional[QueryResult]] = [None] * len(queries)
        submitted: list[tuple[int, Query, list[Future], Optional[float]]] = []
        caller_runs = deadline_s is None and isinstance(
            self.executor, ThreadedExecutor
        )
        own: Optional[tuple[int, Query]] = None
        for qi, query in enumerate(queries):
            cached = self._cached_result(qi, query, miss_stats)
            if cached is not None:
                results[qi] = cached
                continue
            if caller_runs and own is None:
                own = (qi, query)
                continue
            futures = self.submit_query(qi, query)
            deadline = (
                None if deadline_s is None else time.monotonic() + deadline_s
            )
            submitted.append((qi, query, futures, deadline))
        if own is not None:
            qi, query = own
            futures = self._submit_units(qi, query, SerialExecutor.submit)
            submitted.insert(0, (qi, query, futures, None))
        for qi, query, futures, deadline in submitted:
            results[qi] = self._gather(qi, query, futures, deadline, miss_stats)
        final = [result for result in results if result is not None]
        return BatchResult(
            results=final,
            stats=merge_all(result.stats for result in final),
            wall_time_s=time.perf_counter() - start,
        )

    def close(self) -> None:
        """Shut down an engine-owned executor (shared ones are left up)."""
        if self._own_executor:
            self.executor.shutdown()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
