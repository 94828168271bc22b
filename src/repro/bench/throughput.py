"""Serving-throughput benchmark: engine vs. sequential baseline.

The paper's evaluation counts distance computations per single query;
the serving layer adds the orthogonal axis a production deployment
cares about — *queries per second over a batch*.  This benchmark runs
the same mixed range/k-NN batch twice over one sharded deployment:

* **sequential baseline** — a plain loop over the
  :class:`~repro.serve.sharding.ShardManager`'s own (single-threaded)
  search methods;
* **engine** — the same queries through a
  :class:`~repro.serve.engine.QueryEngine` worker pool.

Because both paths execute identical per-shard searches, the results
and the distance-computation totals must agree exactly; only wall-clock
differs.  ``simulated_cost_s`` optionally adds a fixed sleep to every
metric call, modelling the paper's target regime where one distance
evaluation (image comparison, sequence alignment) dominates all other
cost — that regime is where worker threads pay off most clearly, since
sleeping (like numpy's vectorised inner loops) releases the GIL.

Run it via ``repro-bench serve`` or :func:`run_throughput`.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datasets.vectors import uniform_vectors
from repro.metric import L2, CountingMetric
from repro.metric.base import Metric
from repro.obs.stats import QueryStats, merge_all
from repro.serve.engine import EXECUTOR_KINDS, Query, QueryEngine
from repro.serve.sharding import SHARD_BACKENDS, ShardManager


class SimulatedCostMetric(Metric):
    """Add a fixed sleep to every evaluation of an inner metric.

    Models expensive real-world metrics (the paper's image and sequence
    distances) on synthetic data: one scalar evaluation sleeps
    ``cost_s``; a batched evaluation sleeps once (vectorised batches
    amortise per-call overhead in real metrics too).  ``time.sleep``
    releases the GIL, so the simulated cost parallelises exactly like a
    C-implemented metric would.

    ``peak`` is the most sleeps ever in flight at once: 1 when every
    evaluation ran back to back, 2 or more once two threads overlapped
    their costs.  Unlike a wall-clock speed-up it does not depend on
    how busy the host is.
    """

    def __init__(self, inner: Metric, cost_s: float):
        if cost_s < 0:
            raise ValueError(f"cost_s must be >= 0, got {cost_s}")
        self.inner = inner
        self.cost_s = cost_s
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    def _sleep(self) -> None:
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        try:
            time.sleep(self.cost_s)
        finally:
            with self._lock:
                self._in_flight -= 1

    def distance(self, a, b) -> float:
        if self.cost_s:
            self._sleep()
        return self.inner.distance(a, b)

    def batch_distance(self, xs: Sequence, y) -> np.ndarray:
        if self.cost_s:
            self._sleep()
        return self.inner.batch_distance(xs, y)


#: Version tag of the ``to_dict`` JSON layout.  Consumers (the ratchet,
#: dashboards) should check this before reading fields; bump it on any
#: incompatible change.
SERVE_SCHEMA = "repro-bench-serve/v1"


@dataclass(frozen=True)
class ThroughputResult:
    """One engine-vs-sequential comparison over a shared deployment."""

    n_objects: int
    n_shards: int
    backend: str
    workers: int
    n_queries: int
    sequential_s: float
    engine_s: float
    sequential_distance_calls: int
    engine_distance_calls: int
    n_degraded: int
    results_identical: bool
    executor: str = "thread"
    replication: int = 1
    dim: int = 0
    radius: float = 0.0
    k: int = 0
    seed: int = 0
    simulated_cost_us: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0

    @property
    def sequential_qps(self) -> float:
        return self.n_queries / self.sequential_s if self.sequential_s else 0.0

    @property
    def engine_qps(self) -> float:
        return self.n_queries / self.engine_s if self.engine_s else 0.0

    @property
    def speedup(self) -> float:
        return self.sequential_s / self.engine_s if self.engine_s else 0.0

    def to_dict(self) -> dict:
        """Machine-readable result (layout versioned by ``schema``).

        ``config`` holds every knob needed to re-run the identical
        benchmark — the ratchet replays it and compares ``qps``.
        """
        return {
            "schema": SERVE_SCHEMA,
            "dataset": "uniform",
            "n_objects": self.n_objects,
            "n_shards": self.n_shards,
            "backend": self.backend,
            "executor": self.executor,
            "replication": self.replication,
            "workers": self.workers,
            "n_queries": self.n_queries,
            "sequential_s": self.sequential_s,
            "engine_s": self.engine_s,
            "sequential_qps": self.sequential_qps,
            "engine_qps": self.engine_qps,
            "qps": self.engine_qps,
            "speedup": self.speedup,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "sequential_distance_calls": self.sequential_distance_calls,
            "engine_distance_calls": self.engine_distance_calls,
            "distance_calls_per_query": (
                self.engine_distance_calls / self.n_queries
                if self.n_queries
                else 0.0
            ),
            "n_degraded": self.n_degraded,
            "results_identical": self.results_identical,
            "config": {
                "n": self.n_objects,
                "dim": self.dim,
                "shards": self.n_shards,
                "replication": self.replication,
                "backend": self.backend,
                "executor": self.executor,
                "workers": self.workers,
                "queries": self.n_queries,
                "radius": self.radius,
                "k": self.k,
                "seed": self.seed,
                "simulated_cost_us": self.simulated_cost_us,
            },
        }

    def report(self) -> str:
        lines = [
            f"throughput: {self.n_shards}-shard {self.backend} over "
            f"{self.n_objects} objects, batch of {self.n_queries} queries, "
            f"executor={self.executor}",
            f"  sequential : {self.sequential_s * 1000:8.1f} ms  "
            f"({self.sequential_qps:8.0f} q/s, "
            f"{self.sequential_distance_calls:,} distance calls)",
            f"  engine x{self.workers:<2} : {self.engine_s * 1000:8.1f} ms  "
            f"({self.engine_qps:8.0f} q/s, "
            f"{self.engine_distance_calls:,} distance calls)",
            f"  latency    : p50 {self.latency_p50_ms:.2f} ms, "
            f"p99 {self.latency_p99_ms:.2f} ms",
            f"  speedup    : {self.speedup:.2f}x, "
            f"degraded {self.n_degraded}, results "
            + ("identical" if self.results_identical else "DIFFER"),
        ]
        return "\n".join(lines)


def make_batch(
    n_queries: int, dim: int, radius: float, k: int, rng: np.random.Generator
) -> list[Query]:
    """A mixed batch: alternating range and k-NN queries."""
    queries = []
    for i in range(n_queries):
        vector = rng.random(dim)
        if i % 2 == 0:
            queries.append(Query.range(vector, radius))
        else:
            queries.append(Query.knn(vector, k))
    return queries


def run_throughput(
    *,
    n: int = 2000,
    dim: int = 20,
    n_shards: int = 4,
    workers: int = 4,
    backend: str = "vpt",
    executor: str = "thread",
    replication: int = 1,
    n_queries: int = 64,
    radius: float = 0.4,
    k: int = 5,
    seed: int = 0,
    simulated_cost_s: float = 0.0,
    timeout: Optional[float] = None,
    measure_latency: bool = True,
) -> ThroughputResult:
    """Build one deployment, run the batch both ways, compare.

    Returns a :class:`ThroughputResult`; ``results_identical`` asserts
    the engine's concurrent answers equal the sequential baseline's
    (ids and distances, query by query).  ``executor`` selects the
    engine's worker pool (:data:`~repro.serve.engine.EXECUTOR_KINDS`);
    with ``"process"`` the parent-side counter never sees the workers'
    evaluations, so the engine's per-query stats are checked against
    the sequential totals instead.  ``measure_latency`` adds a
    single-query-at-a-time pass recording p50/p99 latency under zero
    queueing (skip it for the fastest possible run).
    """
    data = uniform_vectors(n, dim=dim, rng=seed)
    metric: Metric = L2()
    if simulated_cost_s:
        metric = SimulatedCostMetric(metric, simulated_cost_s)
    counting = CountingMetric(metric)
    manager = ShardManager(
        data,
        counting,
        n_shards=n_shards,
        backend=backend,
        rng=seed,
        replication_factor=replication,
    )
    counting.reset()  # build cost is not part of the serving comparison

    batch = make_batch(n_queries, dim, radius, k, np.random.default_rng(seed + 1))

    # Sequential baseline: a plain loop on the caller's thread.
    sequential_answers = []
    sequential_stats: list[QueryStats] = []
    start = time.perf_counter()
    for query in batch:
        stats = QueryStats()
        if query.kind == "range":
            answer = manager.range_search(query.query, query.radius, stats=stats)
        else:
            answer = manager.knn_search(query.query, query.k, stats=stats)
        sequential_answers.append(answer)
        sequential_stats.append(stats)
    sequential_s = time.perf_counter() - start
    sequential_calls = counting.reset()

    # The engine, over the same deployment and the same metric counter.
    latencies_ms: list[float] = []
    with QueryEngine(manager, executor=executor, workers=workers, timeout=timeout) as engine:
        result = engine.run_batch(batch)
        engine_calls = counting.reset()
        if measure_latency:
            # Per-query latency under zero queueing: one query in
            # flight at a time, full shard fan-out per query.
            for query in batch:
                t0 = time.perf_counter()
                engine.run_batch([query])
                latencies_ms.append((time.perf_counter() - t0) * 1000.0)
    counting.reset()  # latency pass is not part of the call comparison

    identical = all(
        engine_result.value == sequential_answer
        for engine_result, sequential_answer in zip(
            result.results, sequential_answers
        )
    )
    # Cross-check the observability identity on both paths: aggregated
    # QueryStats equal the CountingMetric totals, sequential and
    # concurrent alike.  Forked workers charge their own copy of the
    # counter, so for the process pool the per-query stats (reported
    # back by value) are compared with the sequential totals instead.
    assert merge_all(sequential_stats).distance_calls == sequential_calls
    if executor == "process":
        assert result.stats.distance_calls == sequential_calls
        engine_calls = result.stats.distance_calls
    else:
        assert result.stats.distance_calls == engine_calls

    return ThroughputResult(
        n_objects=n,
        n_shards=n_shards,
        backend=backend,
        workers=workers,
        n_queries=n_queries,
        sequential_s=sequential_s,
        engine_s=result.wall_time_s,
        sequential_distance_calls=sequential_calls,
        engine_distance_calls=engine_calls,
        n_degraded=result.n_degraded,
        results_identical=identical,
        executor=executor,
        replication=replication,
        dim=dim,
        radius=radius,
        k=k,
        seed=seed,
        simulated_cost_us=simulated_cost_s * 1e6,
        latency_p50_ms=(
            float(np.percentile(latencies_ms, 50)) if latencies_ms else 0.0
        ),
        latency_p99_ms=(
            float(np.percentile(latencies_ms, 99)) if latencies_ms else 0.0
        ),
    )


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench serve",
        description="Serving-throughput benchmark: engine vs. sequential.",
    )
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=20)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--backend", choices=sorted(SHARD_BACKENDS), default="vpt"
    )
    parser.add_argument(
        "--executor", choices=EXECUTOR_KINDS, default="thread",
        help="engine worker pool: serial, thread, or process (forked "
        "workers inheriting the index; escapes the GIL)",
    )
    parser.add_argument("--replication", type=int, default=1)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--radius", type=float, default=0.4)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--simulated-cost-us", type=float, default=0.0,
        help="sleep this many microseconds per metric call (models an "
        "expensive distance function)",
    )
    parser.add_argument(
        "--no-latency", action="store_false", dest="measure_latency",
        help="skip the single-query latency (p50/p99) pass",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-bench serve`` entry point."""
    args = build_serve_parser().parse_args(argv)
    result = run_throughput(
        n=args.n,
        dim=args.dim,
        n_shards=args.shards,
        workers=args.workers,
        backend=args.backend,
        executor=args.executor,
        replication=args.replication,
        n_queries=args.queries,
        radius=args.radius,
        k=args.k,
        seed=args.seed,
        simulated_cost_s=args.simulated_cost_us * 1e-6,
        measure_latency=args.measure_latency,
    )
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.report())
    return 0 if result.results_identical else 1
