"""Per-layer probes for the traced run.

Before the traced load window, a fixed probe sample of the workload's
queries is replayed in the parent through each layer's public functions.
Each query runs every variant back to back:

* per-shard searches — ``ShardManager.shard_range_search`` /
  ``shard_knn_search``, or ``StoreBackedIndex`` when the workload serves
  from ``.rsx`` stores — plus ``merge_range`` / ``merge_knn``: without
  spans (``plain``), with ``stats=`` (``stats``) and traced
  (``traced``, with :class:`~perfbench.tracing.TimingMetric` spans);
* the sequential manager (``range_search`` / ``knn_search``), the same
  manager behind a serial ``QueryEngine``, and the deployment's own
  engine with one query in flight;
* a raw brute force on the same host, for the index-vs-scan verdict.

Then ``ShardManager.approx_knn_search`` runs under the workload's
budget.  :func:`probe_layers` returns the numbers under the metric
names of ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from perfbench import oracle
from perfbench.tracing import SpanRecorder, TimingMetric, self_times
from repro.indexes.base import Neighbor
from repro.metric import EditDistance
from repro.obs import QueryStats
from repro.serve import QueryEngine, merge_knn, merge_range
from repro.store import Store, open_index, save_shard_stores

EXACT_KINDS = ("range", "knn")


@dataclass
class PassTimes:
    """Per probe op: seconds per shard, merge and total seconds, the
    ``QueryStats`` passed (or ``None``) and the merged answer's size."""

    shards: list = field(default_factory=list)
    merge: list = field(default_factory=list)
    total: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    answers: list = field(default_factory=list)


def _ms(values) -> float:
    return float(np.mean(values)) * 1e3 if len(values) else 0.0


class ShardSearch:
    """One shard's search entry, as the deployment serves it."""

    def __init__(self, manager, shard: int, store=None):
        self.manager = manager
        self.shard = shard
        self.store = store

    def __call__(self, op, stats: Optional[QueryStats]):
        store = self.store
        if store is None:
            if op.kind == "range":
                return self.manager.shard_range_search(self.shard, op.query, op.param, stats=stats)
            return self.manager.shard_knn_search(self.shard, op.query, op.param, stats=stats)
        if op.kind == "range":
            return store.to_global(store.range_search(op.query, op.param, stats=stats))
        local = store.knn_search(op.query, min(op.param, len(store)), stats=stats)
        return [Neighbor(n.distance, g) for n, g in zip(local, store.to_global([n.id for n in local]))]


def shard_pass(out: PassTimes, searches, op, *, stats: Optional[QueryStats] = None, recorder: Optional[SpanRecorder] = None) -> None:
    """Search ``op`` shard by shard and merge, appending the timings to
    ``out``; with a recorder the op is a ``probe`` span holding one
    ``shard`` span per shard and a ``merge`` span."""
    per_shard = []
    parts = []
    t0 = time.perf_counter()
    with (recorder.span("probe", rid=recorder.new_id()) if recorder else nullcontext()):
        for search in searches:
            s0 = time.perf_counter()
            with (recorder.span("shard") if recorder else nullcontext()):
                parts.append(search(op, stats))
            per_shard.append(time.perf_counter() - s0)
        m0 = time.perf_counter()
        with (recorder.span("merge") if recorder else nullcontext()):
            merged = _merge(op, parts)
        m1 = time.perf_counter()
    out.shards.append(per_shard)
    out.merge.append(m1 - m0)
    out.total.append(m1 - t0)
    out.stats.append(stats)
    out.answers.append(len(merged))


def _merge(op, parts):
    return merge_range(parts) if op.kind == "range" else merge_knn(parts, op.param)


def _seconds(fn, op) -> float:
    t0 = time.perf_counter()
    fn(op)
    return time.perf_counter() - t0


def store_probe(manager, directory: Path, n_points: int) -> dict:
    """Write the deployment's shards as ``.rsx`` stores, then time one
    unverified open and one payload verification per store."""
    t0 = time.perf_counter()
    paths = save_shard_stores(manager, directory)
    write_s = time.perf_counter() - t0
    opens, verifies, size = [], [], 0
    for path in paths.values():
        size += Path(path).stat().st_size
        t0 = time.perf_counter()
        index = open_index(path, manager.metric, verify=False)
        opens.append(time.perf_counter() - t0)
        index.close()
        with Store(path) as store:
            t0 = time.perf_counter()
            store.verify()
            verifies.append(time.perf_counter() - t0)
    return {
        "write_s": write_s,
        "bytes_per_point": size / max(1, n_points),
        "open_ms": _ms(opens),
        "verify_ms": _ms(verifies),
    }


def brute_force(workload):
    """Same-host raw linear scan: numpy L2 over every point for vectors,
    a loop over ``EditDistance`` for words."""
    if workload.spec["metric"] == "edit":
        metric = EditDistance()
        words = workload.data
        return lambda op: [metric.distance(w, op.query) for w in words]
    points = np.asarray(workload.data, dtype=np.float64)

    def scan(op):
        d = oracle.l2_distances(points, op.query)
        if op.kind == "range":
            return np.nonzero(d <= op.param)[0]
        k = op.param
        part = np.argpartition(d, k - 1)[:k]
        return part[np.lexsort((part, d[part]))]

    return scan


def approx_probe(workload, manager, ops) -> dict:
    """Budgeted k-NN through the sequential manager: time, spend, and
    true recall minus the certified lower bound."""
    q = workload.spec["query"]
    knn_ops = [op for op in ops if op.kind in ("knn", "bknn")] or ops
    # The probes run before any write, so the generated data is the live set.
    truth = workload.oracle or oracle.VectorOracle(workload.data)
    times, spent, gaps = [], [], []
    for op in knn_ops:
        t0 = time.perf_counter()
        answer, report = manager.approx_knn_search(op.query, q["k"], budget=q["budget"])
        times.append(time.perf_counter() - t0)
        _, recall = oracle.check_budgeted_knn(answer, None, truth.distances(op.query), truth.ids, q["k"])
        spent.append(report.spent)
        gaps.append(recall - report.recall_lower_bound)
    return {
        "ms_per_query": _ms(times),
        "spent_per_query": float(np.mean(spent)),
        "bound_gap": float(np.mean(gaps)),
    }


def self_time_ms(recorder: SpanRecorder) -> dict[str, float]:
    """Mean self time per span, by span name."""
    own = self_times(recorder.spans)
    out: dict[str, list[float]] = {}
    for s in recorder.spans:
        out.setdefault(s.name, []).append(own[s.id] / 1e6)
    return {name: float(np.mean(v)) for name, v in out.items()}


def probe_layers(workload, dep, recorder: SpanRecorder, metric: TimingMetric) -> dict:
    """Run every probe pass; returns per-layer numbers keyed by their
    names in ``BENCHMARK.json``."""
    manager = dep.manager
    ops = workload.probe_ops()
    exact = [op for op in ops if op.kind in EXACT_KINDS]
    stores = []
    if dep.store_paths:
        stores = [open_index(dep.store_paths[(s, 0)], metric) for s in range(workload.n_shards)]
    searches = [ShardSearch(manager, s, stores[s] if stores else None) for s in range(workload.n_shards)]
    # Every variant of one op runs back to back, in an order that rotates
    # from op to op, so host speed drift and cache state hit all of them
    # alike and the ratios between them hold.
    plain, counted, traced = PassTimes(), PassTimes(), PassTimes()
    timed: dict[str, list[float]] = {"seq": [], "serial": [], "engine": [], "brute": [], "brute_plain": []}
    brute_ops = {id(op) for op in (exact[:3] if workload.spec["metric"] == "edit" else exact)}
    scan = brute_force(workload)
    serial = QueryEngine(manager, executor="serial")

    def traced_pass(op) -> None:
        metric.enabled = True
        try:
            shard_pass(traced, searches, op, recorder=recorder)
        finally:
            metric.enabled = False

    def brute_pass(op) -> None:
        if id(op) in brute_ops:
            timed["brute"].append(_seconds(scan, op))
            timed["brute_plain"].append(sum(plain.shards[-1]))

    def timer(name: str, fn):
        return lambda op: timed[name].append(_seconds(fn, op))

    variants = {
        "plain": lambda op: shard_pass(plain, searches, op),
        "stats": lambda op: shard_pass(counted, searches, op, stats=QueryStats()),
        "traced": traced_pass,
        "seq": timer(
            "seq",
            lambda op: manager.range_search(op.query, op.param)
            if op.kind == "range"
            else manager.knn_search(op.query, op.param),
        ),
        "serial": timer("serial", lambda op: serial.run_batch([op.to_query()])),
        "engine": timer("engine", lambda op: dep.engines[0].run_batch([op.to_query()])),
        "brute": brute_pass,  # pairs with the "plain" pass just before it
    }
    rest = list(variants)[1:]
    try:
        for i, op in enumerate(exact):
            turn = i % len(rest)
            for name in ["plain"] + rest[turn:] + rest[:turn]:
                variants[name](op)
    finally:
        serial.close()
        for store in stores:
            store.close()
    seq, serial_t, engine_t = timed["seq"], timed["serial"], timed["engine"]
    approx = approx_probe(workload, manager, ops)

    n = len(exact)
    shard_ms = sum(s.ms for s in recorder.by_name("shard"))
    metric_ms = sum(s.ms for s in recorder.by_name("metric"))
    by_kind = {k: [i for i, op in enumerate(exact) if op.kind == k] for k in EXACT_KINDS}
    dist = [st.distance_calls for st in counted.stats]
    seen = sum(st.leaf_points_seen for st in counted.stats)
    plain_search = [sum(t) for t in plain.shards]
    n_live = len(manager)
    return {
        "metric.ms_per_query": metric_ms / n,
        "metric.share": metric_ms / shard_ms if shard_ms else 0.0,
        "metric.calls_per_query": metric.calls / n,
        "metric.evals_per_call": metric.evals / max(1, metric.calls),
        "indexes.range_ms": _ms([plain_search[i] for i in by_kind["range"]]),
        "indexes.knn_ms": _ms([plain_search[i] for i in by_kind["knn"]]),
        "indexes.traversal_ms": (shard_ms - metric_ms) / n,
        "indexes.dist_range": float(np.mean([dist[i] for i in by_kind["range"]])) if by_kind["range"] else 0.0,
        "indexes.dist_knn": float(np.mean([dist[i] for i in by_kind["knn"]])) if by_kind["knn"] else 0.0,
        "indexes.scanned_frac": float(np.mean(dist)) / n_live,
        "indexes.filtered_frac": sum(st.leaf_points_filtered for st in counted.stats) / max(1, seen),
        "indexes.nodes_per_query": float(np.mean([st.nodes_visited for st in counted.stats])),
        "indexes.hits_per_kdist": 1e3 * sum(counted.answers) / max(1, sum(dist)),
        "indexes.vs_scan_ratio": float(np.mean(timed["brute_plain"])) / float(np.mean(timed["brute"])),
        "obs.stats_overhead": sum(map(sum, counted.shards)) / sum(plain_search),
        "approx.ms_per_query": approx["ms_per_query"],
        "approx.spent_per_query": approx["spent_per_query"],
        "approx.bound_gap": approx["bound_gap"],
        "sharding.shard_skew": float(np.mean([max(t) / np.mean(t) for t in plain.shards])),
        "sharding.merge_ms": _ms(plain.merge),
        "engine.overhead_ms": (float(np.mean(serial_t)) - float(np.mean(seq))) * 1e3,
        "engine.parallel_eff": float(np.mean(plain_search)) / (float(np.mean(engine_t)) * workload.workers),
        "procpool.roundtrip_ms": _ms([e - max(s) for e, s in zip(engine_t, plain.shards)]),
        "trace.overhead": sum(traced.total) / sum(plain.total),
    }
