"""Differential checking: every index against an independent oracle.

The oracle is a direct ``batch_distance`` scan — deliberately *not*
:class:`~repro.indexes.linear.LinearScan`, so the LinearScan cases are
themselves checked against an independent implementation.  Every query
of a case is verified three ways:

* **answers**: range ids and k-NN ``(distance, id)`` lists must match
  the oracle exactly (the paper's section 4.3 claim: triangle-inequality
  pruning never discards a true answer);
* **cost accounting**: ``stats.distance_calls`` must equal the wrapped
  :class:`~repro.metric.CountingMetric` delta for the same search (plus
  ``distance_cache_hits`` when a serving distance cache is in play);
* **observability invariants**: ``leaf_points_seen == scanned +
  filtered``, ``nodes_visited == internal + leaf``, and the prune
  breakdown must be consistent with the point-filter counters.

Sharded cases run their batch through a concurrent
:class:`~repro.serve.engine.QueryEngine` (threaded pool, optional
result/distance caches) and additionally check the manager's
sequential answers, so both serving paths stay oracle-exact.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.approx import approx_knn_search, approx_range_search
from repro.core.dynamic import DynamicMVPTree
from repro.core.gmvptree import GMVPTree
from repro.core.mvptree import MVPTree
from repro.fuzz.cases import (
    STORE_FAMILIES,
    ConcreteCase,
    ConcreteQuery,
    make_metric,
    materialize_objects,
)
from repro.indexes.base import MetricIndex, Neighbor
from repro.indexes.bktree import BKTree
from repro.indexes.distance_matrix import DistanceMatrixIndex
from repro.indexes.ghtree import GHTree
from repro.indexes.gnat import GNAT
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.indexes.vptree import VPTree
from repro.metric.base import CountingMetric, Metric
from repro.obs.stats import QueryStats
from repro.serve.cache import DistanceCacheMetric
from repro.serve.engine import Query, QueryEngine, ShardFailure
from repro.serve.sharding import ShardManager
from repro.store import append_delta, open_index, write_store
from repro.transforms.filter import TransformIndex
from repro.transforms.fourier import DFTTransform

#: Distance comparison tolerance: index and oracle evaluate the same
#: metric on the same operands, but possibly through the scalar vs the
#: vectorised path, so allow float noise well below any real distance.
DISTANCE_RTOL = 1e-9
DISTANCE_ATOL = 1e-12

#: Prune kinds that only ever arrive via point-granularity
#: ``filter_points`` events (so they must sum into
#: ``leaf_points_filtered``); ``knn-radius`` is mixed-granularity and
#: is handled as an upper-bound allowance instead.
_POINT_ONLY_KINDS = (
    "path-filter",
    "pivot-filter",
    "matrix-interval",
    "transform-filter",
)

#: Mixed-granularity prune kinds from the approximate tier: emitted for
#: whole stranded subtrees (``prune``) *and* for skipped leaf
#: candidates (``filter_points``), so — like ``knn-radius`` — they
#: widen the upper allowance of the prune-consistency check without
#: being required to sum into ``leaf_points_filtered``.
_MIXED_KINDS = ("knn-radius", "lower-bound", "budget-exhausted")


@dataclass(frozen=True)
class Discrepancy:
    """One verified divergence between an index and its specification."""

    case: str
    check: str                      # e.g. "range-differential"
    query_index: Optional[int]
    detail: str

    def format(self) -> str:
        where = "" if self.query_index is None else f" q{self.query_index}"
        return f"{self.case}{where} [{self.check}] {self.detail}"


# ----------------------------------------------------------------------
# Case materialisation
# ----------------------------------------------------------------------


def query_object(case: ConcreteCase, query: ConcreteQuery):
    """The runtime query object for a concrete query."""
    if case.object_kind == "vectors":
        return np.asarray(query.query, dtype=float)
    return query.query


def live_ids(case: ConcreteCase) -> set:
    """Ids excluded from answers (dynamic-tree deletions)."""
    return set(int(i) for i in case.deleted)


def _build_store_backed(
    case: ConcreteCase, objects, metric: Metric
) -> MetricIndex:
    """Round-trip the case's index through an on-disk ``.rsx`` store.

    The base prefix of the dataset is built in memory, written with
    :func:`repro.store.write_store`, the tail (``case.store_delta``
    rows) appended as a delta batch with explicit global ids, and the
    result reopened as a :class:`~repro.store.StoreBackedIndex`.  Local
    ids equal dataset positions by construction, so the oracle needs no
    remapping.  The temp directory is removed before returning: the
    mmap keeps the base pages valid and deltas are read eagerly.

    Mutually recursive with :func:`build_case_index`, with recursion
    depth bounded at one level: the inner build runs on a case with
    ``store_backed=False``.
    """
    n = len(objects)
    n_delta = min(case.store_delta, max(0, n - 1))
    n_base = n - n_delta
    inner = build_case_index(
        replace(case, store_backed=False), objects[:n_base], metric
    )
    tmp = tempfile.mkdtemp(prefix="repro-fuzz-store-")
    try:
        path = os.path.join(tmp, "case.rsx")
        write_store(inner, path)
        if n_delta:
            append_delta(
                path, objects[n_base:], ids=list(range(n_base, n))
            )
        return open_index(path, metric)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def build_case_index(
    case: ConcreteCase, objects, metric: Metric
) -> MetricIndex:
    """Build the case's index (for ``sharded``: the ShardManager).

    Store-backed cases recurse through :func:`_build_store_backed`,
    with recursion depth bounded at one level (the inner case clears
    ``store_backed``).
    """
    name, params, seed = case.index, dict(case.index_params), case.index_seed
    n = len(objects)
    if case.store_backed and name in STORE_FAMILIES:
        return _build_store_backed(case, objects, metric)
    if name == "linear":
        return LinearScan(objects, metric)
    if name == "vpt":
        return VPTree(objects, metric, rng=seed, **params)
    if name == "mvpt":
        return MVPTree(objects, metric, rng=seed, **params)
    if name == "gmvpt":
        return GMVPTree(objects, metric, rng=seed, **params)
    if name == "dynamic":
        prefix = case.build_prefix if case.build_prefix is not None else n
        prefix = max(1, min(prefix, n))
        tree = DynamicMVPTree(
            [objects[i] for i in range(prefix)], metric, rng=seed, **params
        )
        for i in range(prefix, n):
            tree.insert(objects[i])
        for idx in case.deleted:
            tree.delete(int(idx))
        return tree
    if name == "ght":
        return GHTree(objects, metric, rng=seed, **params)
    if name == "gnat":
        return GNAT(objects, metric, rng=seed, **params)
    if name == "laesa":
        params["n_pivots"] = max(1, min(params.get("n_pivots", 8), n))
        return LAESA(objects, metric, rng=seed, **params)
    if name == "matrix":
        return DistanceMatrixIndex(objects, metric)
    if name == "bkt":
        return BKTree(list(objects), metric)
    if name == "transform":
        length = int(np.asarray(objects).shape[1])
        coeffs = max(1, min(params.get("n_coefficients", 2), length // 2 + 1))
        return TransformIndex(
            objects, metric, DFTTransform(coeffs, series_length=length)
        )
    if name == "sharded":
        return ShardManager(
            objects,
            metric,
            n_shards=params.get("n_shards", 2),
            backend=params.get("backend", "vpt"),
            assignment=params.get("assignment", "round-robin"),
            replication_factor=params.get("replication_factor", 1),
            rng=seed,
        )
    raise ValueError(f"unknown fuzz index {name!r}")


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


def oracle_distances(objects, metric: Metric, query) -> np.ndarray:
    """Every object's distance from the query, by direct evaluation."""
    return np.asarray(
        # repro-check: ignore[RC001] this IS the oracle
        metric.batch_distance(objects, query)
    )


def oracle_range(distances: np.ndarray, radius: float, deleted: set) -> list[int]:
    """Ids within ``radius``, ascending, deletions excluded."""
    return [
        int(i)
        for i in np.nonzero(distances <= radius)[0]
        if int(i) not in deleted
    ]


def oracle_knn(distances: np.ndarray, k: int, deleted: set) -> list[Neighbor]:
    """Top-``k`` by ``(distance, id)``, deletions excluded."""
    order = np.argsort(distances, kind="stable")
    out: list[Neighbor] = []
    for i in order:
        if int(i) in deleted:
            continue
        out.append(Neighbor(float(distances[i]), int(i)))
        if len(out) == k:
            break
    return out


# ----------------------------------------------------------------------
# Comparison + invariant helpers
# ----------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return bool(np.isclose(a, b, rtol=DISTANCE_RTOL, atol=DISTANCE_ATOL))


def compare_range(got: list[int], want: list[int]) -> Optional[str]:
    """None when equal; otherwise a human-readable diff summary."""
    if list(got) == list(want):
        return None
    got_set, want_set = set(got), set(want)
    missing = sorted(want_set - got_set)
    extra = sorted(got_set - want_set)
    if missing or extra:
        return f"missing={missing} extra={extra}"
    return f"order differs: got {list(got)}, want {list(want)}"


def compare_knn(got: list[Neighbor], want: list[Neighbor]) -> Optional[str]:
    """None when equal as ``(distance, id)`` lists; else a diff summary."""
    if [n.id for n in got] != [n.id for n in want]:
        return (
            f"ids differ: got {[n.id for n in got]}, "
            f"want {[n.id for n in want]}"
        )
    for position, (a, b) in enumerate(zip(got, want)):
        if not _close(a.distance, b.distance):
            return (
                f"distance differs at position {position} (id {a.id}): "
                f"got {a.distance!r}, want {b.distance!r}"
            )
    return None


def stats_invariants(
    case_name: str,
    stats: QueryStats,
    query_index: Optional[int],
) -> list[Discrepancy]:
    """The observability identities every search must satisfy."""
    out: list[Discrepancy] = []
    if stats.leaf_points_seen != stats.leaf_points_scanned + stats.leaf_points_filtered:
        out.append(
            Discrepancy(
                case_name,
                "leaf-identity",
                query_index,
                f"seen={stats.leaf_points_seen} != scanned="
                f"{stats.leaf_points_scanned} + filtered="
                f"{stats.leaf_points_filtered}",
            )
        )
    if stats.nodes_visited != stats.internal_visited + stats.leaf_visited:
        out.append(
            Discrepancy(
                case_name,
                "node-identity",
                query_index,
                f"nodes={stats.nodes_visited} != internal="
                f"{stats.internal_visited} + leaf={stats.leaf_visited}",
            )
        )
    point_sum = sum(
        count
        for kind, count in stats.prunes.items()
        if kind.startswith("leaf-d") or kind in _POINT_ONLY_KINDS
    )
    mixed = sum(stats.prunes.get(kind, 0) for kind in _MIXED_KINDS)
    if not (point_sum <= stats.leaf_points_filtered <= point_sum + mixed):
        out.append(
            Discrepancy(
                case_name,
                "prune-consistency",
                query_index,
                f"point-kind prunes={point_sum} (+mixed {mixed}) "
                f"inconsistent with leaf_points_filtered="
                f"{stats.leaf_points_filtered}: {dict(stats.prunes)}",
            )
        )
    return out


# ----------------------------------------------------------------------
# Differential check
# ----------------------------------------------------------------------


def _check_one_query(
    case: ConcreteCase,
    index: MetricIndex,
    counting: CountingMetric,
    oracle_metric: Metric,
    objects,
    qi: int,
    query: ConcreteQuery,
    *,
    distance_cache: Optional[DistanceCacheMetric] = None,
) -> list[Discrepancy]:
    out: list[Discrepancy] = []
    deleted = live_ids(case)
    q_obj = query_object(case, query)
    distances = oracle_distances(objects, oracle_metric, q_obj)
    stats = QueryStats()
    observe = (
        distance_cache.observe(stats)
        if distance_cache is not None
        else contextlib.nullcontext()
    )
    before = counting.count
    with observe:
        if query.kind == "range":
            got_ids = index.range_search(q_obj, query.radius, stats=stats)
        else:
            got_knn = index.knn_search(q_obj, query.k, stats=stats)
    delta = counting.count - before

    if query.kind == "range":
        want_ids = oracle_range(distances, query.radius, deleted)
        diff = compare_range(got_ids, want_ids)
        if diff:
            out.append(
                Discrepancy(
                    case.name,
                    "range-differential",
                    qi,
                    f"{case.index} r={query.radius!r}: {diff}",
                )
            )
    else:
        k_eff = min(query.k, len(objects) - len(deleted))
        want_knn = oracle_knn(distances, k_eff, deleted)
        diff = compare_knn(got_knn, want_knn)
        if diff:
            out.append(
                Discrepancy(
                    case.name,
                    "knn-differential",
                    qi,
                    f"{case.index} k={query.k}: {diff}",
                )
            )

    expected_calls = delta + stats.distance_cache_hits
    if stats.distance_calls != expected_calls:
        out.append(
            Discrepancy(
                case.name,
                "stats-identity",
                qi,
                f"stats.distance_calls={stats.distance_calls} but "
                f"CountingMetric delta={delta} + cache hits="
                f"{stats.distance_cache_hits}",
            )
        )
    out.extend(stats_invariants(case.name, stats, qi))

    if query.budget is not None or query.epsilon > 0.0:
        exact_answer = got_ids if query.kind == "range" else got_knn
        out.extend(
            _check_approx_query(
                case,
                index,
                counting,
                qi,
                query,
                q_obj,
                distances,
                deleted,
                exact_answer,
                distance_cache=distance_cache,
            )
        )
    return out


def _check_approx_query(
    case: ConcreteCase,
    index: MetricIndex,
    counting: CountingMetric,
    qi: int,
    query: ConcreteQuery,
    q_obj,
    distances: np.ndarray,
    deleted: set,
    exact_answer,
    *,
    distance_cache: Optional[DistanceCacheMetric] = None,
) -> list[Discrepancy]:
    """The approximate tier's three oracle guarantees for one query.

    (a) the certificate's ``recall_lower_bound`` never exceeds the true
    recall against the exact oracle; (b) the spend never exceeds the
    budget — verified against the wrapped CountingMetric, not the
    index's own accounting; (c) ``budget=None``/``epsilon=0`` through
    the same entry point reproduces the exact answer byte for byte.
    """
    out: list[Discrepancy] = []
    label = f"budget={query.budget} eps={query.epsilon}"
    astats = QueryStats()
    observe = (
        distance_cache.observe(astats)
        if distance_cache is not None
        else contextlib.nullcontext()
    )
    before = counting.count
    with observe:
        if query.kind == "range":
            got, report = approx_range_search(
                index,
                q_obj,
                query.radius,
                budget=query.budget,
                epsilon=query.epsilon,
                stats=astats,
            )
        else:
            got, report = approx_knn_search(
                index,
                q_obj,
                query.k,
                budget=query.budget,
                epsilon=query.epsilon,
                stats=astats,
            )
    delta = counting.count - before

    if query.budget is not None and astats.distance_calls > query.budget:
        out.append(
            Discrepancy(
                case.name,
                "approx-budget",
                qi,
                f"{case.index} {label}: spent {astats.distance_calls} "
                f"distance calls over a budget of {query.budget}",
            )
        )
    expected_calls = delta + astats.distance_cache_hits
    if astats.distance_calls != expected_calls:
        out.append(
            Discrepancy(
                case.name,
                "stats-identity",
                qi,
                f"approx {label}: stats.distance_calls="
                f"{astats.distance_calls} but CountingMetric delta="
                f"{delta} + cache hits={astats.distance_cache_hits}",
            )
        )
    if report.spent != astats.distance_calls:
        out.append(
            Discrepancy(
                case.name,
                "approx-spent",
                qi,
                f"{label}: report.spent={report.spent} != "
                f"distance_calls={astats.distance_calls}",
            )
        )

    if query.kind == "range":
        truth = set(oracle_range(distances, query.radius, deleted))
        got_set = {int(i) for i in got}
        false_hits = sorted(got_set - truth)
        if false_hits:
            out.append(
                Discrepancy(
                    case.name,
                    "approx-false-hit",
                    qi,
                    f"{label}: returned non-answers {false_hits}",
                )
            )
        true_recall = (len(got_set & truth) / len(truth)) if truth else 1.0
    else:
        k_eff = min(query.k, len(distances) - len(deleted))
        truth_ids = {n.id for n in oracle_knn(distances, k_eff, deleted)}
        result_ids = [n.id for n in got]
        true_recall = sum(
            1 for i in result_ids if i in truth_ids
        ) / max(1, k_eff)
        unsound = [
            i
            for i, flag in zip(result_ids, report.sound)
            if flag and i not in truth_ids
        ]
        if unsound:
            out.append(
                Discrepancy(
                    case.name,
                    "approx-sound",
                    qi,
                    f"{label}: results {unsound} certified sound but "
                    f"outside the true top-{k_eff}",
                )
            )
    if report.recall_lower_bound > true_recall + 1e-9:
        out.append(
            Discrepancy(
                case.name,
                "approx-recall-bound",
                qi,
                f"{label}: reported lower bound "
                f"{report.recall_lower_bound} exceeds the true recall "
                f"{true_recall}",
            )
        )
    out.extend(stats_invariants(case.name, astats, qi))

    # (c) the exact limit: the budgeted entry point with no budget and
    # no slack must reproduce the already-verified exact answer.
    with (
        distance_cache.observe(QueryStats())
        if distance_cache is not None
        else contextlib.nullcontext()
    ):
        if query.kind == "range":
            unlimited, exact_report = approx_range_search(
                index, q_obj, query.radius
            )
            same = list(unlimited) == list(exact_answer)
        else:
            unlimited, exact_report = approx_knn_search(
                index, q_obj, query.k
            )
            same = [(n.distance, n.id) for n in unlimited] == [
                (n.distance, n.id) for n in exact_answer
            ]
    if not same:
        out.append(
            Discrepancy(
                case.name,
                "approx-exact-limit",
                qi,
                f"budget=None eps=0 diverges from the exact search: "
                f"got {unlimited!r}, want {exact_answer!r}",
            )
        )
    if not exact_report.exact:
        out.append(
            Discrepancy(
                case.name,
                "approx-exact-limit",
                qi,
                f"unlimited search produced a non-exact certificate: "
                f"{exact_report!r}",
            )
        )
    return out


#: Certificate fields that must merge identically on the concurrent
#: engine and the sequential manager path.
_REPORT_FIELDS = (
    "spent",
    "exhausted",
    "possible_missed",
    "min_missed_lb",
    "sound",
    "recall_lower_bound",
)


def _check_engine_approx(
    case: ConcreteCase,
    manager: ShardManager,
    qi: int,
    query: ConcreteQuery,
    request: Query,
    result,
    fault_replica: Optional[int],
) -> list[Discrepancy]:
    """Engine's budgeted answer == the sequential budgeted answer.

    Replicas are distinct builds (they consume a shared rng), so with a
    fuzzed dead-replica row the engine's failover answers from the
    first *surviving* replica; mirror that pick explicitly — the
    manager's own sequential path always lands on replica 0, which a
    budget-cut traversal is allowed to answer differently.
    """
    from repro.approx import merge_reports
    from repro.serve.sharding import merge_knn, merge_range, unit_query

    out: list[Discrepancy] = []
    replica = None
    if fault_replica is not None:
        replica = 1 if fault_replica == 0 else 0
    values = []
    reports = []
    for shard in range(manager.n_shards):
        value, report = manager.shard_search(
            shard, unit_query(request, shard, manager.n_shards), replica=replica
        )
        values.append(value)
        reports.append(report)
    knn = query.kind == "knn"
    k_eff = min(query.k, len(manager)) if knn else None
    want_value = merge_knn(values, k_eff) if knn else merge_range(values)
    want_report = merge_reports(
        query.kind, reports, want_value,
        budget=query.budget, epsilon=query.epsilon, target=k_eff,
    )
    diff = (compare_knn if knn else compare_range)(result.value, want_value)
    if diff:
        out.append(
            Discrepancy(
                case.name,
                "approx-engine-parity",
                qi,
                f"engine {query.kind} budget={query.budget} "
                f"eps={query.epsilon}: {diff}",
            )
        )
    if result.approx is None:
        out.append(
            Discrepancy(
                case.name,
                "approx-engine-parity",
                qi,
                "approximate engine result is missing its certificate",
            )
        )
        return out
    for field_name in _REPORT_FIELDS:
        got_field = getattr(result.approx, field_name)
        want_field = getattr(want_report, field_name)
        if got_field != want_field:
            out.append(
                Discrepancy(
                    case.name,
                    "approx-engine-parity",
                    qi,
                    f"certificate {field_name}: engine {got_field!r} != "
                    f"sequential {want_field!r}",
                )
            )
    return out


def _apply_mutations(case: ConcreteCase, manager, objects):
    """Run the case's mutation script; returns (live gids, live rows).

    Delete draws resolve against the sorted live gids at each step
    (never below 2 live points), exactly mirroring how the script was
    meant at generation time regardless of dataset shrinking.
    """
    live = dict(enumerate(np.asarray(objects, dtype=float).tolist()))
    for op, arg in case.mutations:
        if op == "insert":
            gid = manager.insert(np.asarray(arg, dtype=float))
            live[gid] = list(arg)
        elif len(live) > 2:
            gids = sorted(live)
            gid = gids[int(arg) % len(gids)]
            manager.delete(gid)
            del live[gid]
    gids = sorted(live)
    return gids, np.asarray([live[g] for g in gids], dtype=float)


def _check_sharded(case: ConcreteCase, objects) -> list[Discrepancy]:
    """Engine batch + sequential manager answers for a sharded case."""
    out: list[Discrepancy] = []
    params = case.index_params
    oracle_metric = make_metric(case.metric, case.metric_scale)
    counting = CountingMetric(make_metric(case.metric, case.metric_scale))
    cache = (
        DistanceCacheMetric(counting) if params.get("distance_cache") else None
    )
    manager = build_case_index(
        case, objects, cache if cache is not None else counting
    )
    live_gids: Optional[list[int]] = None
    if case.mutations:
        live_gids, live_rows = _apply_mutations(case, manager, objects)
    counting.reset()

    engine_queries = []
    for query in case.queries:
        q_obj = query_object(case, query)
        if query.kind == "range":
            engine_queries.append(
                Query.range(
                    q_obj,
                    query.radius,
                    budget=query.budget,
                    epsilon=query.epsilon,
                )
            )
        else:
            engine_queries.append(
                Query.knn(
                    q_obj,
                    query.k,
                    budget=query.budget,
                    epsilon=query.epsilon,
                )
            )

    fault_replica = params.get("fault_replica")
    fault_hook = None
    if fault_replica is not None:

        def fault_hook(qi: int, shard: int, attempt: int, replica: int) -> None:
            # One replica row is dead for the whole batch; the sibling
            # replicas must keep every answer exact and non-degraded
            # (the existing engine-degraded check enforces that).
            if replica == fault_replica:
                raise ShardFailure(f"fuzz: replica {replica} down")

    executor = params.get("executor", "thread")
    before = counting.count
    with QueryEngine(
        manager,
        executor=executor,
        workers=params.get("workers", 2),
        result_cache_size=params.get("result_cache_size", 0),
        distance_cache=cache,
        fault_hook=fault_hook,
        sleep=lambda _s: None,
    ) as engine:
        batch = engine.run_batch(engine_queries)
    delta = counting.count - before

    if executor == "process":
        # Forked workers charge their own copy of the counter, so the
        # parent delta stays ~0 and the counter identity is vacuous.
        # The workers' stats come back by value instead: they must be
        # non-trivial (searches really ran) and every structural
        # invariant plus the answer differential below still applies.
        if batch.stats.distance_calls <= 0:
            out.append(
                Discrepancy(
                    case.name,
                    "stats-identity",
                    None,
                    "process-pool batch reported zero distance_calls",
                )
            )
    else:
        expected = delta + batch.stats.distance_cache_hits
        if batch.stats.distance_calls != expected:
            out.append(
                Discrepancy(
                    case.name,
                    "stats-identity",
                    None,
                    f"engine batch distance_calls={batch.stats.distance_calls} "
                    f"but CountingMetric delta={delta} + cache hits="
                    f"{batch.stats.distance_cache_hits}",
                )
            )

    deleted = live_ids(case)
    for qi, (query, result) in enumerate(zip(case.queries, batch.results)):
        if result.degraded:
            out.append(
                Discrepancy(
                    case.name,
                    "engine-degraded",
                    qi,
                    f"degraded without faults: failed={result.shards_failed} "
                    f"timed_out={result.shards_timed_out}",
                )
            )
            continue
        q_obj = query_object(case, query)
        if query.budget is not None or query.epsilon > 0.0:
            # An approximate engine answer is compared against the
            # sequential budgeted path (same deterministic budget
            # split, same replica the failover would land on) — the
            # oracle differential would reject legitimately missed
            # answers.  Truth-facing soundness of the certificate is
            # checked on the sequential surface below.
            out.extend(
                _check_engine_approx(
                    case, manager, qi, query, engine_queries[qi], result,
                    fault_replica,
                )
            )
            out.extend(stats_invariants(case.name, result.stats, qi))
            continue
        if live_gids is not None:
            distances = oracle_distances(live_rows, oracle_metric, q_obj)
            if query.kind == "range":
                want = [
                    live_gids[i]
                    for i in oracle_range(distances, query.radius, set())
                ]
                diff = compare_range(result.ids, want)
                check = "range-differential"
            else:
                k_eff = min(query.k, len(live_gids))
                want_knn = [
                    Neighbor(nb.distance, int(live_gids[nb.id]))
                    for nb in oracle_knn(distances, k_eff, set())
                ]
                diff = compare_knn(result.neighbors, want_knn)
                check = "knn-differential"
        else:
            distances = oracle_distances(objects, oracle_metric, q_obj)
            if query.kind == "range":
                want = oracle_range(distances, query.radius, deleted)
                diff = compare_range(result.ids, want)
                check = "range-differential"
            else:
                k_eff = min(query.k, len(objects))
                want_knn = oracle_knn(distances, k_eff, deleted)
                diff = compare_knn(result.neighbors, want_knn)
                check = "knn-differential"
        if diff:
            out.append(
                Discrepancy(
                    case.name, check, qi, f"engine {query.kind}: {diff}"
                )
            )
        out.extend(stats_invariants(case.name, result.stats, qi))

    if live_gids is not None:
        # Post-mutation cases: the sequential surface is held to the
        # same membership oracle (the unmutated cost-accounting
        # identities of _check_one_query assume a static dataset).
        for qi, query in enumerate(case.queries):
            q_obj = query_object(case, query)
            distances = oracle_distances(live_rows, oracle_metric, q_obj)
            if query.kind == "range":
                got_ids = manager.range_search(q_obj, query.radius)
                want = [
                    live_gids[i]
                    for i in oracle_range(distances, query.radius, set())
                ]
                diff = compare_range(got_ids, want)
                check = "range-differential"
            else:
                k_eff = min(query.k, len(live_gids))
                got_knn = manager.knn_search(q_obj, k_eff)
                want_knn = [
                    Neighbor(nb.distance, int(live_gids[nb.id]))
                    for nb in oracle_knn(distances, k_eff, set())
                ]
                diff = compare_knn(got_knn, want_knn)
                check = "knn-differential"
            if diff:
                out.append(
                    Discrepancy(
                        case.name,
                        check,
                        qi,
                        f"sequential post-mutation {query.kind}: {diff}",
                    )
                )
        return out

    # The sequential ShardManager surface must agree with the oracle too
    # (and with its own cost accounting, distance cache included).
    for qi, query in enumerate(case.queries):
        out.extend(
            _check_one_query(
                case,
                manager,
                counting,
                oracle_metric,
                objects,
                qi,
                query,
                distance_cache=cache,
            )
        )
    return out


def check_differential(case: ConcreteCase) -> list[Discrepancy]:
    """Run every query of a case against the oracle and the invariants."""
    objects = materialize_objects(case)
    if case.index == "sharded":
        return _check_sharded(case, objects)
    oracle_metric = make_metric(case.metric, case.metric_scale)
    counting = CountingMetric(make_metric(case.metric, case.metric_scale))
    index = build_case_index(case, objects, counting)
    counting.reset()
    out: list[Discrepancy] = []
    for qi, query in enumerate(case.queries):
        out.extend(
            _check_one_query(
                case, index, counting, oracle_metric, objects, qi, query
            )
        )
    return out
