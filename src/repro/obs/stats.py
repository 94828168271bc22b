"""Per-query cost accounting (the paper's section 5 cost model, itemised).

The paper's sole cost metric is the *number of distance computations
per query*; :class:`~repro.metric.base.CountingMetric` reports that raw
count.  :class:`QueryStats` breaks the same number down by *where the
savings come from*: which triangle-inequality bound pruned (section
4.3), how many nodes were visited, and how many leaf points the
precomputed-distance filters eliminated without a single metric
evaluation — the mvp-vs-vp story the paper tells in prose, made
measurable per query.

Pass a fresh ``QueryStats`` to any index's ``range_search`` /
``knn_search`` via the ``stats=`` keyword; counters accumulate, so the
same object can also aggregate a whole query batch::

    stats = QueryStats()
    hits = tree.range_search(query, 0.3, stats=stats)
    print(stats.distance_calls, stats.prunes)

Prune events use a small shared vocabulary (the ``PRUNE_*`` constants)
so reports can compare structures column-by-column:

=====================  ==========  ==========================================
kind                   granularity meaning
=====================  ==========  ==========================================
``vp1-shell``          child       first vantage point's spherical shell
                       subtrees    missed the query ball: one event per
                                   pruned child of an mvp/gmvp node in a
                                   range search, booked to the
                                   lowest-numbered shell that excludes it;
                                   ``vpN-shell`` for the N-th vantage
                                   point
``vp2-shell``          child       second vantage point's shell missed
                       subtrees    (and the first did not)
``vp-shell``           subtrees    vp-tree shell (its single vantage point)
                                   in a range search
``hyperplane``         subtrees    gh-tree generalized-hyperplane rule
``covering-radius``    subtrees    gh-tree covering-ball rule
``range-table``        subtrees    GNAT pairwise range table eliminated a
                                   split point's dataset
``edge-interval``      subtrees    BK-tree discrete edge outside
                                   ``[d - r, d + r]``
``knn-radius``         subtrees/   k-NN radius shrink: a frontier entry or
                       points      leaf point proven farther than the k-th
                                   best (the VP/MVP/GMVP trees book every
                                   k-NN prune here, whichever shell, D_t
                                   or PATH bound decided it)
``lower-bound``        subtrees/   the budgeted range frontier's fused
                       points      section 4.3 lower bound (max over
                                   shell/leaf/PATH components) proved a
                                   frontier entry or leaf point out of
                                   range, or an epsilon-scaled bound
                                   dropped it
``budget-exhausted``   subtrees/   the distance-computation budget ran
                       points      out before this subtree or leaf point
                                   could be paid for (approximate search
                                   only; contributes to the reported
                                   possible-miss mass)
``leaf-d1``            points      leaf D1 array (distance to leaf vp1)
                                   proved the point out of range
``leaf-d2``            points      leaf D2 array proved it out of range
``path-filter``        points      an ancestor PATH distance (section 4.1,
                                   Observation 2) proved it out of range
``pivot-filter``       points      LAESA pivot-table lower bound
``matrix-interval``    points      distance-matrix interval estimation
                                   decided the point without computing
``transform-filter``   points      a contractive transform's lower bound
                                   (section 3.1 filter-and-refine)
=====================  ==========  ==========================================

Subtree-granularity kinds count *prune decisions* (each decision skips a
whole child subtree); point-granularity kinds count *individual data
points* eliminated inside a leaf (or flat table).  Point-granularity
events also accumulate into :attr:`QueryStats.leaf_points_filtered`, so

    ``leaf_points_seen == leaf_points_scanned + leaf_points_filtered``

holds for every query on every structure (tested by the observability
property suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# --- subtree-granularity prune kinds ---------------------------------------
PRUNE_VP1_SHELL = "vp1-shell"
PRUNE_VP2_SHELL = "vp2-shell"
PRUNE_VP_SHELL = "vp-shell"
PRUNE_HYPERPLANE = "hyperplane"
PRUNE_COVERING_RADIUS = "covering-radius"
PRUNE_RANGE_TABLE = "range-table"
PRUNE_EDGE_INTERVAL = "edge-interval"
PRUNE_KNN_RADIUS = "knn-radius"

# --- mixed-granularity prune kinds (approximate search) ---------------------
PRUNE_LOWER_BOUND = "lower-bound"
PRUNE_BUDGET = "budget-exhausted"

# --- point-granularity prune kinds -----------------------------------------
PRUNE_LEAF_D1 = "leaf-d1"
PRUNE_LEAF_D2 = "leaf-d2"
PRUNE_PATH_FILTER = "path-filter"
PRUNE_PIVOT_FILTER = "pivot-filter"
PRUNE_MATRIX_INTERVAL = "matrix-interval"
PRUNE_TRANSFORM_FILTER = "transform-filter"


# --- per-shard completion outcomes (serving engine) -------------------------
SHARD_OK = "ok"
SHARD_DOWNGRADED = "downgraded"
SHARD_TIMEOUT = "timeout"
SHARD_FAILED = "failed"

#: Severity order for merging shard outcomes: the worst observation wins.
_SHARD_OUTCOME_RANK = {
    SHARD_OK: 0,
    SHARD_DOWNGRADED: 1,
    SHARD_TIMEOUT: 2,
    SHARD_FAILED: 3,
}


def vp_shell_kind(position: int) -> str:
    """Prune kind for the ``position``-th vantage point of a node (0-based).

    ``vp_shell_kind(0) == PRUNE_VP1_SHELL``; GMVPTree nodes with ``v > 2``
    vantage points extend the series (``vp3-shell``, ``vp4-shell``, ...).
    """
    return f"vp{position + 1}-shell"


def leaf_dist_kind(position: int) -> str:
    """Prune kind for a leaf's ``position``-th precomputed-distance array."""
    return f"leaf-d{position + 1}"


@dataclass
class QueryStats:
    """Per-query observability counters (see the module docstring).

    Attributes
    ----------
    distance_calls:
        Metric evaluations made by the search — matches the delta a
        :class:`~repro.metric.base.CountingMetric` would report for the
        same call.
    nodes_visited:
        Nodes entered (``internal_visited + leaf_visited``).  Flat
        structures (LAESA, LinearScan, DistanceMatrixIndex) have no
        nodes and leave these at zero.
    internal_visited, leaf_visited:
        The internal/leaf split of ``nodes_visited``.  Every BK-tree
        node counts as internal (the structure has no leaf buckets).
    leaf_points_seen:
        Data points held by the leaves (or flat tables) the search
        reached — each was either filtered for free or paid for.
    leaf_points_scanned:
        Points whose real distance was computed.
    leaf_points_filtered:
        Points eliminated by precomputed distances alone; always
        ``leaf_points_seen - leaf_points_scanned``.
    prunes:
        Per-bound breakdown of prune events, keyed by the ``PRUNE_*``
        vocabulary.
    result_cache_hits, result_cache_misses:
        Whole-answer LRU cache outcomes recorded by the serving engine
        (:mod:`repro.serve`); both stay zero outside it.  A hit answers
        the query with zero distance computations.
    distance_cache_hits, distance_cache_misses:
        Scalar evaluations served from / added to a
        :class:`~repro.serve.cache.DistanceCacheMetric` during this
        query.  On a cache hit the index still charges
        ``distance_calls`` (the *request* was made) while the wrapped
        ``CountingMetric`` only sees the miss, so under a distance
        cache ``distance_calls == CountingMetric delta +
        distance_cache_hits`` (tested by the serve suite).
    retries, backoff_total_s:
        Re-submission rounds the serving engine ran for this query's
        units after failures, and the total backoff delay (capped
        exponential with deterministic jitter) spent before them.
    failovers:
        Units the engine completed on a non-preferred replica after the
        preferred one failed or was breaker-rejected — the answer is
        still exact, the counter records that redundancy paid for it.
    breaker_rejections:
        Replica attempts skipped because the replica's circuit breaker
        was open (see :mod:`repro.resilience.breaker`); both stay zero
        outside the serving engine.
    shard_outcomes:
        Per-shard completion flags recorded by the serving engine:
        shard number -> one of ``"ok"``, ``"downgraded"`` (deadline miss
        answered by a budgeted approximate pass), ``"timeout"``, or
        ``"failed"``.  A degraded answer names exactly which shards did
        not contribute; empty outside the serving engine.  Merging two
        stats objects keeps the worst outcome per shard.
    """

    distance_calls: int = 0
    nodes_visited: int = 0
    internal_visited: int = 0
    leaf_visited: int = 0
    leaf_points_seen: int = 0
    leaf_points_scanned: int = 0
    leaf_points_filtered: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    distance_cache_hits: int = 0
    distance_cache_misses: int = 0
    retries: int = 0
    backoff_total_s: float = 0.0
    failovers: int = 0
    breaker_rejections: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    shard_outcomes: dict[int, str] = field(default_factory=dict)

    @property
    def prunes_total(self) -> int:
        """Total prune events across every bound kind."""
        return sum(self.prunes.values())

    def record_prune(self, kind: str, count: int = 1) -> None:
        """Add ``count`` prune events of the given bound ``kind``."""
        self.prunes[kind] = self.prunes.get(kind, 0) + count

    def reset(self) -> "QueryStats":
        """Zero every counter in place and return ``self``."""
        self.distance_calls = 0
        self.nodes_visited = 0
        self.internal_visited = 0
        self.leaf_visited = 0
        self.leaf_points_seen = 0
        self.leaf_points_scanned = 0
        self.leaf_points_filtered = 0
        self.result_cache_hits = 0
        self.result_cache_misses = 0
        self.distance_cache_hits = 0
        self.distance_cache_misses = 0
        self.retries = 0
        self.backoff_total_s = 0.0
        self.failovers = 0
        self.breaker_rejections = 0
        self.prunes = {}
        self.shard_outcomes = {}
        return self

    def record_shard_outcome(self, shard: int, outcome: str) -> None:
        """Record a shard's completion flag, keeping the worst outcome."""
        current = self.shard_outcomes.get(shard)
        if current is None or _SHARD_OUTCOME_RANK.get(
            outcome, 0
        ) > _SHARD_OUTCOME_RANK.get(current, 0):
            self.shard_outcomes[shard] = outcome

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate another stats object into this one (in place)."""
        self.distance_calls += other.distance_calls
        self.nodes_visited += other.nodes_visited
        self.internal_visited += other.internal_visited
        self.leaf_visited += other.leaf_visited
        self.leaf_points_seen += other.leaf_points_seen
        self.leaf_points_scanned += other.leaf_points_scanned
        self.leaf_points_filtered += other.leaf_points_filtered
        self.result_cache_hits += other.result_cache_hits
        self.result_cache_misses += other.result_cache_misses
        self.distance_cache_hits += other.distance_cache_hits
        self.distance_cache_misses += other.distance_cache_misses
        self.retries += other.retries
        self.backoff_total_s += other.backoff_total_s
        self.failovers += other.failovers
        self.breaker_rejections += other.breaker_rejections
        for kind, count in other.prunes.items():
            self.prunes[kind] = self.prunes.get(kind, 0) + count
        for shard, outcome in other.shard_outcomes.items():
            self.record_shard_outcome(shard, outcome)
        return self

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of every counter."""
        return {
            "distance_calls": self.distance_calls,
            "nodes_visited": self.nodes_visited,
            "internal_visited": self.internal_visited,
            "leaf_visited": self.leaf_visited,
            "leaf_points_seen": self.leaf_points_seen,
            "leaf_points_scanned": self.leaf_points_scanned,
            "leaf_points_filtered": self.leaf_points_filtered,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "distance_cache_hits": self.distance_cache_hits,
            "distance_cache_misses": self.distance_cache_misses,
            "retries": self.retries,
            "backoff_total_s": self.backoff_total_s,
            "failovers": self.failovers,
            "breaker_rejections": self.breaker_rejections,
            "prunes": dict(self.prunes),
            "shard_outcomes": {
                str(shard): outcome
                for shard, outcome in sorted(self.shard_outcomes.items())
            },
        }


@dataclass(frozen=True)
class StatsSummary:
    """Aggregate of many per-query :class:`QueryStats` (one query set).

    ``distance_calls`` and ``nodes_visited`` carry mean/p50/p95 over the
    batch; the prune breakdown and the leaf-point counters are averaged
    per query (matching the paper's "average distance computations per
    search" convention).
    """

    n_queries: int
    distance_calls_mean: float
    distance_calls_p50: float
    distance_calls_p95: float
    nodes_visited_mean: float
    nodes_visited_p50: float
    nodes_visited_p95: float
    leaf_points_seen_mean: float
    leaf_points_scanned_mean: float
    leaf_points_filtered_mean: float
    prunes_mean: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "distance_calls": {
                "mean": self.distance_calls_mean,
                "p50": self.distance_calls_p50,
                "p95": self.distance_calls_p95,
            },
            "nodes_visited": {
                "mean": self.nodes_visited_mean,
                "p50": self.nodes_visited_p50,
                "p95": self.nodes_visited_p95,
            },
            "leaf_points": {
                "seen_mean": self.leaf_points_seen_mean,
                "scanned_mean": self.leaf_points_scanned_mean,
                "filtered_mean": self.leaf_points_filtered_mean,
            },
            "prunes_mean": dict(self.prunes_mean),
        }


def summarize(stats_batch: Sequence[QueryStats]) -> StatsSummary:
    """Aggregate a batch of per-query stats into a :class:`StatsSummary`.

    >>> batch = [QueryStats(distance_calls=10), QueryStats(distance_calls=30)]
    >>> summarize(batch).distance_calls_mean
    20.0
    """
    if not stats_batch:
        raise ValueError("cannot summarize an empty stats batch")
    calls = np.array([s.distance_calls for s in stats_batch], dtype=float)
    nodes = np.array([s.nodes_visited for s in stats_batch], dtype=float)
    n = len(stats_batch)

    prune_kinds: set[str] = set()
    for stats in stats_batch:
        prune_kinds.update(stats.prunes)
    prunes_mean = {
        kind: sum(s.prunes.get(kind, 0) for s in stats_batch) / n
        for kind in sorted(prune_kinds)
    }

    return StatsSummary(
        n_queries=n,
        distance_calls_mean=float(calls.mean()),
        distance_calls_p50=float(np.percentile(calls, 50)),
        distance_calls_p95=float(np.percentile(calls, 95)),
        nodes_visited_mean=float(nodes.mean()),
        nodes_visited_p50=float(np.percentile(nodes, 50)),
        nodes_visited_p95=float(np.percentile(nodes, 95)),
        leaf_points_seen_mean=sum(s.leaf_points_seen for s in stats_batch) / n,
        leaf_points_scanned_mean=sum(s.leaf_points_scanned for s in stats_batch)
        / n,
        leaf_points_filtered_mean=sum(s.leaf_points_filtered for s in stats_batch)
        / n,
        prunes_mean=prunes_mean,
    )


def merge_all(stats_batch: Iterable[QueryStats]) -> QueryStats:
    """Sum a batch of stats into one accumulated :class:`QueryStats`."""
    total = QueryStats()
    for stats in stats_batch:
        total.merge(stats)
    return total
