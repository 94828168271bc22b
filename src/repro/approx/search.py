"""Budgeted approximate search over any index in the family.

The two entry points — :func:`approx_range_search` and
:func:`approx_knn_search` — accept every :class:`MetricIndex` the
package builds and return ``(answer, ApproxReport)``:

* the tree families (vpt / mvpt / gmvpt, in-memory or store-backed) run
  the best-first frontier loop in :mod:`repro.indexes.kernels` — the
  loop their exact k-NN runs without a budget;
* LAESA pays its pivots first, then refines rows in lower-bound order
  under the remaining budget;
* linear scans (and any family without a budget-aware traversal: GHTree,
  GNAT, BKTree, the matrix index, transforms) scan an id-ordered prefix
  of the dataset — every distance is exact, so the prefix answer is a
  sound partial answer with the whole unscanned tail as missed mass;
* :class:`~repro.serve.sharding.ShardManager` splits the budget across
  shards deterministically and merges the certificates exactly;
* :class:`~repro.store.backed.StoreBackedIndex` runs its base structure
  under the budget and spends whatever remains on the delta tail.

Budget monotonicity (more budget never lowers recall) is a designed
property of every path here: each family's sequence of paid distance
computations under budget ``B1`` is a prefix of its sequence under
``B2 >= B1``, and answers are the exact ``(distance, id)`` best of what
was paid for.  The one caveat is the store-backed base/delta boundary —
see ``docs/approximate.md``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._util import gather, slack
from repro.core.dynamic import DynamicMVPTree
from repro.indexes import kernels
from repro.indexes.base import MetricIndex, Neighbor
from repro.indexes.kernels import ApproxOutcome, BudgetTracker
from repro.indexes.laesa import LAESA
from repro.obs.stats import (
    PRUNE_BUDGET,
    PRUNE_KNN_RADIUS,
    PRUNE_LOWER_BOUND,
    PRUNE_PIVOT_FILTER,
    QueryStats,
)
from repro.obs.trace import Observation, TraceSink, make_observation

from repro.approx.report import (
    KIND_KNN,
    KIND_RANGE,
    ApproxReport,
    build_report,
)

_INF = float("inf")


def _validate(budget: Optional[int], epsilon: float) -> None:
    if budget is not None and int(budget) < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")


# ----------------------------------------------------------------------
# Prefix scan: the universal budgeted fallback
# ----------------------------------------------------------------------


def _scan_range(
    index: MetricIndex,
    query,
    radius: float,
    *,
    budget: Optional[int],
    obs: Optional[Observation],
) -> tuple[list[int], ApproxOutcome]:
    """Exact scan of an id-ordered dataset prefix under ``budget``."""
    objects = index._objects
    n = len(objects)
    tracker = BudgetTracker(budget)
    take = tracker.affordable(n)
    if obs is not None:
        obs.enter_leaf(n)
    hits: list[int] = []
    if take:
        tracker.charge(take)
        distances = np.asarray(
            index._batch_dist(obs, objects[:take], query), dtype=np.float64
        )
        hits = [int(i) for i in np.nonzero(distances <= radius)[0]]
    if obs is not None:
        obs.leaf_scan(n, take)
        obs.filter_points(PRUNE_BUDGET, n - take)
    missed = n - take
    return hits, ApproxOutcome(
        tracker.spent, missed > 0, missed, 0.0 if missed else _INF
    )


def _scan_knn(
    index: MetricIndex,
    query,
    k: int,
    *,
    budget: Optional[int],
    obs: Optional[Observation],
) -> tuple[list[Neighbor], ApproxOutcome]:
    """Exact k-NN over an id-ordered dataset prefix under ``budget``.

    Unscanned points carry lower bound 0, so no result is sound until
    the whole dataset has been paid for — the honest truth for a
    structure with no distance bounds to offer.
    """
    objects = index._objects
    n = len(objects)
    tracker = BudgetTracker(budget)
    take = tracker.affordable(n)
    if obs is not None:
        obs.enter_leaf(n)
    best: list[Neighbor] = []
    if take:
        tracker.charge(take)
        distances = np.asarray(
            index._batch_dist(obs, objects[:take], query), dtype=np.float64
        )
        order = np.argsort(distances, kind="stable")[:k]
        best = [Neighbor(float(distances[i]), int(i)) for i in order]
    if obs is not None:
        obs.leaf_scan(n, take)
        obs.filter_points(PRUNE_BUDGET, n - take)
    missed = n - take
    return best, ApproxOutcome(
        tracker.spent, missed > 0, missed, 0.0 if missed else _INF
    )


# ----------------------------------------------------------------------
# LAESA: pivots first, then lower-bound-ordered refinement
# ----------------------------------------------------------------------
#
# The budget pays the pivot distances before anything else.  Below
# ``n_pivots`` the table cannot be fully activated, so the answer is
# built from the paid pivots alone (their distances are exact) and no
# row is refined — a deliberately blunt result that keeps recall
# monotone in the budget: the paid-pivot prefix is nested across
# budgets, and once all pivots are paid the bounds (hence the
# refinement order) are identical for every larger budget.


def _laesa_pivot_pass(laesa: LAESA, query, tracker, obs):
    """Pay for the longest affordable pivot prefix; return its exact
    distances, the induced table bounds, and the paid-pivot mask."""
    n = len(laesa._objects)
    paid = tracker.affordable(laesa.n_pivots)
    is_pivot = np.zeros(n, dtype=bool)
    if paid:
        prefix = laesa.pivot_ids[:paid]
        pivot_distances = np.asarray(
            laesa._batch_dist(obs, gather(laesa._objects, prefix), query),
            dtype=np.float64,
        )
        tracker.charge(paid)
        bounds = np.abs(laesa._table[:, :paid] - pivot_distances).max(axis=1)
        is_pivot[np.asarray(prefix, dtype=np.intp)] = True
    else:
        prefix = []
        pivot_distances = np.empty(0, dtype=np.float64)
        bounds = np.zeros(n, dtype=np.float64)
    return prefix, pivot_distances, bounds, is_pivot, paid


def _laesa_range(
    laesa: LAESA,
    query,
    radius: float,
    *,
    epsilon: float,
    budget: Optional[int],
    obs: Optional[Observation],
) -> tuple[list[int], ApproxOutcome]:
    n = len(laesa._objects)
    tracker = BudgetTracker(budget)
    approximation = 1.0 + epsilon
    loose = radius + slack(radius)
    if obs is not None:
        obs.enter_leaf(n)
    prefix, pivot_distances, bounds, is_pivot, paid = _laesa_pivot_pass(
        laesa, query, tracker, obs
    )
    hits = {
        int(pid)
        for pid, d in zip(prefix, pivot_distances)
        if d <= radius
    }
    rest = ~is_pivot
    exact_out = rest & (bounds > loose)
    eps_out = rest & ~exact_out & (bounds * approximation > loose)
    admitted = np.nonzero(rest & ~exact_out & ~eps_out)[0]
    admitted = admitted[
        np.lexsort((admitted, bounds[admitted]))
    ]
    afford = tracker.affordable(int(admitted.size))
    if afford:
        take = admitted[:afford]
        tracker.charge(afford)
        distances = laesa._batch_dist(obs, gather(laesa._objects, take), query)
        hits.update(
            int(i) for i, d in zip(take, distances) if d <= radius
        )
    skipped = int(admitted.size - afford)
    n_eps = int(np.count_nonzero(eps_out))
    possible_missed = skipped + n_eps
    min_missed_lb = _INF
    if skipped:
        min_missed_lb = float(bounds[admitted[afford]])
    if n_eps:
        min_missed_lb = min(min_missed_lb, float(bounds[eps_out].min()))
    if obs is not None:
        obs.filter_points(PRUNE_PIVOT_FILTER, int(np.count_nonzero(exact_out)))
        obs.filter_points(PRUNE_LOWER_BOUND, n_eps)
        obs.filter_points(PRUNE_BUDGET, skipped)
        obs.leaf_scan(n, int(np.count_nonzero(is_pivot)) + afford)
    exhausted = paid < laesa.n_pivots or skipped > 0
    return sorted(hits), ApproxOutcome(
        tracker.spent, exhausted, possible_missed, min_missed_lb
    )


def _laesa_knn(
    laesa: LAESA,
    query,
    k: int,
    *,
    epsilon: float,
    budget: Optional[int],
    obs: Optional[Observation],
) -> tuple[list[Neighbor], ApproxOutcome]:
    n = len(laesa._objects)
    tracker = BudgetTracker(budget)
    approximation = 1.0 + epsilon
    if obs is not None:
        obs.enter_leaf(n)
    prefix, pivot_distances, bounds, is_pivot, paid = _laesa_pivot_pass(
        laesa, query, tracker, obs
    )
    # Paid pivots are free candidates: their distances are already exact.
    best: list[Neighbor] = []
    seen = set()
    for pid, d in zip(prefix, pivot_distances):
        if int(pid) not in seen:  # max-min can repeat ids on duplicate data
            seen.add(int(pid))
            best.append(Neighbor(float(d), int(pid)))
    best.sort()
    del best[k:]

    refined_mask = np.zeros(n, dtype=bool)
    refined = 0
    exhausted = paid < laesa.n_pivots
    if not exhausted:
        order = np.argsort(bounds, kind="stable")
        order = order[~is_pivot[order]]
        position = 0
        batch = max(k, 16)
        while position < len(order):
            take = order[position : position + batch]
            if len(best) == k:
                threshold = best[-1].distance
                keep = ~(
                    bounds[take] * approximation > threshold + slack(threshold)
                )
                take = take[keep]  # bounds ascend, so this is a prefix
                if take.size == 0:
                    break
            afford = tracker.affordable(int(take.size))
            stop = afford < take.size
            take = take[:afford]
            if take.size:
                tracker.charge(int(take.size))
                distances = laesa._batch_dist(
                    obs, gather(laesa._objects, take), query
                )
                refined += int(take.size)
                refined_mask[take] = True
                best.extend(
                    Neighbor(float(d), int(i))
                    for d, i in zip(distances, take)
                )
                best.sort()
                del best[k:]
            if stop:
                exhausted = True
                break
            position += batch
            batch *= 2

    threshold = best[-1].distance if len(best) == k else _INF
    rest_bounds = bounds[~is_pivot & ~refined_mask]
    out_mask = rest_bounds > threshold + slack(threshold)
    n_out = int(np.count_nonzero(out_mask))
    possible_missed = int(rest_bounds.size - n_out)
    min_missed_lb = (
        float(rest_bounds[~out_mask].min()) if possible_missed else _INF
    )
    if obs is not None:
        obs.filter_points(PRUNE_KNN_RADIUS, n_out)
        obs.filter_points(
            PRUNE_BUDGET if exhausted else PRUNE_LOWER_BOUND, possible_missed
        )
        obs.leaf_scan(n, int(np.count_nonzero(is_pivot)) + refined)
    return best, ApproxOutcome(
        tracker.spent, exhausted, possible_missed, min_missed_lb
    )


# ----------------------------------------------------------------------
# One in-memory index: its family's budgeted traversal
# ----------------------------------------------------------------------


def _base_range(index, query, radius, *, epsilon, budget, obs):
    if isinstance(index, kernels.TableTree):
        hits, outcome = kernels.approx_tree_range(
            index, query, radius, epsilon=epsilon, budget=budget, obs=obs
        )
        if isinstance(index, DynamicMVPTree):
            hits = [i for i in hits if i not in index._deleted]
        return hits, outcome
    if isinstance(index, LAESA):
        return _laesa_range(
            index, query, radius, epsilon=epsilon, budget=budget, obs=obs
        )
    return _scan_range(index, query, radius, budget=budget, obs=obs)


def _base_knn(index, query, k, *, epsilon, budget, obs):
    if isinstance(index, DynamicMVPTree):
        # Over-fetch so tombstones cannot push live answers out, exactly
        # like the exact dynamic search; the report's missed mass counts
        # deleted points too, which only makes the bound more
        # conservative.
        fetch = min(len(index._objects), k + len(index._deleted))
        raw, outcome = kernels.approx_tree_knn(
            index, query, fetch, epsilon=epsilon, budget=budget, obs=obs
        )
        return [n for n in raw if n.id not in index._deleted][:k], outcome
    if isinstance(index, kernels.TableTree):
        return kernels.approx_tree_knn(
            index, query, k, epsilon=epsilon, budget=budget, obs=obs
        )
    if isinstance(index, LAESA):
        return _laesa_knn(index, query, k, epsilon=epsilon, budget=budget, obs=obs)
    return _scan_knn(index, query, k, budget=budget, obs=obs)


# ----------------------------------------------------------------------
# Store-backed: base structure under budget, delta tail on what remains
# ----------------------------------------------------------------------


def _delta_scan(index, query, remaining, *, stats, trace):
    """Budgeted exact scan of the delta tail; returns (distances, take, n)."""
    rows = index._delta_rows
    n = len(rows)
    take = n if remaining is None else min(n, max(0, int(remaining)))
    obs = make_observation(stats, trace)
    if obs is not None:
        obs.enter_leaf(n)
    distances = np.empty(0, dtype=np.float64)
    if take:
        distances = np.asarray(
            index._batch_dist(obs, rows[:take], query), dtype=np.float64
        )
    if obs is not None:
        obs.leaf_scan(n, take)
        obs.filter_points(PRUNE_BUDGET, n - take)
    return distances, take, n


def _store_range(index, query, radius, *, epsilon, budget, stats, trace):
    hits, outcome = _base_range(
        index._impl, query, radius,
        epsilon=epsilon, budget=budget, obs=make_observation(stats, trace),
    )
    if index._delta_rows is None:
        return hits, outcome
    remaining = None if budget is None else budget - outcome.spent
    distances, take, n_delta = _delta_scan(
        index, query, remaining, stats=stats, trace=trace
    )
    base_n = len(index._objects)
    hits = list(hits)
    hits.extend(
        base_n + int(j) for j in np.nonzero(distances <= radius)[0]
    )
    missed = n_delta - take
    return hits, ApproxOutcome(
        outcome.spent + take,
        outcome.exhausted or missed > 0,
        outcome.possible_missed + missed,
        min(outcome.min_missed_lb, 0.0 if missed else _INF),
    )


def _store_knn(index, query, k, *, epsilon, budget, stats, trace):
    base_n = len(index._objects)
    base, outcome = _base_knn(
        index._impl, query, min(k, base_n),
        epsilon=epsilon, budget=budget, obs=make_observation(stats, trace),
    )
    if index._delta_rows is None:
        return base, outcome
    remaining = None if budget is None else budget - outcome.spent
    distances, take, n_delta = _delta_scan(
        index, query, remaining, stats=stats, trace=trace
    )
    merged = [(n.distance, n.id) for n in base]
    merged.extend((float(d), base_n + j) for j, d in enumerate(distances))
    merged.sort()
    missed = n_delta - take
    return (
        [Neighbor(d, i) for d, i in merged[: min(k, len(index))]],
        ApproxOutcome(
            outcome.spent + take,
            outcome.exhausted or missed > 0,
            outcome.possible_missed + missed,
            min(outcome.min_missed_lb, 0.0 if missed else _INF),
        ),
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def approx_range_search(
    index: MetricIndex,
    query,
    radius: float,
    *,
    budget: Optional[int] = None,
    epsilon: float = 0.0,
    stats: Optional[QueryStats] = None,
    trace: Optional[TraceSink] = None,
) -> tuple[list[int], ApproxReport]:
    """Budgeted range search; every returned id is a verified hit.

    ``budget=None`` with ``epsilon=0`` reproduces the exact answer and
    certifies it (``report.exact``).
    """
    _validate(budget, epsilon)
    radius = index.validate_radius(radius)
    from repro.serve.sharding import ShardManager

    if isinstance(index, ShardManager):
        return index.approx_range_search(
            query, radius,
            budget=budget, epsilon=epsilon, stats=stats, trace=trace,
        )
    from repro.store.backed import StoreBackedIndex

    if isinstance(index, StoreBackedIndex):
        hits, outcome = _store_range(
            index, query, radius,
            epsilon=epsilon, budget=budget, stats=stats, trace=trace,
        )
    else:
        hits, outcome = _base_range(
            index, query, radius, epsilon=epsilon, budget=budget,
            obs=make_observation(stats, trace),
        )
    return hits, build_report(
        KIND_RANGE,
        hits,
        budget=budget,
        epsilon=epsilon,
        spent=outcome.spent,
        exhausted=outcome.exhausted,
        possible_missed=outcome.possible_missed,
        min_missed_lb=outcome.min_missed_lb,
    )


def approx_knn_search(
    index: MetricIndex,
    query,
    k: int,
    *,
    budget: Optional[int] = None,
    epsilon: float = 0.0,
    stats: Optional[QueryStats] = None,
    trace: Optional[TraceSink] = None,
) -> tuple[list[Neighbor], ApproxReport]:
    """Budgeted k-NN; ``report.sound[i]`` certifies result ``i`` is in
    the true top-k, and ``report.recall_lower_bound`` is a floor on the
    answer's recall against the exact search.
    """
    _validate(budget, epsilon)
    k = index.validate_k(k)
    from repro.serve.sharding import ShardManager

    if isinstance(index, ShardManager):
        return index.approx_knn_search(
            query, k,
            budget=budget, epsilon=epsilon, stats=stats, trace=trace,
        )
    from repro.store.backed import StoreBackedIndex

    if isinstance(index, StoreBackedIndex):
        results, outcome = _store_knn(
            index, query, k,
            epsilon=epsilon, budget=budget, stats=stats, trace=trace,
        )
    else:
        results, outcome = _base_knn(
            index, query, k, epsilon=epsilon, budget=budget,
            obs=make_observation(stats, trace),
        )
    return results, build_report(
        KIND_KNN,
        results,
        budget=budget,
        epsilon=epsilon,
        spent=outcome.spent,
        exhausted=outcome.exhausted,
        possible_missed=outcome.possible_missed,
        min_missed_lb=outcome.min_missed_lb,
        target=k,
    )


__all__ = ["approx_knn_search", "approx_range_search"]
