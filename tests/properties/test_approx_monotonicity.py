"""Properties of the budgeted approximate tier (docs/approximate.md).

Three guarantees, hypothesis-driven across random datasets and the
array-pure family:

* **budget monotonicity** — spending more never hurts: recall against
  the exact oracle is non-decreasing in the distance budget, and every
  result position only improves under ``(distance, id)`` order (the
  evaluation order is budget-independent, so a bigger budget sees a
  superset of candidates);
* **budget prefix** — the ids a search pays for under budget ``B`` are
  a prefix, in evaluation order, of the ids it pays for under ``2n``:
  the evaluation order never reads the budget's value;
* **prefix compatibility** — an approximate k-NN answer is a strictly
  ``(distance, id)``-sorted list whose sound-certified results form a
  prefix equal to the exact ranking's prefix;
* **serving parity** — a sharded + replicated deployment served
  through the concurrent engine returns byte-identical budgeted
  answers *and certificates* to the sequential
  :meth:`ShardManager.approx_range_search` /
  :meth:`~ShardManager.approx_knn_search` path, for every
  :data:`SHARD_BACKENDS` backend and every executor.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.approx import approx_knn_search, approx_range_search
from repro.bench.recall import FAMILY_BUILDERS
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.metric import L2, EditDistance
from repro.serve import (
    SHARD_BACKENDS,
    Query,
    QueryEngine,
    ShardManager,
    fork_available,
)

FAMILIES = dict(FAMILY_BUILDERS)
# The bench builder pins 16 pivots; property datasets can be smaller.
FAMILIES["laesa"] = lambda objects, metric, rng: LAESA(
    objects, metric, n_pivots=min(4, len(objects)), rng=rng
)


@st.composite
def approx_cases(draw):
    n = draw(st.integers(20, 80))
    dim = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    data = rng.random((n, dim))
    query = rng.random(dim)
    return family, data, query, k, seed


def _budget_ladder(n):
    return sorted({0, 1, n // 3, n, 2 * n})


@given(case=approx_cases())
def test_recall_monotone_in_budget(case):
    family, data, query, k, seed = case
    n = len(data)
    metric = L2()
    index = FAMILIES[family](data, metric, seed)
    truth = {nb.id for nb in LinearScan(data, metric).knn_search(query, min(k, n))}
    previous = -1.0
    for budget in _budget_ladder(n):
        results, report = approx_knn_search(index, query, k, budget=budget)
        recall = sum(1 for nb in results if nb.id in truth) / max(1, min(k, n))
        assert recall >= previous - 1e-12, (
            f"{family}: recall dropped from {previous} to {recall} "
            f"when the budget rose to {budget}"
        )
        assert report.recall_lower_bound <= recall + 1e-9
        previous = recall


@given(case=approx_cases())
def test_knn_results_are_a_subset_compatible_prefix(case):
    family, data, query, k, seed = case
    n = len(data)
    metric = L2()
    index = FAMILIES[family](data, metric, seed)
    exact = LinearScan(data, metric).knn_search(query, min(k, n))
    previous = None
    for budget in _budget_ladder(n):
        results, report = approx_knn_search(index, query, k, budget=budget)
        keys = [(nb.distance, nb.id) for nb in results]
        # Strictly (distance, id)-sorted: the answer is a prefix of the
        # sorted order over whatever candidates the budget reached.
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        # Sound certificates form a prefix mask...
        flags = list(report.sound)
        assert flags == sorted(flags, reverse=True), (
            f"{family}: sound mask {flags} is not a prefix"
        )
        # ...and that prefix *is* the exact ranking's prefix.
        n_sound = sum(flags)
        for got, want in zip(results[:n_sound], exact[:n_sound]):
            assert got.id == want.id
            assert np.isclose(got.distance, want.distance, rtol=1e-9)
        # A bigger budget dominates position by position.
        if previous is not None:
            for got, earlier in zip(results, previous):
                assert (got.distance, got.id) <= (earlier.distance, earlier.id)
        previous = results


class RecordingL2(L2):
    """L2 that logs the id of every dataset row it evaluates, in order."""

    def __init__(self, data):
        super().__init__()
        self.row_id = {row.tobytes(): i for i, row in enumerate(data)}
        self.log: list[int] = []

    def _note(self, row):
        i = self.row_id.get(np.asarray(row, dtype=float).tobytes())
        if i is not None:
            self.log.append(i)

    def distance(self, a, b):
        self._note(a)
        self._note(b)
        return super().distance(a, b)

    def batch_distance(self, xs, y):
        for row in np.asarray(xs, dtype=float).reshape(len(xs), -1):
            self._note(row)
        return super().batch_distance(xs, y)


@given(case=approx_cases())
def test_budget_truncates_one_evaluation_sequence(case):
    family, data, query, k, seed = case
    n = len(data)
    metric = RecordingL2(data)
    index = FAMILIES[family](data, metric, seed)
    radius = 0.4
    for search, arg in ((approx_knn_search, k), (approx_range_search, radius)):
        metric.log.clear()
        search(index, query, arg, budget=2 * n)
        full = list(metric.log)
        for budget in sorted({0, 1, n // 3, n}):
            metric.log.clear()
            search(index, query, arg, budget=budget)
            assert len(metric.log) <= budget
            assert metric.log == full[: len(metric.log)], (
                f"{family} {search.__name__} budget {budget}: paid ids are "
                "not a prefix of the budget-2n evaluation sequence"
            )


# ----------------------------------------------------------------------
# Serving parity: engine == sequential manager, certificates included
# ----------------------------------------------------------------------


def _approx_deployment(backend, uniform_data, word_data):
    """Objects, metric and a budgeted workload for one backend."""
    if backend == "bkt":  # discrete-only structure
        objects = list(word_data)
        metric = EditDistance()
        queries = [
            Query.range(objects[3], 2.0, budget=40),
            Query.knn(objects[5], 6, budget=25),
            Query.range(objects[9], 1.0, epsilon=0.5),
            Query.knn(objects[11], 4, budget=0),
        ]
    else:
        objects = uniform_data[:120]
        metric = L2()
        rng = np.random.default_rng(99)
        queries = [
            Query.range(rng.random(objects.shape[1]), 0.8, budget=40),
            Query.knn(rng.random(objects.shape[1]), 7, budget=25),
            Query.range(rng.random(objects.shape[1]), 0.6, epsilon=0.5),
            Query.knn(rng.random(objects.shape[1]), 5, budget=0),
            Query.knn(rng.random(objects.shape[1]), 9, budget=60, epsilon=0.2),
        ]
    return objects, metric, queries


def _sequential_answers(manager, queries):
    answers = []
    for query in queries:
        if query.kind == "range":
            answers.append(
                manager.approx_range_search(
                    query.query,
                    query.radius,
                    budget=query.budget,
                    epsilon=query.epsilon,
                )
            )
        else:
            answers.append(
                manager.approx_knn_search(
                    query.query,
                    query.k,
                    budget=query.budget,
                    epsilon=query.epsilon,
                )
            )
    return answers


def _assert_engine_matches(outcome, answers):
    for result, (value, report) in zip(outcome.results, answers):
        assert not result.degraded
        assert result.value == value
        assert result.approx == report


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("backend", sorted(SHARD_BACKENDS))
def test_replicated_approx_engine_matches_sequential(
    backend, executor, uniform_data, word_data
):
    objects, metric, queries = _approx_deployment(
        backend, uniform_data, word_data
    )
    manager = ShardManager(
        objects,
        metric,
        n_shards=3,
        backend=backend,
        rng=5,
        replication_factor=2,
    )
    answers = _sequential_answers(manager, queries)
    with QueryEngine(manager, executor=executor, workers=3) as engine:
        outcome = engine.run_batch(queries)
    _assert_engine_matches(outcome, answers)


@pytest.mark.skipif(
    not fork_available(), reason="process executor requires fork"
)
@pytest.mark.parametrize("backend", sorted(SHARD_BACKENDS))
def test_replicated_approx_process_pool_matches_sequential(
    backend, uniform_data, word_data
):
    objects, metric, queries = _approx_deployment(
        backend, uniform_data, word_data
    )
    manager = ShardManager(
        objects,
        metric,
        n_shards=3,
        backend=backend,
        rng=5,
        replication_factor=2,
    )
    answers = _sequential_answers(manager, queries)
    with QueryEngine(manager, executor="process", workers=2) as engine:
        outcome = engine.run_batch(queries)
    _assert_engine_matches(outcome, answers)
