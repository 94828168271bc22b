"""Budget edge cases, frontier ordering, and store-backed parity."""

import numpy as np
import pytest

from repro.approx import approx_knn_search, approx_range_search
from repro.bench.recall import FAMILY_BUILDERS
from repro.indexes import kernels
from repro.indexes.kernels import BudgetTracker
from repro.indexes.laesa import LAESA
from repro.indexes.vptree import VPTree
from repro.metric import L2
from repro.obs import QueryStats
from repro.store import append_delta, open_index, write_store

FAMILIES = dict(FAMILY_BUILDERS)
FAMILIES["laesa"] = lambda objects, metric, rng: LAESA(
    objects, metric, n_pivots=min(4, len(objects)), rng=rng
)

N = 64
DIM = 4
RADIUS = 0.45
K = 6


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(7).random((N, DIM))


@pytest.fixture(scope="module")
def query():
    return np.random.default_rng(8).random(DIM)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_index(request, data):
    build = FAMILIES[request.param]
    return request.param, build(data, L2(), np.random.default_rng(3))


class TestBudgetTracker:
    def test_unlimited_always_affords(self):
        tracker = BudgetTracker(None)
        assert tracker.affordable(10**9) == 10**9
        assert tracker.affordable(123) == 123
        tracker.charge(50)
        assert tracker.spent == 50 and tracker.affordable(10**9) == 10**9

    def test_limited_accounting(self):
        tracker = BudgetTracker(10)
        assert tracker.affordable(10) == 10 and tracker.affordable(11) == 10
        assert tracker.affordable(25) == 10
        tracker.charge(7)
        assert tracker.affordable(25) == 3
        assert tracker.affordable(3) == 3 and tracker.affordable(4) == 3

    def test_affordable_clamps_at_zero(self):
        tracker = BudgetTracker(4)
        tracker.charge(4)
        assert tracker.affordable(9) == 0
        # Overspend (a caller bug) must not make affordable negative.
        tracker.charge(2)
        assert tracker.affordable(9) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BudgetTracker(-1)

    def test_zero_budget_affords_nothing(self):
        tracker = BudgetTracker(0)
        assert tracker.affordable(1) == 0
        assert tracker.affordable(5) == 0


class TestValidation:
    def test_negative_budget_rejected(self, data, query):
        index = FAMILIES["linear"](data, L2(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            approx_knn_search(index, query, K, budget=-1)

    def test_negative_epsilon_rejected(self, data, query):
        index = FAMILIES["linear"](data, L2(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            approx_range_search(index, query, RADIUS, epsilon=-0.1)


class TestBudgetEdgeCases:
    def test_zero_budget_spends_nothing(self, family_index, query):
        _, index = family_index
        hits, report = approx_range_search(index, query, RADIUS, budget=0)
        assert hits == []
        assert report.spent == 0
        assert report.exhausted
        assert report.possible_missed == N
        assert report.recall_lower_bound == 0.0

        neighbors, report = approx_knn_search(index, query, K, budget=0)
        assert neighbors == []
        assert report.spent == 0 and report.exhausted
        assert report.min_missed_lb >= 0.0

    def test_budget_one_charges_at_most_one(self, family_index, query):
        _, index = family_index
        stats = QueryStats()
        _, report = approx_knn_search(index, query, K, budget=1, stats=stats)
        assert report.spent <= 1
        assert report.spent == stats.distance_calls

    @pytest.mark.parametrize("budget", [3, 11, N // 2])
    def test_budget_is_a_hard_cap(self, family_index, query, budget):
        _, index = family_index
        for kind in ("range", "knn"):
            stats = QueryStats()
            if kind == "range":
                _, report = approx_range_search(
                    index, query, RADIUS, budget=budget, stats=stats
                )
            else:
                _, report = approx_knn_search(
                    index, query, K, budget=budget, stats=stats
                )
            assert stats.distance_calls <= budget
            assert report.spent == stats.distance_calls

    def test_ample_budget_certifies_exact(self, family_index, query):
        _, index = family_index
        hits, report = approx_range_search(index, query, RADIUS, budget=4 * N)
        assert report.exact
        assert hits == index.range_search(query, RADIUS)

        neighbors, report = approx_knn_search(index, query, K, budget=4 * N)
        assert report.exact
        assert [(n.distance, n.id) for n in neighbors] == [
            (n.distance, n.id) for n in index.knn_search(query, K)
        ]

    def test_epsilon_only_keeps_precision(self, family_index, query):
        _, index = family_index
        exact_hits = set(index.range_search(query, RADIUS))
        hits, report = approx_range_search(index, query, RADIUS, epsilon=0.5)
        assert set(hits) <= exact_hits
        assert not report.exhausted  # no budget, only slack pruning

        exact = index.knn_search(query, K)
        neighbors, _ = approx_knn_search(index, query, K, epsilon=0.5)
        assert len(neighbors) == len(exact)
        for got, want in zip(neighbors, exact):
            assert got.distance >= want.distance or np.isclose(
                got.distance, want.distance
            )

    def test_budget_exactly_n_is_enough_for_linear(self, data, query):
        index = FAMILIES["linear"](data, L2(), np.random.default_rng(0))
        neighbors, report = approx_knn_search(index, query, K, budget=N)
        assert report.exact
        assert [n.id for n in neighbors] == [
            n.id for n in index.knn_search(query, K)
        ]


class TestFrontierOrdering:
    """The kernel's best-first frontier, exercised directly."""

    @pytest.fixture(scope="class")
    def tree(self, data):
        return VPTree(data, L2(), rng=np.random.default_rng(3))

    def test_unlimited_knn_is_byte_identical_to_exact(self, tree, query):
        neighbors, outcome = kernels.approx_tree_knn(tree, query, K)
        assert outcome.possible_missed == 0
        assert np.isinf(outcome.min_missed_lb)
        assert not outcome.exhausted
        assert [(n.distance, n.id) for n in neighbors] == [
            (n.distance, n.id) for n in tree.knn_search(query, K)
        ]

    def test_unlimited_range_is_byte_identical_to_exact(self, tree, query):
        hits, outcome = kernels.approx_tree_range(tree, query, RADIUS)
        assert outcome.possible_missed == 0
        assert list(hits) == list(tree.range_search(query, RADIUS))

    def test_results_sorted_by_distance_then_id(self, tree, query):
        for budget in (8, 20, None):
            neighbors, _ = kernels.approx_tree_knn(
                tree, query, K, budget=budget
            )
            keys = [(n.distance, n.id) for n in neighbors]
            assert keys == sorted(keys)
            assert len(set(n.id for n in neighbors)) == len(neighbors)

    def test_missed_mass_shrinks_with_budget(self, tree, query):
        masses = []
        for budget in (0, 8, 24, 2 * N):
            _, outcome = kernels.approx_tree_knn(
                tree, query, K, budget=budget
            )
            assert outcome.spent <= budget
            masses.append(outcome.possible_missed)
        assert masses == sorted(masses, reverse=True)
        assert masses[0] == N and masses[-1] == 0

    def test_missed_bound_is_no_closer_than_reality(self, tree, data, query):
        """No unscanned point may beat ``min_missed_lb``."""
        for budget in (4, 12, 30):
            neighbors, outcome = kernels.approx_tree_knn(
                tree, query, K, budget=budget
            )
            if outcome.possible_missed == 0:
                continue
            reported = {n.id for n in neighbors}
            all_d = np.linalg.norm(data - query, axis=1)
            missed_true_min = min(
                d for i, d in enumerate(all_d) if i not in reported
            )
            assert outcome.min_missed_lb <= missed_true_min + 1e-9


class TestStoreBackedParity:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory, data):
        """A VP-tree store with a 14-row delta tail, plus its oracle."""
        base, tail = data[:50], data[50:]
        tree = VPTree(base, L2(), rng=np.random.default_rng(3))
        path = tmp_path_factory.mktemp("approx-store") / "case.rsx"
        write_store(tree, path)
        append_delta(path, tail, ids=list(range(50, N)))
        index = open_index(path, L2())
        yield index
        index.close()

    def test_exact_limit_matches_exact_search(self, stored, query):
        hits, report = approx_range_search(stored, query, RADIUS)
        assert report.exact
        assert hits == stored.range_search(query, RADIUS)

        neighbors, report = approx_knn_search(stored, query, K)
        assert report.exact
        assert [(n.distance, n.id) for n in neighbors] == [
            (n.distance, n.id) for n in stored.knn_search(query, K)
        ]

    def test_budget_caps_base_and_delta_together(self, stored, query):
        for budget in (0, 5, 20, 45):
            stats = QueryStats()
            _, report = approx_knn_search(
                stored, query, K, budget=budget, stats=stats
            )
            assert stats.distance_calls <= budget
            assert report.spent == stats.distance_calls

    def test_delta_tail_rows_are_reachable(self, stored, query):
        neighbors, report = approx_knn_search(stored, query, N)
        assert report.exact
        assert {n.id for n in neighbors} == set(range(N))

    def test_no_delta_store_matches_in_memory(
        self, tmp_path_factory, data, query
    ):
        tree = VPTree(data, L2(), rng=np.random.default_rng(3))
        path = tmp_path_factory.mktemp("approx-store-flat") / "flat.rsx"
        write_store(tree, path)
        index = open_index(path, L2())
        try:
            for budget in (0, 9, 25, None):
                got, got_report = approx_knn_search(
                    index, query, K, budget=budget
                )
                want, want_report = approx_knn_search(
                    tree, query, K, budget=budget
                )
                assert [(n.distance, n.id) for n in got] == [
                    (n.distance, n.id) for n in want
                ]
                assert got_report == want_report
        finally:
            index.close()
