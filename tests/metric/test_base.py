"""Tests for the Metric interface, FunctionMetric and CountingMetric."""

import numpy as np
import pytest

from repro.metric import (
    L2,
    CountingMetric,
    FunctionMetric,
    InvalidDistanceError,
    Metric,
    ValidatingMetric,
)


class TestFunctionMetric:
    def test_wraps_callable(self):
        metric = FunctionMetric(lambda a, b: abs(a - b))
        assert metric.distance(3, 7) == 4

    def test_call_dunder_delegates_to_distance(self):
        metric = FunctionMetric(lambda a, b: abs(a - b))
        assert metric(1, 5) == metric.distance(1, 5) == 4

    def test_batch_default_loops_over_distance(self):
        metric = FunctionMetric(lambda a, b: abs(a - b))
        out = metric.batch_distance([1, 2, 10], 4)
        assert out.tolist() == [3.0, 2.0, 6.0]

    def test_segmented_default_loops_over_batches(self):
        calls = []

        class Logged(FunctionMetric):
            def batch_distance(self, xs, y):
                calls.append((list(xs), y))
                return super().batch_distance(xs, y)

        metric = Logged(lambda a, b: abs(a - b))
        out = metric.segmented_distance([1, 2, 10, 7], [0, 1, 1, 4], [4, 0, 5])
        assert out.tolist() == [3.0, 3.0, 5.0, 2.0]
        assert calls == [([1], 4), ([], 0), ([2, 10, 7], 5)]
        assert metric.segmented_distance([], [0], []).shape == (0,)

    def test_batch_returns_float_array(self):
        metric = FunctionMetric(lambda a, b: abs(a - b))
        out = metric.batch_distance([1, 2], 0)
        assert isinstance(out, np.ndarray)
        assert out.dtype == float

    def test_name_from_function(self):
        def my_distance(a, b):
            return 0.0

        assert FunctionMetric(my_distance).name == "my_distance"

    def test_name_override(self):
        assert FunctionMetric(lambda a, b: 0, name="zero").name == "zero"

    def test_is_a_metric(self):
        assert isinstance(FunctionMetric(lambda a, b: 0), Metric)


class TestCountingMetric:
    def test_counts_single_distances(self):
        counting = CountingMetric(L2())
        for __ in range(5):
            counting.distance(np.zeros(3), np.ones(3))
        assert counting.count == 5

    def test_counts_batches_by_length(self):
        counting = CountingMetric(L2())
        counting.batch_distance(np.zeros((7, 3)), np.ones(3))
        assert counting.count == 7

    def test_mixed_counting(self):
        counting = CountingMetric(L2())
        counting.distance(np.zeros(3), np.ones(3))
        counting.batch_distance(np.zeros((4, 3)), np.ones(3))
        counting.distance(np.zeros(3), np.ones(3))
        assert counting.count == 6

    def test_reset_returns_previous_count(self):
        counting = CountingMetric(L2())
        counting.batch_distance(np.zeros((3, 2)), np.ones(2))
        assert counting.reset() == 3
        assert counting.count == 0

    def test_values_are_unchanged_by_wrapping(self):
        inner = L2()
        counting = CountingMetric(inner)
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert counting.distance(a, b) == inner.distance(a, b) == 5.0

    def test_batch_values_unchanged(self):
        inner = L2()
        counting = CountingMetric(inner)
        xs = np.random.default_rng(0).random((6, 4))
        y = np.zeros(4)
        np.testing.assert_allclose(
            counting.batch_distance(xs, y), inner.batch_distance(xs, y)
        )

    def test_counts_segmented_runs_by_length(self):
        counting = CountingMetric(L2())
        xs = np.random.default_rng(0).random((9, 3))
        out = counting.segmented_distance(xs, [0, 4, 4, 9], xs[:3])
        assert counting.count == len(out) == 9
        plain = L2().segmented_distance(xs, [0, 4, 4, 9], xs[:3])
        assert out.tobytes() == plain.tobytes()

    def test_empty_batch_counts_zero(self):
        counting = CountingMetric(L2())
        counting.batch_distance(np.zeros((0, 3)), np.ones(3))
        assert counting.count == 0

    def test_nested_counting(self):
        outer = CountingMetric(CountingMetric(L2()))
        outer.distance(np.zeros(2), np.ones(2))
        assert outer.count == 1
        assert outer.inner.count == 1


class TestCompositionOrder:
    """CountingMetric/ValidatingMetric stacking semantics (documented on
    ValidatingMetric): both orders agree on valid data and on failing
    scalar calls; they differ on a failing batch."""

    def test_orders_agree_on_valid_data(self):
        a = CountingMetric(ValidatingMetric(L2()))
        b = ValidatingMetric(CountingMetric(L2()))
        xs = np.random.default_rng(0).random((5, 3))
        y = np.zeros(3)
        assert a.distance(xs[0], y) == b.distance(xs[0], y)
        np.testing.assert_allclose(a.batch_distance(xs, y), b.batch_distance(xs, y))
        assert a.count == b.inner.count == 6

    def test_failing_scalar_call_counts_in_both_orders(self):
        bad = FunctionMetric(lambda a, b: float("nan"))
        counting_outer = CountingMetric(ValidatingMetric(bad))
        with pytest.raises(InvalidDistanceError):
            counting_outer.distance(1, 2)
        assert counting_outer.count == 1

        validating_outer = ValidatingMetric(CountingMetric(bad))
        with pytest.raises(InvalidDistanceError):
            validating_outer.distance(1, 2)
        assert validating_outer.inner.count == 1

    def test_failing_batch_is_uncounted_in_recommended_order(self):
        bad = FunctionMetric(lambda a, b: -1.0)
        counting_outer = CountingMetric(ValidatingMetric(bad))
        with pytest.raises(InvalidDistanceError):
            counting_outer.batch_distance([1, 2, 3], 0)
        assert counting_outer.count == 0

    def test_failing_batch_is_counted_in_reversed_order(self):
        bad = FunctionMetric(lambda a, b: -1.0)
        validating_outer = ValidatingMetric(CountingMetric(bad))
        with pytest.raises(InvalidDistanceError):
            validating_outer.batch_distance([1, 2, 3], 0)
        assert validating_outer.inner.count == 3

    def test_reset_is_unaffected_by_stacking(self):
        metric = CountingMetric(ValidatingMetric(L2()))
        metric.batch_distance(np.zeros((4, 2)), np.ones(2))
        assert metric.reset() == 4
        assert metric.count == 0
