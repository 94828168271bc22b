"""Tests for the Minkowski (Lp) metric family."""

import numpy as np
import pytest

from repro.metric import L1, L2, LInf, Minkowski, WeightedMinkowski


class TestKnownValues:
    def test_l1_manhattan(self):
        assert L1().distance([0, 0], [3, 4]) == 7.0

    def test_l2_euclidean(self):
        assert L2().distance([0, 0], [3, 4]) == 5.0

    def test_linf_chebyshev(self):
        assert LInf().distance([0, 0], [3, 4]) == 4.0

    def test_l3(self):
        expected = (3**3 + 4**3) ** (1 / 3)
        assert Minkowski(3).distance([0, 0], [3, 4]) == pytest.approx(expected)

    def test_identity(self):
        x = np.array([1.5, -2.0, 7.0])
        for metric in (L1(), L2(), LInf(), Minkowski(4)):
            assert metric.distance(x, x) == 0.0

    def test_symmetry(self):
        a, b = np.array([1.0, 2.0]), np.array([-3.0, 5.0])
        for metric in (L1(), L2(), LInf(), Minkowski(2.5)):
            assert metric.distance(a, b) == pytest.approx(metric.distance(b, a))

    def test_fractional_p_at_least_one_allowed(self):
        assert Minkowski(1.5).distance([0], [2]) == pytest.approx(2.0)


class TestScale:
    def test_scale_divides_distance(self):
        assert L1(scale=10.0).distance([0, 0], [3, 4]) == pytest.approx(0.7)

    def test_paper_image_normalisation(self):
        # L1/10000 and L2/100, the section 5.1.B normalisers.
        a = np.zeros(100)
        b = np.full(100, 200.0)
        assert L1(scale=10000.0).distance(a, b) == pytest.approx(2.0)
        assert L2(scale=100.0).distance(a, b) == pytest.approx(20.0)

    def test_scale_applies_to_batch(self):
        xs = np.array([[3.0, 4.0], [6.0, 8.0]])
        out = L2(scale=5.0).batch_distance(xs, np.zeros(2))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            L2(scale=0.0)
        with pytest.raises(ValueError, match="scale"):
            Minkowski(2, scale=-1.0)


class TestValidation:
    def test_p_below_one_rejected(self):
        # p < 1 breaks the triangle inequality.
        with pytest.raises(ValueError, match="Minkowski"):
            Minkowski(0.5)

    def test_weighted_requires_finite_p(self):
        with pytest.raises(ValueError, match="finite"):
            WeightedMinkowski(np.inf, [1.0, 1.0])

    def test_weighted_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="weights"):
            WeightedMinkowski(2, [1.0, 0.0])
        with pytest.raises(ValueError, match="weights"):
            WeightedMinkowski(2, [])


class TestBatchConsistency:
    """batch_distance must agree exactly with per-pair distance."""

    @pytest.mark.parametrize(
        "metric",
        [L1(), L2(), LInf(), Minkowski(3), L1(scale=7.0), Minkowski(2.5, scale=2.0)],
        ids=["L1", "L2", "LInf", "L3", "L1/7", "L2.5/2"],
    )
    def test_batch_matches_singles(self, metric):
        rng = np.random.default_rng(42)
        xs = rng.normal(size=(20, 6))
        y = rng.normal(size=6)
        batch = metric.batch_distance(xs, y)
        singles = [metric.distance(x, y) for x in xs]
        np.testing.assert_allclose(batch, singles)

    @pytest.mark.parametrize(
        "metric",
        [L1(), L2(), LInf(), Minkowski(3), L2(scale=100.0), LInf(scale=0.3)],
        ids=["L1", "L2", "LInf", "L3", "L2/100", "LInf/0.3"],
    )
    def test_array_fast_path_is_bit_identical(self, metric):
        # A 2-D float64 array against a 1-D float64 query skips the
        # generic coercions; a list of rows takes them.
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(30, 9))
        y = rng.normal(size=9)
        xs[4] = y
        fast = metric.batch_distance(xs, y)
        generic = metric.batch_distance(list(xs), y)
        assert fast.tobytes() == generic.tobytes()

    @pytest.mark.parametrize(
        "metric",
        [L1(), L2(), LInf(), Minkowski(3), L2(scale=100.0), LInf(scale=0.3)],
        ids=["L1", "L2", "LInf", "L3", "L2/100", "LInf/0.3"],
    )
    def test_norms_leave_the_callers_arrays_unchanged(self, metric):
        # The norms square or take absolute values in place, on the
        # difference array only.
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(12, 5))
        y = rng.normal(size=5)
        before = xs.copy(), y.copy()
        metric.batch_distance(xs, y)
        metric.distance(xs[0], y)
        metric.segmented_distance(xs, [0, 5, 12], xs[:2])
        assert xs.tobytes() == before[0].tobytes()
        assert y.tobytes() == before[1].tobytes()

    @pytest.mark.parametrize(
        "metric",
        [L1(), L2(), LInf(), Minkowski(3), L2(scale=100.0)],
        ids=["L1", "L2", "LInf", "L3", "L2/100"],
    )
    @pytest.mark.parametrize("dim", [1, 7, 16, 20, 33])
    def test_segmented_rows_match_per_run_batches_bit_for_bit(self, metric, dim):
        rng = np.random.default_rng(dim)
        counts = rng.integers(0, 40, size=25)
        xs = rng.normal(size=(int(counts.sum()), dim))
        ys = rng.normal(size=(25, dim))
        starts = np.r_[0, np.cumsum(counts)]
        runs = zip(starts, starts[1:], ys)
        expected = np.concatenate(
            [metric.batch_distance(xs[a:b], y) for a, b, y in runs]
        )
        segmented = metric.segmented_distance(xs, starts, ys)
        assert segmented.tobytes() == expected.tobytes()
        generic = metric.segmented_distance(list(xs), starts, list(ys))
        assert generic.tobytes() == expected.tobytes()

    def test_segmented_scalars_and_empty_runs(self):
        xs = np.array([1.0, 4.0, 6.0])
        scalars = L1().segmented_distance(xs, [0, 0, 3], [9.0, 5.0])
        assert scalars.tolist() == [4.0, 1.0, 1.0]
        empty = L2().segmented_distance(np.zeros((0, 3)), [0, 0], np.zeros((1, 3)))
        assert empty.shape == (0,)

    def test_segmented_keeps_a_subclass_batch_override(self):
        """A subclass that overrides batch_distance (here, to record its
        calls) sees one call per run, as with the base class."""

        class RecordingL2(L2):
            def __init__(self):
                super().__init__()
                self.calls = []

            def batch_distance(self, xs, y):
                self.calls.append(len(xs))
                return super().batch_distance(xs, y)

        metric = RecordingL2()
        xs = np.arange(12.0).reshape(6, 2)
        out = metric.segmented_distance(xs, [0, 2, 2, 6], np.zeros((3, 2)))
        assert metric.calls == [2, 0, 4]
        assert out.tobytes() == L2().segmented_distance(
            xs, [0, 2, 2, 6], np.zeros((3, 2))
        ).tobytes()

    def test_batch_on_list_of_arrays(self):
        xs = [np.array([0.0, 0.0]), np.array([3.0, 4.0])]
        np.testing.assert_allclose(L2().batch_distance(xs, np.zeros(2)), [0.0, 5.0])

    def test_batch_on_multidimensional_objects(self):
        # Image-like 2-d objects are flattened (the paper treats images
        # as 65536-dimensional vectors).
        xs = np.zeros((3, 4, 4))
        xs[1] += 1.0
        y = np.zeros((4, 4))
        np.testing.assert_allclose(L1().batch_distance(xs, y), [0.0, 16.0, 0.0])

    def test_single_distance_on_multidimensional_objects(self):
        a, b = np.zeros((4, 4)), np.ones((4, 4))
        assert L1().distance(a, b) == 16.0


class TestWeightedMinkowski:
    def test_unit_weights_match_plain_lp(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=5), rng.normal(size=5)
        weighted = WeightedMinkowski(2, np.ones(5))
        assert weighted.distance(a, b) == pytest.approx(L2().distance(a, b))

    def test_weights_emphasise_dimensions(self):
        # Weight 4 on dim 0 doubles its L2 contribution.
        metric = WeightedMinkowski(2, [4.0, 1.0])
        assert metric.distance([0, 0], [1, 0]) == pytest.approx(2.0)
        assert metric.distance([0, 0], [0, 1]) == pytest.approx(1.0)

    def test_batch_matches_singles(self):
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.5, 2.0, size=6)
        metric = WeightedMinkowski(2, weights)
        xs = rng.normal(size=(15, 6))
        y = rng.normal(size=6)
        np.testing.assert_allclose(
            metric.batch_distance(xs, y), [metric.distance(x, y) for x in xs]
        )

    def test_scale(self):
        metric = WeightedMinkowski(2, [1.0, 1.0], scale=5.0)
        assert metric.distance([0, 0], [3, 4]) == pytest.approx(1.0)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(5)
        metric = WeightedMinkowski(3, rng.uniform(0.1, 3.0, size=4))
        for __ in range(50):
            x, y, z = rng.normal(size=(3, 4))
            assert metric.distance(x, y) <= (
                metric.distance(x, z) + metric.distance(z, y) + 1e-9
            )
