"""Round-trip tests for the transform-based structures.

``TransformIndex`` closes the last persistence gap among the
verification index classes: the serialised form records only the DFT
parameters (the transformed dataset is a pure function of the objects
and those parameters, recomputed on load with zero metric
evaluations).  ``SubsequenceIndex`` nests one level deeper: the series
list is the dataset, the windows are recomputed, and the window-level
index decodes recursively.
"""

import json

import numpy as np
import pytest

from repro import TransformIndex
from repro.transforms import SubsequenceIndex
from repro.metric import L2
from repro.metric.base import CountingMetric
from repro.persist import (
    PERSIST_COVERAGE,
    index_from_dict,
    index_to_dict,
    load_index,
    save_index,
)
from repro.transforms import DFTTransform


@pytest.fixture(scope="module")
def series_data():
    rng = np.random.default_rng(21)
    return np.cumsum(rng.standard_normal((120, 32)), axis=1)


@pytest.fixture(scope="module")
def queries(series_data):
    return [series_data[i] + 0.05 * (i + 1) for i in (0, 7, 42)]


class TestTransformIndexRoundTrip:
    def test_queries_survive(self, series_data, queries):
        metric = L2()
        original = TransformIndex(series_data, metric, DFTTransform(4))
        restored = index_from_dict(
            json.loads(json.dumps(index_to_dict(original))), series_data, metric
        )
        for query in queries:
            assert restored.range_search(query, 2.0) == original.range_search(
                query, 2.0
            )
            assert restored.knn_search(query, 5) == original.knn_search(query, 5)

    def test_stats_identical_after_restore(self, series_data, queries):
        from repro.obs.stats import QueryStats

        metric = L2()
        original = TransformIndex(series_data, metric, DFTTransform(4))
        restored = index_from_dict(
            index_to_dict(original), series_data, metric
        )
        s1, s2 = QueryStats(), QueryStats()
        original.knn_search(queries[0], 3, stats=s1)
        restored.knn_search(queries[0], 3, stats=s2)
        assert s1.to_dict() == s2.to_dict()

    def test_load_costs_zero_metric_calls(self, series_data):
        payload = index_to_dict(
            TransformIndex(series_data, L2(), DFTTransform(3))
        )
        counter = CountingMetric(L2())
        index_from_dict(payload, series_data, counter)
        assert counter.count == 0

    def test_transform_params_survive(self, series_data, tmp_path):
        original = TransformIndex(
            series_data, L2(), DFTTransform(5, series_length=32)
        )
        path = tmp_path / "transform.json"
        save_index(original, path)
        restored = load_index(path, series_data, L2())
        assert restored.transform.n_coefficients == 5
        assert restored.transform.series_length == 32
        np.testing.assert_array_equal(
            restored.transformed, original.transformed
        )


class TestSubsequenceIndexRoundTrip:
    def test_matches_survive(self, series_data):
        metric = L2()
        series = [row for row in series_data[:12]]
        original = SubsequenceIndex(series, metric, window=16, stride=2)
        restored = index_from_dict(
            json.loads(json.dumps(index_to_dict(original))), series, metric
        )
        pattern = series[3][10:26]
        assert restored.range_search(pattern, 1.5) == original.range_search(
            pattern, 1.5
        )
        assert restored.knn_search(pattern, 4) == original.knn_search(pattern, 4)
        assert restored.n_windows == original.n_windows

    def test_series_count_guard(self, series_data):
        series = [row for row in series_data[:6]]
        payload = index_to_dict(SubsequenceIndex(series, L2(), window=16))
        assert payload["n_objects"] == 6
        with pytest.raises(ValueError, match="size mismatch"):
            index_from_dict(payload, series[:4], L2())


class TestPersistCoverage:
    def test_every_verification_class_has_an_entry(self):
        from repro.check.builders import build_verification_indexes

        built = build_verification_indexes(seed=0, n=24)
        for name in built:
            assert name in PERSIST_COVERAGE, name

    def test_supported_entries_actually_serialise(self):
        from repro.check.builders import build_verification_indexes

        built = build_verification_indexes(seed=0, n=24)
        for name, index in built.items():
            if PERSIST_COVERAGE[name] == "supported":
                assert index_to_dict(index)["format"] == 4

    def test_store_backed_entry_is_explicit(self):
        assert PERSIST_COVERAGE["StoreBackedIndex"].startswith("unsupported")
        assert "repro.store.open_index" in PERSIST_COVERAGE["StoreBackedIndex"]
