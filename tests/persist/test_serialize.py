"""Round-trip tests for index serialisation."""

import json

import numpy as np
import pytest

from repro import GNAT, BKTree, GHTree, LinearScan, MVPTree, VPTree
from repro.indexes.base import MetricIndex
from repro.metric import L2, EditDistance
from repro.persist import index_from_dict, index_to_dict, load_index, save_index


def roundtrip(index, objects, metric):
    """Encode to JSON text and decode back (catching non-JSON leaks)."""
    payload = json.loads(json.dumps(index_to_dict(index)))
    return index_from_dict(payload, objects, metric)


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(0).random((150, 6))


@pytest.fixture(scope="module")
def queries():
    return [np.random.default_rng(1).random(6) for __ in range(5)]


class TestRoundTrips:
    def test_vptree(self, data, queries):
        metric = L2()
        original = VPTree(data, metric, m=3, leaf_capacity=2, rng=0)
        restored = roundtrip(original, data, metric)
        for query in queries:
            assert restored.range_search(query, 0.5) == original.range_search(
                query, 0.5
            )
            assert [n.id for n in restored.knn_search(query, 5)] == [
                n.id for n in original.knn_search(query, 5)
            ]
        assert restored.m == 3
        assert restored.height == original.height

    def test_mvptree(self, data, queries):
        metric = L2()
        original = MVPTree(data, metric, m=3, k=9, p=4, rng=0)
        restored = roundtrip(original, data, metric)
        for query in queries:
            assert restored.range_search(query, 0.5) == original.range_search(
                query, 0.5
            )
            assert [n.id for n in restored.knn_search(query, 5)] == [
                n.id for n in original.knn_search(query, 5)
            ]
        assert (restored.m, restored.k, restored.p) == (3, 9, 4)
        assert restored.vantage_point_count == original.vantage_point_count

    def test_mvptree_path_arrays_survive(self, data):
        # The serialised form must preserve the precomputed PATH
        # distances exactly, since they drive leaf filtering.
        from repro.core.gmvptree import GMVPLeafNode

        metric = L2()
        original = MVPTree(data, metric, m=2, k=6, p=3, rng=1)
        restored = roundtrip(original, data, metric)

        def leaves(node, out):
            if node is None:
                return
            if isinstance(node, GMVPLeafNode):
                out.append(node)
                return
            for child in node.children:
                leaves(child, out)

        original_leaves: list = []
        restored_leaves: list = []
        leaves(original.root, original_leaves)
        leaves(restored.root, restored_leaves)
        assert len(original_leaves) == len(restored_leaves)
        for a, b in zip(original_leaves, restored_leaves):
            assert a.ids == b.ids
            np.testing.assert_allclose(a.paths, b.paths)
            # D1/D2 are the rows of ``dists``.
            np.testing.assert_allclose(a.dists, b.dists)

    def test_ghtree(self, data, queries):
        metric = L2()
        original = GHTree(data, metric, leaf_capacity=3, rng=0)
        restored = roundtrip(original, data, metric)
        for query in queries:
            assert restored.range_search(query, 0.4) == original.range_search(
                query, 0.4
            )

    def test_gnat(self, data, queries):
        metric = L2()
        original = GNAT(data, metric, degree=5, rng=0)
        restored = roundtrip(original, data, metric)
        for query in queries:
            assert restored.range_search(query, 0.4) == original.range_search(
                query, 0.4
            )
            assert [n.id for n in restored.knn_search(query, 3)] == [
                n.id for n in original.knn_search(query, 3)
            ]

    def test_bktree(self, word_data):
        metric = EditDistance()
        original = BKTree(word_data, metric)
        restored = roundtrip(original, word_data, metric)
        assert restored.range_search("banana", 2) == original.range_search(
            "banana", 2
        )
        assert len(restored) == len(original)

    def test_linear_scan(self, data, queries):
        metric = L2()
        original = LinearScan(data, metric)
        restored = roundtrip(original, data, metric)
        assert restored.range_search(queries[0], 0.5) == original.range_search(
            queries[0], 0.5
        )


class TestFileIO:
    def test_save_and_load(self, data, queries, tmp_path):
        metric = L2()
        original = MVPTree(data, metric, m=2, k=8, p=2, rng=0)
        path = tmp_path / "tree.json"
        save_index(original, path)
        restored = load_index(path, data, metric)
        assert restored.range_search(queries[0], 0.6) == original.range_search(
            queries[0], 0.6
        )

    def test_file_is_valid_json(self, data, tmp_path):
        path = tmp_path / "tree.json"
        save_index(VPTree(data, L2(), rng=0), path)
        with path.open() as handle:
            payload = json.load(handle)
        assert payload["type"] == "VPTree"


class TestValidation:
    def test_dataset_size_mismatch_rejected(self, data):
        metric = L2()
        payload = index_to_dict(VPTree(data, metric, rng=0))
        with pytest.raises(ValueError, match="size mismatch"):
            index_from_dict(payload, data[:10], metric)

    def test_unknown_format_rejected(self, data):
        metric = L2()
        payload = index_to_dict(VPTree(data, metric, rng=0))
        payload["format"] = 999
        with pytest.raises(ValueError, match="format"):
            index_from_dict(payload, data, metric)

    def test_unknown_type_rejected(self, data):
        metric = L2()
        payload = index_to_dict(VPTree(data, metric, rng=0))
        payload["type"] = "BTree"
        with pytest.raises(ValueError, match="unknown index type"):
            index_from_dict(payload, data, metric)

    def test_unserialisable_index_rejected(self, data):
        class Opaque(MetricIndex):
            def range_search(self, query, radius, *, stats=None, trace=None):
                return []

            def knn_search(self, query, k, *, stats=None, trace=None):
                return []

        with pytest.raises(TypeError, match="cannot serialise"):
            index_to_dict(Opaque(data[:20], L2()))

    def test_non_dft_transform_rejected(self, data):
        from repro import TransformIndex
        from repro.transforms.base import DistancePreservingTransform

        class Identity(DistancePreservingTransform):
            @property
            def target_metric(self):
                return L2()

            def transform(self, obj):
                return obj

        index = TransformIndex(data[:20], L2(), Identity())
        with pytest.raises(TypeError, match="only DFTTransform"):
            index_to_dict(index)
