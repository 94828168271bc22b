"""k-NN tie-breaking audit: every class orders ties by ``(distance, id)``.

Crafted datasets where many points are *exactly* equidistant from the
query (unit basis vectors and their negations, duplicated points,
fixed-distance edit neighbourhoods) force the tie-break path in every
index class, the dynamic tree after churn, and the sharded k-NN merge.
"""

import numpy as np
import pytest

from repro import (
    GNAT,
    LAESA,
    BKTree,
    DistanceMatrixIndex,
    DynamicMVPTree,
    GHTree,
    GMVPTree,
    LinearScan,
    MVPTree,
    TransformIndex,
    VPTree,
)
from repro.metric import L2, EditDistance
from repro.serve.engine import Query, QueryEngine
from repro.serve.sharding import ShardManager
from repro.transforms import DFTTransform


def two_rings():
    """16 points in R^4: ids alternate between L2 distance 1 and 2.

    Ring 1 is ±e_i (distance exactly 1 from the origin), ring 2 is
    ±2e_i (distance exactly 2) — both exact in binary floating point,
    so every within-ring comparison is a true tie.
    """
    ring1 = [row for i in range(4) for row in (np.eye(4)[i], -np.eye(4)[i])]
    ring2 = [2.0 * row for row in ring1]
    data = []
    for near, far in zip(ring1, ring2):
        data.extend([near, far])
    return np.asarray(data), np.zeros(4)


def expected_order(data, query, metric=None):
    metric = metric or L2()
    distances = [metric.distance(query, row) for row in data]
    return [i for _, i in sorted((d, i) for i, d in enumerate(distances))]


def vector_indexes(data):
    """Every vector-capable index class over ``data`` (11 of 12)."""
    metric = L2()
    dynamic = DynamicMVPTree(data[: len(data) // 2], metric, m=2, k=4, p=2, rng=0)
    for row in data[len(data) // 2 :]:
        dynamic.insert(row)
    return {
        "LinearScan": LinearScan(data, metric),
        "VPTree": VPTree(data, metric, m=2, leaf_capacity=3, rng=0),
        "MVPTree": MVPTree(data, metric, m=2, k=4, p=2, rng=0),
        "GMVPTree": GMVPTree(data, metric, m=2, v=2, k=4, p=2, rng=0),
        "DynamicMVPTree": dynamic,
        "GHTree": GHTree(data, metric, leaf_capacity=3, rng=0),
        "GNAT": GNAT(data, metric, degree=3, leaf_capacity=3, rng=0),
        "LAESA": LAESA(data, metric, n_pivots=3, rng=0),
        "DistanceMatrixIndex": DistanceMatrixIndex(data, metric),
        "TransformIndex": TransformIndex(
            data, metric, DFTTransform(2, series_length=data.shape[1])
        ),
        "ShardManager": ShardManager(
            data, metric, n_shards=3, backend="vpt", assignment="round-robin", rng=0
        ),
    }


class TestVectorTies:
    @pytest.mark.parametrize("k", [3, 8, 11, 16])
    def test_two_ring_ties_break_by_id(self, k):
        data, query = two_rings()
        want = expected_order(data, query)[:k]
        for name, index in vector_indexes(data).items():
            got = [n.id for n in index.knn_search(query, k)]
            assert got == want, f"{name} k={k}: {got} != {want}"

    def test_all_identical_points(self):
        data = np.tile([0.25, 0.5, 0.75], (10, 1))
        query = np.asarray([0.25, 0.5, 0.75])
        for name, index in vector_indexes(data).items():
            got = [n.id for n in index.knn_search(query, 6)]
            assert got == list(range(6)), f"{name}: {got}"
            assert all(n.distance == 0.0 for n in index.knn_search(query, 6))

    def test_neighbor_lists_are_fully_sorted(self):
        data, query = two_rings()
        for name, index in vector_indexes(data).items():
            result = index.knn_search(query, len(data))
            assert result == sorted(result), f"{name} returned unsorted ties"


class TestDynamicAfterChurn:
    def test_delete_inside_tie_group_skips_only_that_id(self):
        data, query = two_rings()
        tree = DynamicMVPTree(data[:8], L2(), m=2, k=4, p=2, rng=1)
        for row in data[8:]:
            tree.insert(row)
        want = expected_order(data, query)
        victim = want[2]
        tree.delete(victim)
        got = [n.id for n in tree.knn_search(query, 8)]
        assert got == [i for i in want if i != victim][:8]


def duplicate_heavy():
    """2,000 points in R^6, 400 of them exact copies of the query at
    ids spread over the whole dataset: the k-th distance's tie group
    (distance 0) spans many leaves and many frontier batches."""
    rng = np.random.default_rng(7)
    data = rng.random((2000, 6))
    query = rng.random(6)
    data[np.sort(rng.choice(len(data), 400, replace=False))] = query
    return data, query


class TestTieGroupAcrossBatches:
    @staticmethod
    def trees(data, tmp_path):
        from repro.store import open_index, write_store

        metric = L2()
        out = {
            "VPTree": VPTree(data, metric, m=2, leaf_capacity=4, rng=0),
            "MVPTree": MVPTree(data, metric, m=3, k=13, p=4, rng=0),
            "GMVPTree": GMVPTree(data, metric, m=2, v=3, k=8, p=4, rng=0),
        }
        for family in ("VPTree", "MVPTree"):
            path = tmp_path / f"{family}.rsx"
            write_store(out[family], path)
            out[f"store-{family}"] = open_index(path, metric)
        return out

    @pytest.mark.parametrize("k", [10, 50])
    def test_smallest_ids_win_the_tie(self, k, tmp_path):
        from repro.approx import approx_knn_search

        data, query = duplicate_heavy()
        want = expected_order(data, query)[:k]
        for name, index in self.trees(data, tmp_path).items():
            got = index.knn_search(query, k)
            assert [n.id for n in got] == want, f"{name} k={k}"
            assert all(n.distance == 0.0 for n in got)
            approx, report = approx_knn_search(index, query, k, budget=None)
            assert approx == got and report.exact, f"{name} approx k={k}"

    @pytest.mark.parametrize("k", [10, 50])
    def test_dynamic_deletes_inside_the_tie_group(self, k):
        from repro.approx import approx_knn_search

        data, query = duplicate_heavy()
        tree = DynamicMVPTree(data[:1000], L2(), m=3, k=13, p=4, rng=0)
        for row in data[1000:]:
            tree.insert(row)
        ties = expected_order(data, query)[:400]
        victims = ties[:5] + ties[k - 2 : k + 2] + ties[200:203]
        for victim in victims:
            tree.delete(victim)
        want = [i for i in ties if i not in victims][:k]
        assert [n.id for n in tree.knn_search(query, k)] == want
        approx, report = approx_knn_search(tree, query, k, budget=None)
        assert [n.id for n in approx] == want and report.exact


class TestEditDistanceTies:
    def test_bktree_tie_order(self):
        # Every word is at edit distance exactly 1 from "aaaa".
        words = ["aaab", "aaba", "abaa", "baaa", "aaa", "aaaaa", "aaac"]
        tree = BKTree(words, EditDistance())
        got = tree.knn_search("aaaa", 5)
        assert [n.id for n in got] == [0, 1, 2, 3, 4]
        assert all(n.distance == 1.0 for n in got)

    def test_bktree_mixed_distances(self):
        words = ["aabb", "aaab", "bbbb", "aaba", "abbb"]
        tree = BKTree(words, EditDistance())
        want = expected_order(words, "aaaa", EditDistance())
        assert [n.id for n in tree.knn_search("aaaa", 5)] == want


class TestShardedMerge:
    @pytest.mark.parametrize("assignment", ["round-robin", "contiguous"])
    @pytest.mark.parametrize("backend", ["linear", "vpt", "laesa"])
    def test_merge_knn_is_globally_id_ordered(self, assignment, backend):
        data, query = two_rings()
        manager = ShardManager(
            data, L2(), n_shards=3, backend=backend, assignment=assignment, rng=0
        )
        want = expected_order(data, query)[:10]
        assert [n.id for n in manager.knn_search(query, 10)] == want

    def test_engine_batch_preserves_tie_order(self):
        data, query = two_rings()
        manager = ShardManager(
            data, L2(), n_shards=4, backend="vpt", assignment="contiguous", rng=0
        )
        with QueryEngine(manager, workers=3) as engine:
            batch = engine.run_batch([Query.knn(query, 12)] * 4)
        want = expected_order(data, query)[:12]
        for result in batch.results:
            assert [n.id for n in result.neighbors] == want
