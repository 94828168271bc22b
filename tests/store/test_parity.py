"""Byte-for-byte answer parity: StoreBackedIndex vs the in-memory tree.

The tentpole claim of ``repro.store``: searching an index reopened from
its ``.rsx`` file produces *identical* (distance, id) answers AND
identical :class:`QueryStats` to the in-memory structure it was written
from, for every supported family.  The store round-trips the exact
float64 construction distances and the exact leaf order, so the kernel
masks, prune decisions, and tie-breaks replay bit-for-bit — this suite
is the executable form of that argument.

A tree reaches both containers through one codec, so ``TestTreeCodec``
holds every tree three ways -- in memory, loaded from JSON persist and
opened from its ``.rsx`` -- and checks that they are one tree: the same
tables, the same node view, the same answers and ``QueryStats``.
"""

import json

import numpy as np
import pytest

from repro.approx import approx_knn_search
from repro.bench.digest import FAMILIES as DIGEST_BUILDS
from repro.core.gmvptree import GMVPTree
from repro.core.mvptree import MVPTree
from repro.indexes.gnat import GNAT
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.indexes.vptree import VPTree
from repro.metric import L2
from repro.obs.stats import QueryStats
from repro.persist import index_from_dict, index_to_dict
from repro.store import open_index, store_family, write_store

N, DIM = 160, 8
RADII = [0.15, 0.45, 0.9]
KS = [1, 5, 17]


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(5).random((N, DIM))


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(6)
    return [rng.random(DIM) for _ in range(4)] + [data[17]]


def build(family, data):
    metric = L2()
    rng = 11
    if family == "linear":
        return LinearScan(data, metric)
    if family == "vpt":
        return VPTree(data, metric, m=3, leaf_capacity=4, rng=rng)
    if family == "mvpt":
        return MVPTree(data, metric, m=3, k=13, p=4, rng=rng)
    if family == "gmvpt":
        return GMVPTree(data, metric, m=2, v=3, k=8, p=4, rng=rng)
    if family == "laesa":
        return LAESA(data, metric, n_pivots=6, rng=rng)
    if family == "gnat":
        return GNAT(data, metric, degree=4, leaf_capacity=4, rng=rng)
    raise AssertionError(family)


FAMILIES = ["linear", "vpt", "mvpt", "gmvpt", "laesa", "gnat"]


@pytest.fixture(scope="module", params=FAMILIES)
def pair(request, tmp_path_factory, data):
    family = request.param
    original = build(family, data)
    path = tmp_path_factory.mktemp("stores") / f"{family}.rsx"
    write_store(original, path)
    backed = open_index(path, L2())
    yield original, backed
    backed.close()


class TestAnswerParity:
    def test_family_tag_round_trips(self, pair):
        original, backed = pair
        assert backed.family == store_family(original)

    def test_range_answers_and_stats_identical(self, pair, queries):
        original, backed = pair
        for query in queries:
            for radius in RADII:
                s1, s2 = QueryStats(), QueryStats()
                expected = original.range_search(query, radius, stats=s1)
                actual = backed.range_search(query, radius, stats=s2)
                assert actual == expected
                assert s2.to_dict() == s1.to_dict()

    def test_knn_answers_and_stats_identical(self, pair, queries):
        original, backed = pair
        for query in queries:
            for k in KS:
                s1, s2 = QueryStats(), QueryStats()
                expected = original.knn_search(query, k, stats=s1)
                actual = backed.knn_search(query, k, stats=s2)
                assert actual == expected  # exact (distance, id) pairs
                assert s2.to_dict() == s1.to_dict()

    def test_len_matches(self, pair):
        original, backed = pair
        assert len(backed) == len(original.objects)


class TestApproximateKnnParity:
    @pytest.mark.parametrize("family", ["vpt", "mvpt", "gmvpt"])
    def test_epsilon_knn_identical(self, family, data, queries, tmp_path):
        original = build(family, data)
        path = tmp_path / f"{family}.rsx"
        write_store(original, path)
        with open_index(path, L2()) as backed:
            for query in queries[:2]:
                for epsilon in (0.1, 0.5):
                    s1, s2 = QueryStats(), QueryStats()
                    expected = original.knn_search(
                        query, 5, epsilon=epsilon, stats=s1
                    )
                    actual = backed.knn_search(
                        query, 5, epsilon=epsilon, stats=s2
                    )
                    assert actual == expected
                    assert s2.to_dict() == s1.to_dict()

    def test_negative_epsilon_rejected(self, data, tmp_path):
        path = tmp_path / "vpt.rsx"
        write_store(build("vpt", data), path)
        with open_index(path, L2()) as backed:
            with pytest.raises(ValueError, match="epsilon"):
                backed.knn_search(data[0], 3, epsilon=-0.1)

    def test_gnat_epsilon_rejected(self, data, tmp_path):
        # In-memory GNAT k-NN has no epsilon parameter, so the backed
        # view refuses it too rather than silently answering exactly.
        path = tmp_path / "gnat.rsx"
        write_store(build("gnat", data), path)
        with open_index(path, L2()) as backed:
            with pytest.raises(ValueError, match="epsilon"):
                backed.knn_search(data[0], 3, epsilon=0.5)


class TestDeterministicBytes:
    def test_same_index_same_bytes(self, data, tmp_path):
        from repro.store.writer import store_bytes

        original = build("mvpt", data)
        assert store_bytes(original) == store_bytes(original)

    def test_same_build_same_file(self, data, tmp_path):
        a, b = tmp_path / "a.rsx", tmp_path / "b.rsx"
        write_store(build("vpt", data), a)
        write_store(build("vpt", data), b)
        assert a.read_bytes() == b.read_bytes()


class TestWriterValidation:
    def test_unsupported_family_refused(self, data):
        from repro.core.dynamic import DynamicMVPTree

        dynamic = DynamicMVPTree(data[:40], L2(), m=3, k=4, p=4, rng=0)
        with pytest.raises(TypeError, match="store"):
            write_store(dynamic, "/tmp/never-written.rsx")

    def test_trace_events_identical(self, data, queries, tmp_path):
        from repro.obs.trace import RecordingTraceSink

        original = build("vpt", data)
        path = tmp_path / "vpt.rsx"
        write_store(original, path)
        with open_index(path, L2()) as backed:
            t1, t2 = RecordingTraceSink(), RecordingTraceSink()
            original.range_search(queries[0], 0.5, trace=t1)
            backed.range_search(queries[0], 0.5, trace=t2)
            assert t2.events == t1.events


#: The ``repro-bench digest`` tree builds, plus trees that are one leaf
#: (no internal node, so every internal table is empty).
CODEC_BUILDS = {
    **DIGEST_BUILDS,
    "vpt-one-leaf": lambda d, m: VPTree(d[:12], m, leaf_capacity=16, rng=1),
    "mvpt-one-leaf": lambda d, m: MVPTree(d[:12], m, m=3, k=13, p=4, rng=1),
}


def _json_loaded(tree):
    text = json.dumps(index_to_dict(tree))
    return index_from_dict(json.loads(text), tree.objects, L2())


def _node_form(node):
    """A node graph as nested lists (recursive; depth <= tree height).
    D_t and PATH blocks are compared flat: a leaf without points may
    hold an empty block of either shape."""
    if node is None:
        return None
    form = {"type": type(node).__name__}
    for name in type(node).__slots__:
        value = getattr(node, name)
        if name == "children":
            value = [_node_form(child) for child in value]
        elif name in ("dists", "paths"):
            value = np.asarray(value).ravel().tolist()
        form[name] = value
    return form


@pytest.fixture(scope="module")
def codec_data():
    return np.random.default_rng(8).random((600, DIM))


@pytest.fixture(scope="module", params=sorted(CODEC_BUILDS))
def codec_trio(request, tmp_path_factory, codec_data):
    """One tree in memory, loaded from JSON and opened from its
    ``.rsx`` (``None`` for the dynamic tree, which has no writer)."""
    tree = CODEC_BUILDS[request.param](codec_data, L2())
    stored = None
    if request.param != "dynamic-churn":
        path = tmp_path_factory.mktemp("codec") / "tree.rsx"
        stored = open_index(write_store(tree, path), L2())
    yield tree, _json_loaded(tree), stored
    if stored is not None:
        stored.close()


def _copies(trio):
    tree, loaded, stored = trio
    return [loaded] + ([] if stored is None else [stored._impl])


class TestTreeCodec:
    def test_every_table_is_equal(self, codec_trio):
        tables = codec_trio[0]._tables()
        names = type(tables).__slots__
        for copy in _copies(codec_trio):
            other = copy._tables()
            assert type(other) is type(tables)
            for name in names:
                want, got = getattr(tables, name, None), getattr(other, name, None)
                if name == "sizes":
                    want, got = np.concatenate(want), np.concatenate(got)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype, name
                    assert got.shape == want.shape, name
                    np.testing.assert_array_equal(got, want, err_msg=name)
                else:
                    assert got == want, name

    def test_root_views_are_equal(self, codec_trio):
        want = _node_form(codec_trio[0].root)
        for copy in _copies(codec_trio):
            assert _node_form(copy.root) == want

    def test_answers_and_stats_are_equal(self, codec_trio, queries):
        tree, loaded, stored = codec_trio
        indexes = [tree, loaded] + ([] if stored is None else [stored])
        for query in queries:
            calls = [
                lambda i, s: i.range_search(query, 0.9, stats=s),
                lambda i, s: i.knn_search(query, 10, stats=s),
                lambda i, s: approx_knn_search(i, query, 10, budget=120, stats=s),
            ]
            for call in calls:
                results = []
                for index in indexes:
                    stats = QueryStats()
                    results.append((call(index, stats), stats.to_dict()))
                assert all(result == results[0] for result in results[1:])

    def test_stored_tree_maps_the_points(self, codec_trio):
        stored = codec_trio[2]
        if stored is None:
            pytest.skip("the dynamic tree has no store writer")
        points = stored.store.section("points")
        assert np.shares_memory(stored._impl.objects, points)


def test_json_loaded_dynamic_tree_takes_the_same_updates(codec_data, queries):
    """A JSON-loaded ``DynamicMVPTree`` accepts the inserts and deletes
    the original does (leaf rebuilds included) and answers the same
    afterwards."""
    original = CODEC_BUILDS["dynamic-churn"](codec_data, L2())
    loaded = _json_loaded(original)
    extra = np.random.default_rng(9).random((300, DIM))
    for tree in (original, loaded):
        for row in extra:
            tree.insert(row)
        for idx in range(1, len(tree.objects), 7):
            if tree.is_live(idx):
                tree.delete(idx)
    assert loaded.removed_ids == original.removed_ids
    assert loaded.leaf_rebuild_count > 0
    for query in queries:
        assert loaded.knn_search(query, 10) == original.knn_search(query, 10)
        assert loaded.range_search(query, 0.9) == original.range_search(query, 0.9)
