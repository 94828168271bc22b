"""Evaluation-sequence digest: one SHA-256 per pinned (family, data set,
call).

``repro-bench digest`` builds every tree family over two pinned data
sets, runs a fixed query mix against each, and prints one line per
input and call of the mix (``knn k=…``, ``bknn b=… eps=…``, ``range``,
``brange b=…``)::

    <family> <data set> <call> <sha256>

Each input also gets one ``build`` line first.  For a tree it hashes
the persisted form (:func:`repro.persist.index_to_dict` as sorted-key
JSON), the node counters and the construction distance count; the
persisted form is the tree codec's, so the line covers the tree's flat
tables themselves, cutoffs included, with their dtypes and shapes.  For
a store-backed input it hashes the bytes of its ``.rsx`` file, which
hold the same tables.  Equal build lines mean two code versions build
the same tree at the same cost.

The sharded inputs (:data:`SHARDED`) are sequential
:class:`~repro.serve.ShardManager` deployments over one data set each,
searched through the manager's own entry points with the same mix; their
``build`` line hashes the persisted manager (every shard's tree and the
id assignment).

The hash covers, per query of that call and in order: the answer, every
:class:`~repro.obs.QueryStats` field, the
:class:`~repro.approx.ApproxReport` (budgeted calls), and the ordered
ids the metric was asked to evaluate, recorded by a wrapping metric.
Two code versions that print the same line answer that call the same,
count the same, certify the same, and pay the same distances in the
same order; a change to one kind of search moves only its own lines.

The module imports only public APIs, so the same file also runs as a
script against another checkout's sources::

    PYTHONPATH=other/src python src/repro/bench/digest.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import DynamicMVPTree, GMVPTree, MVPTree, QueryStats, VPTree
from repro.approx import approx_knn_search, approx_range_search
from repro.datasets import clustered_vectors, uniform_vectors
from repro.metric import L2, CountingMetric, Metric
from repro.persist import index_to_dict
from repro.serve import ShardManager
from repro.store import open_index, write_store


def _dynamic(points: np.ndarray, metric: Metric):
    """A ``DynamicMVPTree`` after inserts and deletes."""
    rng = np.random.default_rng(3)
    tree = DynamicMVPTree(points[:-400], metric, m=3, k=9, p=4, rng=1)
    for row in points[-400:]:
        tree.insert(row)
    for idx in rng.choice(len(points), size=150, replace=False):
        tree.delete(int(idx))
    return tree


#: ``name -> builder(points, metric)``.
FAMILIES = {
    "vpt-m2-leaf4": lambda d, m: VPTree(d, m, m=2, leaf_capacity=4, rng=1),
    "vpt-m3": lambda d, m: VPTree(d, m, m=3, rng=1),
    "mvpt-tight": lambda d, m: MVPTree(d, m, m=3, k=13, p=4, bounds="tight", rng=1),
    "mvpt-cutoff": lambda d, m: MVPTree(d, m, m=3, k=13, p=4, bounds="cutoff", rng=1),
    "gmvpt-v3": lambda d, m: GMVPTree(d, m, m=2, v=3, k=8, p=4, rng=1),
    "dynamic-churn": _dynamic,
}
#: Store-backed inputs: each reopens the named build from its ``.rsx``.
STORED = {
    "store-vpt": "vpt-m2-leaf4",
    "store-mvpt": "mvpt-tight",
    "store-gmvpt": "gmvpt-v3",
}


def _sharded(backend: str, n_shards: int):
    """A builder of a sequential ``ShardManager`` over ``n_shards``
    round-robin shards of ``backend``."""
    return lambda d, m: ShardManager(d, m, n_shards=n_shards, backend=backend, rng=1)


#: Sharded inputs: ``name -> (data set, builder(points, metric))``.
SHARDED = {
    "shard2-vpt": ("uniform-10kx16", _sharded("vpt", 2)),
    "shard2-mvpt": ("clustered-25kx20", _sharded("mvpt", 2)),
    "shard4-mvpt": ("clustered-25kx20", _sharded("mvpt", 4)),
}

QUERIES = 5
EXACT_K = (1, 10, 110)
BUDGETS = (100, 1000)
EPSILONS = (0.0, 0.5)
RANGE_BUDGET = 300


def datasets() -> dict:
    """``name -> (points, range radius)``."""
    return {
        "uniform-10kx16": (uniform_vectors(10_000, dim=16, rng=0), 0.9),
        "clustered-25kx20": (
            clustered_vectors(25, 1000, dim=20, epsilon=0.15, rng=0),
            0.7,
        ),
    }


class RecordingMetric(Metric):
    """L2 that records the id of every object it is asked to evaluate
    while ``recording`` is set (row bytes map back to ids)."""

    def __init__(self, points: np.ndarray):
        self.inner = L2()
        self.ids = {row.tobytes(): i for i, row in enumerate(points)}
        if len(self.ids) != len(points):
            raise ValueError("duplicate rows: ids would be ambiguous")
        self.recording = False
        self.seen: list[int] = []

    def _record(self, rows) -> None:
        if self.recording:
            matrix = np.asarray(rows, dtype=np.float64).reshape(len(rows), -1)
            self.seen.extend(self.ids[row.tobytes()] for row in matrix)

    def distance(self, a, b) -> float:
        self._record([a])
        return self.inner.distance(a, b)

    def batch_distance(self, xs: Sequence, y) -> np.ndarray:
        if len(xs):
            self._record(xs)
        return self.inner.batch_distance(xs, y)


def _query_points(points: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(11)
    rows = points[rng.integers(len(points), size=QUERIES)]
    return rows + rng.uniform(-0.05, 0.05, size=rows.shape)


def _calls(index, radius: float):
    """The pinned query mix: ``(label, fn(query, stats))`` pairs."""
    calls = [
        (f"knn k={k}", lambda q, s, k=k: (index.knn_search(q, k, stats=s), None))
        for k in EXACT_K
    ]
    calls += [
        (
            f"bknn b={b} eps={e}",
            lambda q, s, b=b, e=e: approx_knn_search(
                index, q, 10, budget=b, epsilon=e, stats=s
            ),
        )
        for b in BUDGETS
        for e in EPSILONS
    ]
    calls.append(("range", lambda q, s: (index.range_search(q, radius, stats=s), None)))
    calls.append(
        (
            f"brange b={RANGE_BUDGET}",
            lambda q, s: approx_range_search(
                index, q, radius, budget=RANGE_BUDGET, stats=s
            ),
        )
    )
    return calls


def digest_index(index, metric: RecordingMetric, queries, radius: float):
    """Yield ``(call label, SHA-256)`` for each call of the pinned query
    mix against ``index``."""
    for label, call in _calls(index, radius):
        sha = hashlib.sha256()
        for q in queries:
            stats = QueryStats()
            metric.seen = []
            metric.recording = True
            try:
                answer, report = call(q, stats)
            finally:
                metric.recording = False
            record = {
                "call": label,
                "answer": [
                    [float(n.distance), int(n.id)] if hasattr(n, "id") else int(n)
                    for n in answer
                ],
                "stats": stats.to_dict(),
                "report": None if report is None else report.to_dict(),
                "evaluated": metric.seen,
            }
            sha.update(json.dumps(record, sort_keys=True).encode())
        yield label, sha.hexdigest()


#: Node counters a ``build`` line covers (``None`` where a family has none).
COUNTERS = (
    "node_count",
    "leaf_count",
    "internal_count",
    "vantage_point_count",
    "leaf_data_point_count",
    "height",
)


def digest_build(index, construction: int) -> str:
    """SHA-256 of a built tree: its persisted form, its node counters
    and the distances its construction paid."""
    record = {
        "tree": index_to_dict(index),
        "counters": {name: getattr(index, name, None) for name in COUNTERS},
        "construction": construction,
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def run_digest(workdir: Path):
    """Yield ``(family, data set, call label, digest)`` for every pinned
    input and call, each input's ``build`` line first."""
    for data_name, (points, radius) in datasets().items():
        queries = _query_points(points)
        built = {}
        for family, builder in FAMILIES.items():
            metric = RecordingMetric(points)
            counting = CountingMetric(metric)
            index = built[family] = builder(points, counting)
            yield family, data_name, "build", digest_build(index, counting.count)
            for label, digest in digest_index(index, metric, queries, radius):
                yield family, data_name, label, digest
        for family, (on, builder) in SHARDED.items():
            if on != data_name:
                continue
            metric = RecordingMetric(points)
            counting = CountingMetric(metric)
            index = builder(points, counting)
            yield family, data_name, "build", digest_build(index, counting.count)
            for label, digest in digest_index(index, metric, queries, radius):
                yield family, data_name, label, digest
        for family, source in STORED.items():
            path = workdir / f"{data_name}-{family}.rsx"
            write_store(built[source], path)
            stored = hashlib.sha256(path.read_bytes()).hexdigest()
            yield family, data_name, "build", stored
            metric = RecordingMetric(points)
            index = open_index(path, metric)
            try:
                for label, digest in digest_index(index, metric, queries, radius):
                    yield family, data_name, label, digest
            finally:
                index.close()


def digest_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-bench digest`` entry point."""
    argparse.ArgumentParser(
        prog="repro-bench digest",
        description=(
            "Print one SHA-256 per pinned (family, data set, call) over "
            "answers, QueryStats, ApproxReports and the ordered evaluated ids."
        ),
    ).parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        for family, data_name, label, digest in run_digest(Path(workdir)):
            print(f"{family} {data_name} {label} {digest}", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(digest_main())
