"""Build one small, deterministic instance of every index class.

The ``repro-check invariants`` command needs a built index per class to
verify.  :func:`build_verification_indexes` constructs every class over
tiny synthetic datasets (a few dozen points) so the full sweep stays
fast while still exercising multi-level trees, the dynamic tree's
tombstone/rebuild machinery, the transform filter, and a sharded
serving deployment.  :func:`build_store_backed_indexes` reopens the
families with a ``.rsx`` writer from their stores.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.dynamic import DynamicMVPTree
from repro.core.gmvptree import GMVPTree
from repro.core.mvptree import MVPTree
from repro.datasets.timeseries import random_walk_series
from repro.datasets.vectors import uniform_vectors
from repro.datasets.words import synthetic_words
from repro.indexes.base import MetricIndex
from repro.indexes.bktree import BKTree
from repro.indexes.distance_matrix import DistanceMatrixIndex
from repro.indexes.ghtree import GHTree
from repro.indexes.gnat import GNAT
from repro.indexes.laesa import LAESA
from repro.indexes.linear import LinearScan
from repro.indexes.vptree import VPTree
from repro.metric.discrete import EditDistance
from repro.metric.minkowski import L2
from repro.serve.lifecycle import RebuildCoordinator
from repro.serve.sharding import ShardManager
from repro.transforms.filter import TransformIndex
from repro.transforms.fourier import DFTTransform


def build_verification_indexes(
    seed: int = 0, n: int = 48, only: Optional[Sequence[str]] = None
) -> dict[str, MetricIndex]:
    """Return ``{class name: built index}`` for every index class.

    ``seed`` drives every random choice (datasets and vantage-point
    selection), so repeated runs verify identical structures.  ``only``
    restricts construction to the named classes.
    """
    wanted = None if only is None else set(only)

    def skip(name: str) -> bool:
        return wanted is not None and name not in wanted

    indexes: dict[str, MetricIndex] = {}
    vectors = uniform_vectors(n, dim=8, rng=seed)
    metric = L2()

    if not skip("LinearScan"):
        indexes["LinearScan"] = LinearScan(vectors, metric)
    if not skip("VPTree"):
        indexes["VPTree"] = VPTree(
            vectors, metric, m=3, leaf_capacity=4, rng=seed
        )
    if not skip("GHTree"):
        indexes["GHTree"] = GHTree(vectors, metric, leaf_capacity=4, rng=seed)
    if not skip("GNAT"):
        indexes["GNAT"] = GNAT(
            vectors, metric, degree=4, leaf_capacity=4, rng=seed
        )
    if not skip("DistanceMatrixIndex"):
        indexes["DistanceMatrixIndex"] = DistanceMatrixIndex(
            vectors[: min(n, 24)], metric
        )
    if not skip("LAESA"):
        indexes["LAESA"] = LAESA(vectors, metric, n_pivots=5, rng=seed)
    if not skip("MVPTree"):
        indexes["MVPTree"] = MVPTree(vectors, metric, m=3, k=4, p=4, rng=seed)
    if not skip("GMVPTree"):
        indexes["GMVPTree"] = GMVPTree(
            vectors, metric, m=2, v=3, k=4, p=4, rng=seed
        )
    if not skip("DynamicMVPTree"):
        # Build over half the data, insert the rest, delete a few: the
        # verifier then sees tombstones, leaf rebuilds, and routed
        # inserts — the states unique to the dynamic tree.
        dynamic = DynamicMVPTree(
            vectors[: n // 2], metric, m=3, k=4, p=4, rng=seed
        )
        for row in vectors[n // 2 :]:
            dynamic.insert(row)
        for idx in range(0, n, max(1, n // 5)):
            dynamic.delete(idx)
        indexes["DynamicMVPTree"] = dynamic

    if not skip("ShardManager"):
        # A sharded deployment with more shards than strictly needed,
        # so the verifier also sees small partitions — replicated, so
        # replica placement coverage is exercised too — put through a
        # seeded churn so it is verified in its mutated states.
        manager = ShardManager(
            vectors,
            metric,
            n_shards=3,
            backend="vpt",
            replication_factor=2,
            rng=seed,
        )
        _churn(manager, seed)
        indexes["ShardManager"] = manager

    if not skip("BKTree"):
        words = synthetic_words(n, rng=seed)
        indexes["BKTree"] = BKTree(words, EditDistance())
    if not skip("TransformIndex"):
        series = random_walk_series(n, length=32, rng=seed)
        indexes["TransformIndex"] = TransformIndex(
            series, metric, DFTTransform(4)
        )

    return indexes


def _churn(manager: ShardManager, seed: int) -> None:
    """Seeded mutations over every write path: inserts (memtable
    rows); deletes of a base id, a memtable-only id and an id a split
    left tombstoned in its old base; one split, one merge and one
    rolling rebuild pass; then an insert and a delete left unfolded."""
    rng = np.random.default_rng([seed, 1])
    dim = manager.objects.shape[1]
    inserted = [manager.insert(row) for row in rng.random((6, dim))]
    live = manager.live_ids()
    manager.delete(live[int(rng.integers(len(live) - len(inserted)))])
    manager.delete(inserted[int(rng.integers(len(inserted)))])
    new_shard = manager.split_shard(0)
    moved = manager.shard_ids[new_shard]
    manager.delete(moved[int(rng.integers(len(moved)))])
    manager.merge_shards(new_shard, 0)
    tombstoned = sorted(
        set(manager.slot_state(0, 0)[1]) & set(manager.shard_ids[0])
    )
    manager.delete(tombstoned[int(rng.integers(len(tombstoned)))])
    RebuildCoordinator(manager, rng=seed).run_once()
    manager.insert(rng.random(dim))
    manager.delete(manager.shard_ids[1][0])


def build_store_backed_indexes(
    directory: Union[str, Path], seed: int = 0, n: int = 48
) -> dict[str, MetricIndex]:
    """Return ``{"StoreBackedIndex[<family>]": index}``: one store-backed
    index per family with a ``.rsx`` writer, the verification build of
    its class written to ``directory`` and reopened.  Close each when
    done."""
    from repro.store import open_index, store_family, write_store
    from repro.store.writer import FAMILY_CLASSES

    names = [cls.__name__ for cls in FAMILY_CLASSES.values()]
    indexes: dict[str, MetricIndex] = {}
    for index in build_verification_indexes(seed=seed, n=n, only=names).values():
        family = store_family(index)
        path = write_store(index, Path(directory) / f"{family}.rsx")
        indexes[f"StoreBackedIndex[{family}]"] = open_index(path, index.metric)
    return indexes
