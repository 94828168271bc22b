"""Background lifecycle for a sharded deployment (ROADMAP item 5).

The paper's structures are bulk-built from global quantile statistics,
so sustained churn (inserts landing in memtables, deletes accumulating
as tombstones) degrades pruning — and per Pestov's lower-bound analysis
no amount of extra search effort papers over a degraded structure.  The
:class:`RebuildCoordinator` is the background half of the fix: it
watches a :class:`~repro.serve.sharding.ShardManager` for churned or
skewed shards, rebuilds fresh base indexes over each shard's *current*
live id-set with the manager's lock released, and swaps them in
atomically via :meth:`~repro.serve.sharding.ShardManager.swap_replica` —
rolling, replica-by-replica, so at every instant every shard keeps at
least ``replication_factor - 1`` untouched replicas serving and no
query ever observes a half-swapped epoch.  A read-only base is built
once per roll and swapped into every replica slot in turn.

Zero-downtime contract.  A rebuild never blocks queries: dataset
snapshots and swaps each hold ``_replicas_lock`` briefly, construction
(the expensive part, distance-wise) runs outside it, and in-flight
queries finish against the detached old base, which is never mutated
once swapped out.  Mutations that land *during* a rebuild are
reconciled at swap time — deleted points are tombstoned out of the new
base, inserted ones route through the shard memtable — so answers stay
exact throughout (the ``churn`` chaos campaign in
:mod:`repro.resilience.chaos` asserts exactly this while killing
replicas mid-roll).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro._util import RngLike, as_rng
from repro.serve.sharding import ShardManager


class RebuildCoordinator:
    """Rolling rebuilds plus split/merge rebalancing for a manager.

    Parameters
    ----------
    manager:
        The deployment to maintain.
    churn_threshold:
        Rebuild a shard once ``(memtable + max tombstones) / live``
        crosses this ratio (default 0.25 — a quarter of the shard is
        being served from unindexed state).
    min_churn:
        Absolute floor: below this many pending entries a shard is
        never considered churned (tiny shards would otherwise thrash).
    split_factor / min_split_size:
        Split a shard whose live size exceeds ``split_factor`` times
        the mean shard size (and is at least ``min_split_size``).
    merge_factor:
        Merge the two smallest non-empty shards when both fall below
        ``mean / merge_factor`` (set 0 to disable merging).
    rng:
        Seed or generator for replacement builds (each rebuild draws
        from it, so a seeded coordinator is reproducible).
    """

    def __init__(
        self,
        manager: ShardManager,
        *,
        churn_threshold: float = 0.25,
        min_churn: int = 4,
        split_factor: float = 4.0,
        min_split_size: int = 8,
        merge_factor: float = 8.0,
        rng: RngLike = None,
    ):
        if manager._builder is None:
            raise TypeError(
                "RebuildCoordinator needs a manager with a known shard "
                "builder (managers restored from legacy serialised form "
                "with a custom backend cannot rebuild)"
            )
        if churn_threshold <= 0:
            raise ValueError(
                f"churn_threshold must be > 0, got {churn_threshold}"
            )
        self.manager = manager
        self.churn_threshold = churn_threshold
        self.min_churn = min_churn
        self.split_factor = split_factor
        self.min_split_size = min_split_size
        self.merge_factor = merge_factor
        self._rng = as_rng(rng)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Churn accounting
    # ------------------------------------------------------------------

    def shard_churn(self, shard: int) -> float:
        """Fraction of the shard served from unindexed state.

        ``(memtable entries + worst-replica tombstones) / live size``:
        memtable rows cost an extra linear scan per query, tombstones
        cost k-NN over-fetch — both erode the base structure's pruning.
        A base-less slot (fresh split) shows up as churn 1.0.
        """
        live, pending, dead = self.manager.churn_counts(shard)
        return (pending + dead) / live if live else 0.0

    def churned_shards(self) -> list[int]:
        """Shards whose churn crosses the rebuild threshold."""
        out = []
        for shard in range(self.manager.n_shards):
            live, pending, dead = self.manager.churn_counts(shard)
            churn = pending + dead
            if live and churn >= self.min_churn and (
                churn / live >= self.churn_threshold
            ):
                out.append(shard)
        return out

    # ------------------------------------------------------------------
    # Rolling rebuild
    # ------------------------------------------------------------------

    def rebuild_shard(self, shard: int) -> list[int]:
        """Rebuild one shard and swap it into every replica, one at a time.

        One snapshot of the shard's live dataset, one build with the lock
        released, then one atomic :meth:`~ShardManager.swap_replica` per
        replica slot; mutations landing mid-roll are reconciled into each
        slot's tombstones/memtable at its swap.  A base that absorbs
        writes (:meth:`~ShardManager.absorbs_writes`) cannot be shared,
        so each of its slots re-snapshots and builds its own.  Returns
        the epoch after each swap (empty for an empty shard).
        """
        manager = self.manager
        epochs: list[int] = []
        index = None
        for replica in range(manager.replication_factor):
            if index is None or manager.absorbs_writes(index):
                snap = manager.snapshot_shard(shard)
                if not snap.ids:
                    break
                index = manager._builder(snap.rows, manager.metric, self._rng)
            epochs.append(manager.swap_replica(shard, replica, index, snap))
        return epochs

    # ------------------------------------------------------------------
    # Topology rebalancing
    # ------------------------------------------------------------------

    def maybe_rebalance(self) -> dict:
        """Split oversized shards, merge undersized ones (at most one
        structural change per kind per call, to keep churn bounded).

        A split's new shard starts base-less (memtable-served) and is
        rebuilt immediately; a merge's destination inherits the moved
        points through its memtable and is rebuilt likewise.
        """
        manager = self.manager
        sizes = manager.shard_sizes()
        populated = [s for s in sizes if s > 0]
        actions: dict = {"split": None, "merged": None}
        if not populated:
            return actions
        mean = sum(populated) / len(populated)
        # Split the single largest offender.
        largest = max(range(len(sizes)), key=lambda s: sizes[s])
        if (
            sizes[largest] >= self.min_split_size
            and sizes[largest] > self.split_factor * mean
        ):
            new_shard = manager.split_shard(largest)
            self.rebuild_shard(largest)
            self.rebuild_shard(new_shard)
            actions["split"] = (largest, new_shard)
            sizes = manager.shard_sizes()
        # Merge the two smallest non-empty shards when both are dwarfed.
        if self.merge_factor > 0:
            nonempty = sorted(
                (s for s in range(len(sizes)) if sizes[s] > 0),
                key=lambda s: sizes[s],
            )
            if len(nonempty) >= 2:
                src, dst = nonempty[0], nonempty[1]
                if (
                    sizes[src] < mean / self.merge_factor
                    and sizes[dst] < mean / self.merge_factor
                ):
                    manager.merge_shards(src, dst)
                    self.rebuild_shard(dst)
                    actions["merged"] = (src, dst)
        return actions

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run_once(self) -> dict:
        """One maintenance pass: rebalance, then rebuild churned shards.

        Returns a summary dict: structural actions taken, the shards
        rebuilt, and the resulting epochs.
        """
        summary = self.maybe_rebalance()
        rebuilt: dict[int, list[int]] = {}
        for shard in self.churned_shards():
            epochs = self.rebuild_shard(shard)
            if epochs:
                rebuilt[shard] = epochs
        summary["rebuilt"] = rebuilt
        return summary

    def start(self, interval_s: float = 1.0) -> None:
        """Run :meth:`run_once` on a background daemon thread until
        :meth:`stop`.  One coordinator, one thread."""
        if self._thread is not None:
            raise RuntimeError("coordinator already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                self.run_once()

        self._thread = threading.Thread(
            target=loop, name="rebuild-coordinator", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the background thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
