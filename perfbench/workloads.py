"""The three workloads: inputs from a seed, the deployment, and the load.

Parameters live in ``workloads.json`` beside this file.  A
:class:`Workload` generates its data and its operation streams from the
seed alone, builds the deployment through the library's public serving
API (:meth:`Workload.deploy`, the timed set-up), and drives load with
:mod:`perfbench.loadgen`.
"""

from __future__ import annotations

import json
import shutil
import string
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from perfbench import loadgen, oracle
from repro.datasets import clustered_vectors, synthetic_words, uniform_vectors
from repro.metric import L2, EditDistance
from repro.serve import (
    ProcessExecutor,
    Query,
    QueryEngine,
    RebuildCoordinator,
    ShardManager,
    ThreadedExecutor,
)
from repro.store import save_shard_stores

SPEC_PATH = Path(__file__).with_name("workloads.json")

QUERY_KINDS = ("range", "knn", "bknn")
DECK = 20
WARM_STREAM = 100
WRITE_KINDS = ("insert", "delete")


def load_specs() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Op:
    """One operation: a query (``range``/``knn``/``bknn``) or a write."""

    kind: str
    query: object = None  # query object, or the row an insert adds
    param: object = None  # radius or k
    budget: Optional[int] = None
    gid: Optional[int] = None  # delete target; an insert's assigned id

    def to_query(self) -> Query:
        if self.kind == "range":
            return Query.range(self.query, self.param)
        return Query.knn(self.query, self.param, budget=self.budget)


@dataclass
class Record:
    """What one operation did and when (``perf_counter`` seconds)."""

    op: Op
    client: int
    due: float
    start: float
    end: float
    ok: bool = True
    value: object = None
    report: object = None
    dist: int = 0
    error: Optional[str] = None
    recall: Optional[float] = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.due) * 1e3


@dataclass
class Deployment:
    """A served deployment; :meth:`close` stops every worker it started."""

    manager: ShardManager
    executor: object
    engines: list
    parts: dict = field(default_factory=dict)
    store_paths: Optional[dict] = None
    store_dir: Optional[Path] = None
    coordinator: Optional[RebuildCoordinator] = None
    setup_s: float = 0.0

    def close(self) -> None:
        for engine in self.engines:
            engine.close()
        self.executor.shutdown(wait=True)
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def one_edit(word: str, rng: np.random.Generator) -> str:
    """Apply one random substitution, insertion or deletion."""
    letters = string.ascii_lowercase
    op = int(rng.integers(3))
    if op == 2 and len(word) > 1:
        at = int(rng.integers(len(word)))
        return word[:at] + word[at + 1 :]
    letter = letters[int(rng.integers(26))]
    if op == 1:
        at = int(rng.integers(len(word) + 1))
        return word[:at] + letter + word[at:]
    at = int(rng.integers(len(word)))
    return word[:at] + letter + word[at + 1 :]


class Workload:
    """Base: seeded inputs, a deployment, and one load run."""

    def __init__(self, name: str, spec: dict, seed: int):
        self.name = name
        self.spec = spec
        self.seed = seed
        dep = spec["deployment"]
        self.n_shards = dep["n_shards"]
        self.workers = dep["workers"]
        self.clients = spec["load"]["clients"]
        self.kinds = list(spec["mix"])
        self.weights = np.array([spec["mix"][k] for k in self.kinds], dtype=float)
        self.weights /= self.weights.sum()
        self.data = None
        self.oracle = None

    # -- inputs ---------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def make_metric(self):
        return EditDistance() if self.spec["metric"] == "edit" else L2()

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def query_op(self, kind: str, rng) -> Op:
        q = self.spec["query"]
        point = self.sample_point(rng)
        if kind == "range":
            return Op("range", point, q["radius"])
        if kind == "knn":
            return Op("knn", point, q["k"])
        return Op("bknn", point, q["k"], budget=q["budget"])

    def sample_point(self, rng):
        raise NotImplementedError

    def kind_stream(self, rng: np.random.Generator) -> Iterator[str]:
        """Op kinds dealt from shuffled decks of :data:`DECK` cards in
        exact mix proportions, so every run's mix matches the spec."""
        counts = np.round(self.weights * DECK).astype(int)
        deck = [kind for kind, count in zip(self.kinds, counts) for _ in range(count)]
        while True:
            for at in rng.permutation(len(deck)):
                yield deck[at]

    def ops(self, stream: int) -> Iterator[Op]:
        """An endless, seed-determined operation stream."""
        rng = self._rng(stream)
        for kind in self.kind_stream(rng):
            yield self.query_op(kind, rng)

    def probe_ops(self) -> list[Op]:
        """A fixed query sample in mix proportions for the traced probes."""
        rng = self._rng(10_000)
        n = self.spec["probe_queries"]
        query_kinds = [k for k in self.kinds if k in QUERY_KINDS]
        share = np.array([self.spec["mix"][k] for k in query_kinds], dtype=float)
        counts = np.floor(share / share.sum() * n).astype(int)
        counts[0] += n - counts.sum()
        return [
            self.query_op(kind, rng)
            for kind, count in zip(query_kinds, counts)
            for _ in range(count)
        ]

    # -- deployment -----------------------------------------------------
    def deploy(self, metric, workdir: Path, hooks: Optional[list] = None, tag: str = "0") -> Deployment:
        """Build, store and start serving; the timed set-up ends when a
        first query has been answered."""
        dep = self.spec["deployment"]
        t0 = time.perf_counter()
        manager = ShardManager(
            self.data,
            metric,
            n_shards=dep["n_shards"],
            backend=dep["backend"],
            replication_factor=dep["replication"],
            rng=self.seed,
        )
        t1 = time.perf_counter()
        store_paths = store_dir = None
        if dep["store_backed"]:
            store_dir = workdir / f"stores-{tag}"
            store_paths = save_shard_stores(manager, store_dir)
        t2 = time.perf_counter()
        if dep["executor"] == "process":
            executor = ProcessExecutor(
                None if store_paths else manager,
                dep["workers"],
                store_paths=store_paths,
                metric_spec=self.spec["metric"] if store_paths else None,
            )
        else:
            executor = ThreadedExecutor(dep["workers"])
        engines = [
            QueryEngine(manager, executor=executor, fault_hook=hooks[c] if hooks else None)
            for c in range(self.clients)
        ]
        t3 = time.perf_counter()
        deployment = Deployment(manager, executor, engines, store_paths=store_paths, store_dir=store_dir)
        first = engines[0].run_batch([self.probe_ops()[0].to_query()]).results[0]
        t4 = time.perf_counter()
        if first.degraded:
            deployment.close()
            raise RuntimeError("first query after set-up came back degraded")
        deployment.parts = {
            "build_s": t1 - t0,
            "store_write_s": t2 - t1,
            "pool_start_s": t3 - t2,
            "first_query_s": t4 - t3,
        }
        deployment.setup_s = t4 - t0
        if "rebuild" in self.spec:
            deployment.coordinator = RebuildCoordinator(
                manager,
                churn_threshold=self.spec["rebuild"]["churn_threshold"],
                rng=self.seed + 1,
            )
        return deployment

    # -- load -----------------------------------------------------------
    def warm_up(self, seconds: float, execute: Callable) -> list[Record]:
        """Queries only, closed loop, on streams the measured run never
        uses: fills caches and lets workers fault their pages in."""
        streams = [
            (op for op in self.ops(WARM_STREAM + c) if op.kind in QUERY_KINDS)
            for c in range(self.clients)
        ]
        return loadgen.closed_loop(len(streams), lambda c: next(streams[c]), execute, seconds).records

    def run_load(self, dep: Deployment, seconds: float, execute: Callable, sample: bool) -> loadgen.LoadResult:
        load = self.spec["load"]
        if load["loop"] == "open":
            stream = self.ops(0)
            return loadgen.open_loop(self.clients, load["rate_qps"], lambda: next(stream), execute, seconds)
        streams = [self.ops(c) for c in range(self.clients)]
        return loadgen.closed_loop(
            len(streams), lambda c: next(streams[c]), execute, seconds
        )

    # -- oracle ---------------------------------------------------------
    def check(self, records: list[Record]) -> list[str]:
        """Check every completed answer; sets ``record.recall``."""
        errors: list[str] = []
        for rec in records:
            if not rec.ok or rec.op.kind not in QUERY_KINDS:
                continue
            distances = self.oracle.distances(rec.op.query)
            errs, rec.recall = oracle.check_record(
                rec.op.kind, rec.value, rec.report, rec.op.param, distances, self.oracle.ids
            )
            errors.extend(f"{rec.op.kind}: {e}" for e in errs)
        return errors


class ClusteredWorkload(Workload):
    def generate(self) -> None:
        d = self.spec["data"]
        self.data = clustered_vectors(
            d["n_clusters"], d["cluster_size"], dim=d["dim"], epsilon=d["epsilon"], rng=self.seed
        )
        self.oracle = oracle.VectorOracle(self.data)

    def sample_point(self, rng):
        delta = self.spec["query"]["perturb"]
        row = self.data[int(rng.integers(len(self.data)))]
        return row + rng.uniform(-delta, delta, size=row.shape)


class WordsWorkload(Workload):
    def generate(self) -> None:
        self.data = synthetic_words(self.spec["data"]["n"], rng=self.seed)
        self.oracle = oracle.WordOracle(self.data)

    def sample_point(self, rng):
        word = self.data[int(rng.integers(len(self.data)))]
        for _ in range(self.spec["query"]["edits"]):
            word = one_edit(word, rng)
        return word

    def check(self, records: list[Record]) -> list[str]:
        # Ground the vectorised table in the library's own metric on a
        # few queries, then use it for every answer.
        sample = [r.op.query for r in records if r.op.kind in QUERY_KINDS][:3]
        return self.oracle.cross_check(sample, EditDistance()) + super().check(records)


class ChurnWorkload(Workload):
    """One client mixes 10-NN with inserts and deletes; a second thread
    runs a rebuild pass every ``every_ops`` operations."""

    def generate(self) -> None:
        d = self.spec["data"]
        self.data = uniform_vectors(d["n"], dim=d["dim"], rng=self.seed)
        self.dim = d["dim"]

    def sample_point(self, rng):
        return rng.random(self.dim)

    def ops(self, stream: int) -> Iterator[Op]:
        """Deletes pick from the ids this stream knows to be live, so the
        stream must see each insert's id (set on the op) before the next
        op is drawn — true for a closed loop."""
        rng = self._rng(stream)
        live = list(range(len(self.data)))
        pending: Optional[Op] = None
        for kind in self.kind_stream(rng):
            if pending is not None and pending.gid is not None:
                live.append(pending.gid)
            pending = None
            if kind == "insert":
                pending = Op("insert", rng.random(self.dim))
                yield pending
            elif kind == "delete":
                at = int(rng.integers(len(live)))
                live[at], live[-1] = live[-1], live[at]
                yield Op("delete", gid=live.pop())
            else:
                yield self.query_op(kind, rng)

    def run_load(self, dep: Deployment, seconds: float, execute: Callable, sample: bool) -> loadgen.LoadResult:
        trigger = RebuildTrigger(dep.coordinator, self.spec["rebuild"]["every_ops"], sample)
        thread = threading.Thread(target=trigger.run, name="perfbench-rebuild")
        thread.start()
        stream = self.ops(0)

        def run_op(client, op, due):
            rec = execute(client, op, due)
            trigger.op_done()
            return rec

        try:
            result = loadgen.closed_loop(1, lambda c: next(stream), run_op, seconds)
        finally:
            trigger.stop()
            thread.join()
        result.rebuilds = trigger.events
        result.samples = trigger.samples
        return result

    def check(self, records: list[Record]) -> list[str]:
        """Replay the op log in order and check each 10-NN answer against
        a brute force over the live id-set at that moment."""
        errors: list[str] = []
        n_base = len(self.data)
        n_inserts = sum(1 for r in records if r.op.kind == "insert" and r.ok)
        points = np.vstack([self.data, np.zeros((n_inserts, self.dim))])
        live = np.zeros(len(points), dtype=bool)
        live[:n_base] = True
        next_gid = n_base
        for rec in sorted(records, key=lambda r: r.start):
            if not rec.ok:
                continue
            if rec.op.kind == "insert":
                if rec.op.gid != next_gid:
                    return errors + [f"insert got id {rec.op.gid}, expected {next_gid}"]
                points[next_gid] = rec.op.query
                live[next_gid] = True
                next_gid += 1
            elif rec.op.kind == "delete":
                live[rec.op.gid] = False
            else:
                ids = np.nonzero(live)[0].astype(np.int64)
                distances = oracle.l2_distances(points[ids], rec.op.query)
                errs, rec.recall = oracle.check_record(
                    rec.op.kind, rec.value, rec.report, rec.op.param, distances, ids
                )
                errors.extend(f"{rec.op.kind}: {e}" for e in errs)
        return errors


def churn_sample(manager: ShardManager, coordinator: Optional[RebuildCoordinator] = None) -> tuple[int, int, float]:
    """``(memtable rows, tombstones, peak shard churn)`` right now;
    tombstones count the worst replica of each shard."""
    shards = range(manager.n_shards)
    memtable = sum(len(manager.memtable(s)) for s in shards)
    tombstones = sum(
        max(len(manager.slot_state(s, r)[1]) for r in range(manager.replication_factor))
        for s in shards
    )
    churn = max(coordinator.shard_churn(s) for s in shards) if coordinator else 0.0
    return memtable, tombstones, churn


class RebuildTrigger:
    """Runs ``coordinator.run_once()`` once per ``every_ops`` finished
    operations, on its own thread, triggered by count, not by a timer."""

    def __init__(self, coordinator: RebuildCoordinator, every_ops: int, sample: bool):
        self.coordinator = coordinator
        self.every_ops = every_ops
        self.sample = sample
        self._cond = threading.Condition()
        self._ops = 0
        self._pending = 0
        self._stopped = False
        #: (start, end, shards rebuilt) per pass, perf_counter seconds.
        self.events: list[tuple[float, float, int]] = []
        #: (memtable rows, tombstones, peak shard churn) before each pass.
        self.samples: list[tuple[int, int, float]] = []

    def op_done(self) -> None:
        with self._cond:
            self._ops += 1
            if self._ops % self.every_ops == 0:
                self._pending += 1
                self._cond.notify()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify()

    def run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                self._pending -= 1
            if self.sample:
                self.samples.append(churn_sample(self.coordinator.manager, self.coordinator))
            start = time.perf_counter()
            summary = self.coordinator.run_once()
            self.events.append((start, time.perf_counter(), len(summary["rebuilt"])))


WORKLOADS = {
    "clustered-mvpt": ClusteredWorkload,
    "words-mvpt": WordsWorkload,
    "churn-vpt": ChurnWorkload,
}


def make_workload(name: str, seed: int, spec: Optional[dict] = None) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = spec if spec is not None else load_specs()["workloads"][name]
    return WORKLOADS[name](name, spec, seed)
