"""Fuzz-case model and the seed-driven workload generator.

A fuzz *case* is one randomized workload: a dataset (family x metric),
an index configuration (one of the twelve index classes, or a sharded
``QueryEngine`` deployment), a handful of queries, and the metamorphic
relations to apply.  Cases exist at two levels:

* :class:`CaseSpec` — the generation recipe.  Produced by
  :func:`generate_spec` from ``(seed, case_index)`` alone; carrying it
  around is cheap and regenerating it is exact.
* :class:`ConcreteCase` — the fully explicit workload: literal data
  points, literal query objects, literal parameters.  This is what the
  differential/metamorphic checkers consume, what the shrinker
  minimizes, and what corpus entries serialise.  Its canonical JSON
  bytes (:func:`case_bytes`) are deterministic — same seed, same bytes
  — which is what makes corpus digests meaningful.

Everything random flows from ``numpy``'s ``default_rng`` seeded with
``[seed, case_index]``; nothing reads the clock, the process hash seed,
or global RNG state (rule RC007 enforces this for the whole package).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.metric.base import Metric
from repro.metric.discrete import EditDistance
from repro.metric.minkowski import L1, L2, LInf

#: Every index class the fuzzer covers — the same twelve-structure
#: family ``repro-check invariants`` verifies, by CLI-style short name.
INDEX_NAMES = (
    "linear",     # LinearScan
    "vpt",        # VPTree
    "mvpt",       # MVPTree
    "gmvpt",      # GMVPTree
    "dynamic",    # DynamicMVPTree (build + insert + delete)
    "ght",        # GHTree
    "gnat",       # GNAT
    "laesa",      # LAESA
    "matrix",     # DistanceMatrixIndex
    "bkt",        # BKTree
    "transform",  # TransformIndex (DFT filter-and-refine)
    "sharded",    # ShardManager driven through a QueryEngine
)

_VECTOR_METRICS = ("l1", "l2", "linf")

#: Shard backends the sharded cases rotate through (vector-capable).
_SHARD_CASE_BACKENDS = ("linear", "vpt", "mvpt", "laesa", "gnat", "ght")


class ScaledMetric(Metric):
    """``c * d`` for a positive constant ``c`` — still a metric.

    The metamorphic scaling relation uses powers of two so that the
    scaling is *exact* in binary floating point: every stored
    construction distance, every bound and every query distance scales
    without rounding, so answer sets must match bit for bit.
    """

    def __init__(self, inner: Metric, scale: float):
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        self.inner = inner
        self.scale = float(scale)

    def distance(self, a, b) -> float:
        return self.scale * self.inner.distance(a, b)

    def batch_distance(self, xs: Sequence, y) -> np.ndarray:
        return self.scale * np.asarray(self.inner.batch_distance(xs, y))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScaledMetric({self.inner!r}, scale={self.scale})"


def make_metric(name: str, scale: float = 1.0) -> Metric:
    """Fresh metric instance for a case (optionally exactly scaled)."""
    if name == "l1":
        metric: Metric = L1()
    elif name == "l2":
        metric = L2()
    elif name == "linf":
        metric = LInf()
    elif name == "edit":
        metric = EditDistance()
    else:
        raise ValueError(f"unknown fuzz metric {name!r}")
    if scale != 1.0:
        metric = ScaledMetric(metric, scale)
    return metric


@dataclass(frozen=True)
class ConcreteQuery:
    """One explicit query: the literal object plus its parameters.

    ``budget``/``epsilon`` additionally put the query through the
    approximate tier (:mod:`repro.approx`): the checker still verifies
    the exact answer, then runs the budgeted search and checks its
    certificate — budget respected, reported recall lower bound sound,
    and the ``budget=None``/``epsilon=0`` limit byte-identical to the
    exact answer.
    """

    kind: str                      # "range" | "knn"
    query: object                  # list[float] | str
    radius: Optional[float] = None
    k: Optional[int] = None
    budget: Optional[int] = None
    epsilon: float = 0.0


@dataclass
class ConcreteCase:
    """A fully explicit fuzz workload (see the module docstring).

    ``objects`` are plain JSON values (lists of floats, or strings);
    :func:`materialize_objects` turns them back into the runtime
    dataset.  ``build_prefix``/``deleted`` only matter for the dynamic
    tree: it is built over ``objects[:build_prefix]``, the remaining
    points are inserted one at a time, and the ids in ``deleted`` are
    then deleted (so the oracle must exclude them too).
    """

    name: str
    object_kind: str               # "vectors" | "strings"
    objects: list
    metric: str                    # "l1" | "l2" | "linf" | "edit"
    index: str                     # one of INDEX_NAMES
    index_params: dict
    index_seed: int
    queries: list
    relations: list = field(default_factory=list)
    metric_scale: float = 1.0
    build_prefix: Optional[int] = None
    deleted: list = field(default_factory=list)
    #: Serve the case through a ``.rsx``-mapped StoreBackedIndex instead
    #: of the in-memory structure (array-pure vector families only); the
    #: last ``store_delta`` points become an appended delta tail.
    store_backed: bool = False
    store_delta: int = 0
    #: Sharded cases only: a live-mutation script applied to the built
    #: ShardManager before any query runs.  Each op is ``["insert",
    #: row]`` or ``["delete", draw]``; delete draws are resolved
    #: against the live id-set at execution time (``draw %
    #: len(live)`` into the sorted gids), so scripts survive dataset
    #: shrinking.  The oracle then runs over the post-script live set.
    mutations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ConcreteCase":
        queries = [
            q if isinstance(q, ConcreteQuery) else ConcreteQuery(**q)
            for q in data["queries"]
        ]
        fields = dict(data)
        fields["queries"] = queries
        return cls(**fields)


def case_bytes(case: ConcreteCase) -> bytes:
    """Canonical JSON bytes of a concrete case (digest/corpus identity).

    ``sort_keys`` plus python's shortest-round-trip float repr makes
    the encoding a pure function of the case values: same seed, same
    bytes, on any platform computing the same floats.
    """
    return json.dumps(
        case.to_dict(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def materialize_objects(case: ConcreteCase):
    """The runtime dataset for a case (numpy matrix or list of strings)."""
    if case.object_kind == "vectors":
        return np.asarray(case.objects, dtype=float)
    return list(case.objects)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CaseSpec:
    """The generation recipe: regenerate the concrete case exactly."""

    seed: int
    case_index: int

    def concretize(self) -> ConcreteCase:
        return _concretize(self)


def generate_spec(seed: int, case_index: int) -> CaseSpec:
    """The spec for case ``case_index`` of the ``seed`` sweep."""
    return CaseSpec(seed=seed, case_index=case_index)


def generate_cases(seed: int, n_cases: int) -> list[CaseSpec]:
    """Specs for a whole sweep; index classes rotate so any ``n_cases
    >= len(INDEX_NAMES)`` covers every class."""
    return [generate_spec(seed, i) for i in range(n_cases)]


def _random_word(rng: np.random.Generator, min_len: int = 3, max_len: int = 9) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    length = int(rng.integers(min_len, max_len + 1))
    return "".join(letters[int(c)] for c in rng.integers(0, 26, size=length))


def _random_dna(rng: np.random.Generator, min_len: int = 6, max_len: int = 16) -> str:
    bases = "ACGT"
    length = int(rng.integers(min_len, max_len + 1))
    return "".join(bases[int(c)] for c in rng.integers(0, 4, size=length))


def _mutate_string(rng: np.random.Generator, word: str) -> str:
    """A near-duplicate of ``word``: 1-2 random edit operations."""
    alphabet = "ACGT" if set(word) <= set("ACGT") else "abcdefghijklmnopqrstuvwxyz"
    chars = list(word)
    for _ in range(int(rng.integers(1, 3))):
        op = int(rng.integers(0, 3))
        pos = int(rng.integers(0, max(1, len(chars))))
        letter = alphabet[int(rng.integers(0, len(alphabet)))]
        if op == 0 and chars:            # substitute
            chars[min(pos, len(chars) - 1)] = letter
        elif op == 1:                    # insert
            chars.insert(pos, letter)
        elif chars and len(chars) > 1:   # delete
            chars.pop(min(pos, len(chars) - 1))
    return "".join(chars) or alphabet[0]


def _generate_dataset(
    rng: np.random.Generator, family: str, n: int, dim: int
) -> tuple[str, list]:
    """(object_kind, objects) for a dataset family, duplicates included."""
    n_dups = int(rng.integers(0, 4)) if rng.random() < 0.5 else 0
    n_base = max(2, n - n_dups)
    if family == "uniform":
        base = rng.random((n_base, dim)).tolist()
        kind = "vectors"
    elif family == "clustered":
        n_clusters = max(1, n_base // 8)
        centers = rng.random((n_clusters, dim))
        rows = []
        for i in range(n_base):
            center = centers[i % n_clusters]
            rows.append((center + 0.05 * rng.standard_normal(dim)).tolist())
        base, kind = rows, "vectors"
    elif family == "walk":
        steps = rng.standard_normal((n_base, dim))
        base = np.cumsum(steps, axis=1).tolist()
        kind = "vectors"
    elif family == "words":
        base = [_random_word(rng) for _ in range(n_base)]
        kind = "strings"
    elif family == "dna":
        base = [_random_dna(rng) for _ in range(n_base)]
        kind = "strings"
    else:
        raise ValueError(f"unknown dataset family {family!r}")
    # Exact duplicates create genuine distance ties — the tie-breaking
    # and boundary behaviour the fuzzer exists to probe.
    for _ in range(n_dups):
        base.append(base[int(rng.integers(0, len(base)))])
    return kind, base


def _index_config(
    rng: np.random.Generator, index: str, n: int, dim: int
) -> dict:
    """Random but buildable constructor parameters per index class."""
    if index == "vpt":
        return {
            "m": int(rng.integers(2, 4)),
            "leaf_capacity": int(rng.integers(1, 9)),
        }
    if index == "mvpt":
        return {
            "m": int(rng.integers(2, 4)),
            "k": int(rng.integers(2, 14)),
            "p": int(rng.integers(1, 5)),
        }
    if index == "gmvpt":
        return {
            "m": 2,
            "v": int(rng.integers(2, 4)),
            "k": int(rng.integers(3, 9)),
            "p": int(rng.integers(1, 5)),
        }
    if index == "dynamic":
        return {
            "m": int(rng.integers(2, 4)),
            "k": int(rng.integers(3, 10)),
            "p": int(rng.integers(1, 5)),
        }
    if index == "ght":
        return {"leaf_capacity": int(rng.integers(1, 9))}
    if index == "gnat":
        return {
            "degree": int(rng.integers(3, 7)),
            "leaf_capacity": int(rng.integers(1, 9)),
        }
    if index == "laesa":
        return {"n_pivots": int(rng.integers(1, 13))}
    if index == "transform":
        return {"n_coefficients": int(rng.integers(2, 1 + max(2, dim // 2)))}
    if index == "sharded":
        replication = int(rng.integers(1, 4))
        # The engine's worker pool is a fuzz dimension too: forked
        # workers must answer exactly like in-thread ones.  A distance
        # cache cannot cross the fork boundary (the engine rejects the
        # combination), so it is only drawn for the thread pool.
        executor = str(rng.choice(("thread", "process")))
        config = {
            "backend": str(rng.choice(_SHARD_CASE_BACKENDS)),
            "n_shards": int(rng.integers(2, 6)),
            "assignment": str(rng.choice(("round-robin", "contiguous"))),
            "executor": executor,
            "workers": int(rng.integers(2, 5)),
            "result_cache_size": int(rng.choice((0, 32))),
            "distance_cache": bool(
                executor == "thread" and rng.random() < 0.5
            ),
            "replication_factor": replication,
        }
        if replication > 1 and rng.random() < 0.5:
            # Kill one replica row mid-batch (engine fault hook): with a
            # live sibling per shard the answers must stay exact and
            # non-degraded — replication fuzzed, not just unit-tested.
            config["fault_replica"] = int(rng.integers(0, replication))
        return config
    return {}  # linear, matrix, bkt


#: Families with a store writer: eligible for ``store_backed`` cases.
STORE_FAMILIES = ("linear", "vpt", "mvpt", "gmvpt", "laesa", "gnat", "ght")


def _maybe_approx(
    rng: np.random.Generator, n: int
) -> tuple[Optional[int], float]:
    """(budget, epsilon) for one query: usually exact, else biased hard
    toward the budget edge cases (zero, one, exactly n, over-provisioned)
    the kernels must not fumble."""
    if rng.random() >= 0.45:
        return None, 0.0
    style = rng.random()
    if style < 0.12:
        budget: Optional[int] = 0
    elif style < 0.24:
        budget = 1
    elif style < 0.36:
        budget = n                       # exactly the dataset size
    elif style < 0.80:
        budget = int(rng.integers(1, 2 * n + 1))
    else:
        budget = None                    # epsilon-only approximation
    epsilon = float(rng.choice((0.0, 0.0, 0.1, 0.5, 2.0)))
    if budget is None and epsilon == 0.0:
        epsilon = 0.5
    return budget, epsilon


def _sample_query_object(
    rng: np.random.Generator, object_kind: str, objects: list, dim: int
):
    """A query object: fresh, an exact member, or a near-duplicate."""
    style = rng.random()
    if style < 0.4:  # fresh
        if object_kind == "vectors":
            low = min(min(row) for row in objects)
            high = max(max(row) for row in objects)
            return (low + (high - low) * rng.random(dim)).tolist()
        return _mutate_string(rng, objects[int(rng.integers(0, len(objects)))])
    member = objects[int(rng.integers(0, len(objects)))]
    if style < 0.7:  # exact member: zero-distance and tie-heavy
        return member
    if object_kind == "vectors":
        return (np.asarray(member) + 0.01 * rng.standard_normal(dim)).tolist()
    return _mutate_string(rng, member)


def _query_distance(metric: Metric, query, obj) -> float:
    """One workload-generation distance (not part of search accounting)."""
    # repro-check: ignore[RC001] generation, not search
    return metric.distance(query, obj)


def _sample_radius(
    rng: np.random.Generator, metric: Metric, query, objects: list, object_kind
) -> float:
    """A range radius, biased hard toward decision boundaries.

    Most radii are set *exactly* equal to some data point's distance
    from the query (the ``<= r`` boundary the paper's section 4.3
    bounds must respect), or a hair to either side of it.
    """
    sample_ids = rng.integers(0, len(objects), size=min(4, len(objects)))
    anchor_obj = objects[int(sample_ids[0])]
    if object_kind == "vectors":
        anchor_obj = np.asarray(anchor_obj, dtype=float)
        query = np.asarray(query, dtype=float)
    anchor = _query_distance(metric, query, anchor_obj)
    style = rng.random()
    if style < 0.45:
        return float(anchor)                      # exactly on the boundary
    if style < 0.60:
        return float(anchor) * (1.0 + 1e-9)       # just outside
    if style < 0.75:
        return float(anchor) * (1.0 - 1e-9)       # just inside
    spread = []
    for i in sample_ids:
        obj = objects[int(i)]
        if object_kind == "vectors":
            obj = np.asarray(obj, dtype=float)
        spread.append(_query_distance(metric, query, obj))
    scale = float(np.mean(spread)) if spread else 1.0
    return float(scale * rng.uniform(0.2, 1.5))


_RELATIONS_ALWAYS = ("monotonicity", "knn_prefix")
_RELATIONS_REBUILD = ("permutation", "duplicate", "scaling")


def _concretize(spec: CaseSpec) -> ConcreteCase:
    """Expand a spec into the explicit workload, deterministically."""
    rng = np.random.default_rng([spec.seed, spec.case_index])
    index = INDEX_NAMES[spec.case_index % len(INDEX_NAMES)]

    if index == "bkt":
        family = str(rng.choice(("words", "dna")))
    elif index == "transform":
        family = "walk"
    elif index == "sharded":
        family = str(rng.choice(("uniform", "clustered")))
    else:
        family = str(
            rng.choice(
                ("uniform", "clustered", "words", "dna"),
                p=(0.35, 0.25, 0.2, 0.2),
            )
        )

    n = int(rng.integers(8, 48 if index == "matrix" else 72))
    if family == "walk":
        dim = int(rng.integers(8, 33))      # series length
    else:
        dim = int(rng.integers(2, 13))
    if family in ("words", "dna"):
        metric = "edit"
    elif index == "transform":
        metric = "l2"  # the DFT contraction bound (Parseval) is L2-only
    else:
        metric = str(rng.choice(_VECTOR_METRICS))
    object_kind, objects = _generate_dataset(rng, family, n, dim)
    n = len(objects)

    params = _index_config(rng, index, n, dim)
    index_seed = int(rng.integers(0, 2**31 - 1))

    build_prefix = None
    deleted: list[int] = []
    if index == "dynamic":
        build_prefix = int(rng.integers(1, n + 1))
        n_deleted = int(rng.integers(0, max(1, n // 4)))
        deleted = sorted(
            int(i) for i in rng.choice(n, size=n_deleted, replace=False)
        )
        if len(deleted) >= n:  # keep at least one live point
            deleted = deleted[:-1]

    metric_obj = make_metric(metric)
    queries: list[ConcreteQuery] = []
    for _ in range(int(rng.integers(3, 7))):
        query = _sample_query_object(rng, object_kind, objects, dim)
        budget, epsilon = _maybe_approx(rng, n)
        if rng.random() < 0.5:
            radius = _sample_radius(rng, metric_obj, query, objects, object_kind)
            queries.append(
                ConcreteQuery(
                    "range", query, radius=radius,
                    budget=budget, epsilon=epsilon,
                )
            )
        else:
            queries.append(
                ConcreteQuery(
                    "knn", query, k=int(rng.integers(1, min(n, 10) + 1)),
                    budget=budget, epsilon=epsilon,
                )
            )
    if index == "sharded" and params.get("result_cache_size"):
        # Repeat a query verbatim so the whole-answer cache gets hits.
        queries.append(queries[int(rng.integers(0, len(queries)))])

    relations = list(_RELATIONS_ALWAYS)
    if rng.random() < 0.6:
        # The scaling relation itself picks an up-only factor for the
        # transform index (contraction survives scaling up, not down).
        relations.append(str(rng.choice(_RELATIONS_REBUILD)))

    store_backed = False
    store_delta = 0
    if (
        index in STORE_FAMILIES
        and object_kind == "vectors"
        and rng.random() < 0.35
    ):
        # Serve the identical workload through the mmap-ed .rsx path:
        # the kernels promise byte-identical answers, so every exact
        # and approximate assertion below applies unchanged.
        store_backed = True
        if n > 1 and rng.random() < 0.5:
            store_delta = int(rng.integers(1, max(2, n // 4)))

    mutations: list = []
    if index == "sharded" and rng.random() < 0.25:
        # A quarter of sharded cases churn the deployment before any
        # query: the engine and sequential surfaces must then match
        # the membership oracle over the post-script live set.
        for _ in range(int(rng.integers(2, 9))):
            if rng.random() < 0.6:
                mutations.append(["insert", rng.random(dim).tolist()])
            else:
                mutations.append(["delete", int(rng.integers(0, 1 << 30))])

    return ConcreteCase(
        name=f"seed{spec.seed}-case{spec.case_index:04d}",
        object_kind=object_kind,
        objects=objects,
        metric=metric,
        index=index,
        index_params=params,
        index_seed=index_seed,
        queries=queries,
        relations=relations,
        build_prefix=build_prefix,
        deleted=deleted,
        store_backed=store_backed,
        store_delta=store_delta,
        mutations=mutations,
    )


def remove_objects(case: ConcreteCase, keep: Sequence[int]) -> ConcreteCase:
    """The case restricted to dataset positions ``keep`` (sorted).

    Queries are explicit objects, so they survive unchanged; the
    dynamic tree's ``build_prefix``/``deleted`` bookkeeping is remapped
    through the kept-id renumbering.
    """
    keep = sorted(int(i) for i in keep)
    old_to_new = {old: new for new, old in enumerate(keep)}
    objects = [case.objects[i] for i in keep]
    build_prefix = case.build_prefix
    if build_prefix is not None:
        build_prefix = max(1, sum(1 for i in keep if i < case.build_prefix))
    deleted = sorted(old_to_new[d] for d in case.deleted if d in old_to_new)
    if len(deleted) >= len(objects):
        deleted = deleted[:-1]
    return replace(
        case,
        objects=objects,
        build_prefix=build_prefix,
        deleted=deleted,
        store_delta=min(case.store_delta, max(0, len(objects) - 1)),
    )
