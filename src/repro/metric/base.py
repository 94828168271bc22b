"""Metric interface and distance-computation accounting.

The paper's cost model (section 5) is the *number of distance
computations*, not wall-clock time, because in the target applications
(image databases, sequence matching) a single distance evaluation is
assumed to dominate every other cost.  :class:`CountingMetric` implements
that cost model: it wraps any :class:`Metric` and counts every evaluation,
whether it arrives through :meth:`Metric.distance` or through the batched
:meth:`Metric.batch_distance` (a batch of ``n`` counts as ``n``).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np


class Metric(ABC):
    """A metric distance function ``d(x, y)`` over some object domain.

    Subclasses must implement :meth:`distance`.  Implementations are
    expected to satisfy the four metric axioms of section 2 of the paper:

    1. symmetry:            ``d(x, y) == d(y, x)``
    2. positivity:          ``0 < d(x, y) < inf`` for ``x != y``
    3. identity:            ``d(x, x) == 0``
    4. triangle inequality: ``d(x, y) <= d(x, z) + d(z, y)``

    Use :func:`repro.metric.check_metric` to spot-check a candidate
    metric on sample data.
    """

    @abstractmethod
    def distance(self, a, b) -> float:
        """Return the distance between two objects."""

    def batch_distance(self, xs: Sequence, y) -> np.ndarray:
        """Return distances from each object in ``xs`` to ``y``.

        The default loops over :meth:`distance`; vectorised metrics
        override this.  Semantically equivalent to
        ``np.array([self.distance(x, y) for x in xs])``.
        """
        return np.array([self.distance(x, y) for x in xs], dtype=float)

    def segmented_distance(self, xs: Sequence, starts, ys: Sequence) -> np.ndarray:
        """Return the distances of consecutive runs of ``xs``, each run
        against its own object: run ``i`` is ``xs[starts[i]:starts[i+1]]``
        against ``ys[i]``, so ``starts`` has ``len(ys) + 1`` entries.

        The default calls :meth:`batch_distance` once per run;
        vectorised metrics override it with one pass whose values equal
        the per-run calls.  A batch of ``n`` rows counts as ``n``.
        """
        parts = [
            np.asarray(self.batch_distance(xs[a:b], y), dtype=float)
            for a, b, y in zip(starts[:-1], starts[1:], ys)
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    def __call__(self, a, b) -> float:
        return self.distance(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FunctionMetric(Metric):
    """Adapt a plain callable ``f(a, b) -> float`` to the Metric interface.

    >>> from repro.metric import FunctionMetric
    >>> d = FunctionMetric(lambda a, b: abs(a - b), name="abs-diff")
    >>> d.distance(3, 7)
    4
    """

    def __init__(self, func: Callable[[object, object], float], name: str = ""):
        self._func = func
        self.name = name or getattr(func, "__name__", "function")

    def distance(self, a, b) -> float:
        return self._func(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FunctionMetric({self.name})"


class CachedMetric(Metric):
    """Wrap a metric and memoize evaluations by object identity.

    The paper's whole premise is that one distance evaluation is
    expensive; when the same object pairs recur — the same query pool
    swept over several structures, repeated self-joins, interactive
    re-querying — caching pays immediately.  Pairs are keyed by
    ``id()`` symmetrically; each entry pins strong references to both
    operands so a collected object's id can never be recycled into a
    stale hit (CPython reuses ids of collected objects).  Caching is
    only sound while the objects are not mutated in place.

    Wrap the cache *around* a :class:`CountingMetric` to count only
    cache misses (real evaluations), or *inside* one to count logical
    distance requests.

    >>> from repro.metric import CachedMetric, CountingMetric, L2
    >>> import numpy as np
    >>> a, b = np.zeros(3), np.ones(3)
    >>> counting = CountingMetric(L2())
    >>> cached = CachedMetric(counting)
    >>> __ = cached.distance(a, b); __ = cached.distance(b, a)
    >>> counting.count  # the symmetric repeat was served from cache
    1
    """

    def __init__(self, inner: Metric, max_size: int = 1_000_000):
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.inner = inner
        self.max_size = max_size
        # key -> (distance, a, b); the operand refs keep both ids valid.
        self._cache: dict[tuple[int, int], tuple[float, object, object]] = {}
        self.hits = 0
        self.misses = 0

    def _key(self, a, b) -> tuple[int, int]:
        ia, ib = id(a), id(b)
        return (ia, ib) if ia <= ib else (ib, ia)

    def distance(self, a, b) -> float:
        key = self._key(a, b)
        try:
            entry = self._cache[key]
        except KeyError:
            self.misses += 1
            value = self.inner.distance(a, b)
            if len(self._cache) >= self.max_size:
                self._cache.clear()  # simple wholesale eviction
            self._cache[key] = (value, a, b)
            return value
        self.hits += 1
        return entry[0]

    def clear(self) -> None:
        """Drop all cached values and reset the hit/miss counters."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0

    @property
    def size(self) -> int:
        """Number of cached pairs."""
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CachedMetric({self.inner!r}, size={self.size}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class InvalidDistanceError(ValueError):
    """Raised by :class:`ValidatingMetric` on a non-finite or negative
    distance value."""


class ValidatingMetric(Metric):
    """Wrap a metric and reject invalid distance values at the source.

    Index structures silently misbehave when a distance function
    returns NaN, infinity or a negative number (every triangle-
    inequality bound becomes garbage).  This wrapper turns such values
    into an immediate :class:`InvalidDistanceError`, so a buggy
    user-supplied metric fails loudly at the offending pair instead of
    corrupting an index.  Use it during development, together with
    :func:`repro.metric.check_metric`; drop it in production once the
    metric is trusted.

    **Composition order.**  When combining with
    :class:`CountingMetric`, prefer ``CountingMetric(ValidatingMetric(
    inner))``: validation sits closest to the raw metric and the counter
    sees exactly the evaluations the index requested.  Both orders count
    scalar calls identically (the counter increments before the wrapped
    call), but they differ on a *failing batch*: the recommended order
    leaves the batch uncounted (the values never existed), while
    ``ValidatingMetric(CountingMetric(inner))`` counts it before the
    validator rejects it.

    >>> from repro.metric import FunctionMetric, ValidatingMetric
    >>> bad = ValidatingMetric(FunctionMetric(lambda a, b: float("nan")))
    >>> bad.distance(1, 2)
    Traceback (most recent call last):
        ...
    repro.metric.base.InvalidDistanceError: distance(1, 2) returned nan
    """

    def __init__(self, inner: Metric):
        self.inner = inner

    def _check(self, value: float, a, b) -> float:
        if not np.isfinite(value) or value < 0:
            raise InvalidDistanceError(
                f"distance({a!r}, {b!r}) returned {value!r}"
            )
        return value

    def distance(self, a, b) -> float:
        return self._check(self.inner.distance(a, b), a, b)

    def batch_distance(self, xs: Sequence, y) -> np.ndarray:
        out = np.asarray(self.inner.batch_distance(xs, y))
        invalid = ~np.isfinite(out) | (out < 0)
        if invalid.any():
            position = int(np.nonzero(invalid)[0][0])
            raise InvalidDistanceError(
                f"batch_distance returned {out[position]!r} at position "
                f"{position}"
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ValidatingMetric({self.inner!r})"


class CountingMetric(Metric):
    """Wrap a metric and count every distance evaluation.

    This is the instrument behind every number in the paper's evaluation:
    build and search an index with a counting metric, then read
    :attr:`count`.

    The counter is guarded by a lock, so one ``CountingMetric`` can be
    shared by the concurrent shard workers of :mod:`repro.serve` without
    losing increments — a bare ``count += 1`` is a load/add/store
    sequence the interpreter may interleave across threads.  The lock
    only serialises the integer bump, never the (expensive) wrapped
    metric evaluation.

    >>> from repro.metric import L2, CountingMetric
    >>> import numpy as np
    >>> counting = CountingMetric(L2())
    >>> _ = counting.distance(np.zeros(3), np.ones(3))
    >>> _ = counting.batch_distance(np.zeros((5, 3)), np.ones(3))
    >>> counting.count
    6
    """

    def __init__(self, inner: Metric):
        self.inner = inner
        self.count = 0
        self._lock = threading.Lock()

    def distance(self, a, b) -> float:
        with self._lock:
            self.count += 1
        return self.inner.distance(a, b)

    def batch_distance(self, xs: Sequence, y) -> np.ndarray:
        out = self.inner.batch_distance(xs, y)
        with self._lock:
            self.count += len(out)
        return out

    def segmented_distance(self, xs: Sequence, starts, ys: Sequence) -> np.ndarray:
        out = self.inner.segmented_distance(xs, starts, ys)
        with self._lock:
            self.count += len(out)
        return out

    def reset(self) -> int:
        """Zero the counter and return the value it had."""
        with self._lock:
            previous = self.count
            self.count = 0
        return previous

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CountingMetric({self.inner!r}, count={self.count})"
