"""Brute-force oracles, written without the library's index code.

* Vectors: raw numpy L2 over every point (:class:`VectorOracle`).
* Words: a vectorised Levenshtein table over every corpus word
  (:class:`WordOracle`), itself checked against a plain loop over
  ``EditDistance`` on a sample of queries in every run.
* Churn: the same numpy scan over the live id-set the client's own
  inserts and deletes left at the moment of each query (the op-log
  replay in ``ChurnWorkload.check``).

Every check returns a list of error strings; an empty list is a pass.
Distances are compared with a small tolerance and ids must match except
where two candidates tie within it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

TOL = 1e-9


def _ranked(distances: np.ndarray, ids: np.ndarray, k: int):
    """The oracle's top-``k`` as ``(distances, ids)`` ordered by
    ``(distance, id)``."""
    k = min(k, len(ids))
    if k == 0:
        return distances[:0], ids[:0]
    part = np.argpartition(distances, k - 1)[:k] if k < len(ids) else np.arange(len(ids))
    # Widen to every candidate tied with the k-th distance so the id
    # tie-break sees all of them.
    kth = distances[part].max()
    cand = np.nonzero(distances <= kth + TOL)[0]
    order = np.lexsort((ids[cand], distances[cand]))[:k]
    chosen = cand[order]
    return distances[chosen], ids[chosen]


def check_range(answer: Sequence[int], distances: np.ndarray, ids: np.ndarray, radius: float) -> list[str]:
    got = sorted(int(i) for i in answer)
    must = set(ids[distances <= radius - TOL].tolist())
    may = set(ids[distances <= radius + TOL].tolist())
    got_set = set(got)
    errors = []
    if len(got_set) != len(got):
        errors.append("range answer repeats an id")
    if not must <= got_set:
        errors.append(f"range answer misses ids {sorted(must - got_set)[:5]}")
    if not got_set <= may:
        errors.append(f"range answer has ids out of range {sorted(got_set - may)[:5]}")
    return errors


def _true_distances(got_i: np.ndarray, distances: np.ndarray, ids: np.ndarray):
    """Oracle distances of the returned ids (``ids`` is ascending);
    ``None`` when an id is not a live point."""
    pos = np.searchsorted(ids, got_i)
    if len(got_i) and (pos.max() >= len(ids) or not np.array_equal(ids[pos], got_i)):
        return None
    return distances[pos]


def check_knn(answer, distances: np.ndarray, ids: np.ndarray, k: int) -> list[str]:
    """Exact k-NN: every returned distance is true, the list equals the
    oracle's ``(distance, id)`` ranking, and ids may differ only where
    two candidates tie within :data:`TOL`."""
    want_d, want_i = _ranked(distances, ids, k)
    got_d = np.array([n.distance for n in answer], dtype=float)
    got_i = np.array([n.id for n in answer], dtype=np.int64)
    if len(got_d) != len(want_d):
        return [f"knn answer has {len(got_d)} neighbours, expected {len(want_d)}"]
    true_d = _true_distances(got_i, distances, ids)
    if true_d is None or np.abs(true_d - got_d).max(initial=0) > TOL * max(1.0, float(got_d.max(initial=0))):
        return ["knn answer reports a wrong distance or an unknown id"]
    if len(set(got_i.tolist())) != len(got_i):
        return ["knn answer repeats an id"]
    if np.abs(got_d - want_d).max(initial=0) > TOL * max(1.0, float(want_d.max(initial=0))):
        return [f"knn distances differ: got {got_d[:3]}, expected {want_d[:3]}"]
    # Each returned id sits at its oracle distance, so a differing id is a
    # tie within TOL.  Bit-equal distances (integer metrics) must also
    # follow the (distance, id) tie-break exactly.
    if np.array_equal(got_d, want_d) and not np.array_equal(got_i, want_i):
        return [f"knn ids {got_i.tolist()} break the (distance, id) order {want_i.tolist()}"]
    return []


def check_budgeted_knn(
    answer, report, distances: np.ndarray, ids: np.ndarray, k: int
) -> tuple[list[str], float]:
    """A budgeted k-NN answer may miss neighbours, but each returned
    distance must be true, the list sorted, and the certificate sound.
    Returns ``(errors, recall)``."""
    errors = []
    got = [(float(n.distance), int(n.id)) for n in answer]
    if got != sorted(got):
        errors.append("budgeted knn answer is not sorted")
    got_d = np.array([d for d, _ in got], dtype=float)
    true_d = _true_distances(np.array([g for _, g in got], dtype=np.int64), distances, ids)
    if true_d is None or np.abs(true_d - got_d).max(initial=0) > TOL * max(1.0, float(got_d.max(initial=0))):
        errors.append("budgeted knn reports a wrong distance or an unknown id")
    want_d, want_i = _ranked(distances, ids, k)
    kth = float(want_d[-1]) if len(want_d) else 0.0
    exact = set(want_i.tolist())
    hits = sum(1 for d, g in got if g in exact or d <= kth + TOL)
    recall = hits / max(1, len(want_i))
    if report is not None:
        if recall + TOL < report.recall_lower_bound:
            errors.append(
                f"certificate claims recall >= {report.recall_lower_bound}, true {recall}"
            )
        for (d, g), sound in zip(got, report.sound):
            if sound and g not in exact and d > kth + TOL:
                errors.append(f"certificate marks id {g} sound but it is not a true neighbour")
                break
    return errors, recall


def l2_distances(points: np.ndarray, query) -> np.ndarray:
    """Raw numpy L2 from ``query`` to every row of ``points``."""
    diff = points - np.asarray(query, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class VectorOracle:
    """L2 brute force over a fixed matrix."""

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=np.float64)
        self.ids = np.arange(len(self.points), dtype=np.int64)

    def distances(self, query) -> np.ndarray:
        return l2_distances(self.points, query)


def levenshtein_all(words_matrix: np.ndarray, lengths: np.ndarray, query: str) -> np.ndarray:
    """Edit distance from ``query`` to every row of a padded code matrix.

    One dynamic-programming table per word, advanced a word position at a
    time for all words together; word ``n``'s distance is read off when
    the row index reaches its length.
    """
    n, width = words_matrix.shape
    q = np.frombuffer(query.encode("ascii"), dtype=np.uint8)
    m = len(q)
    prev = np.tile(np.arange(m + 1, dtype=np.int32), (n, 1))
    out = np.full(n, m, dtype=np.int32)  # words of length 0
    for i in range(1, width + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        col = words_matrix[:, i - 1]
        for j in range(1, m + 1):
            sub = prev[:, j - 1] + (col != q[j - 1])
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1), sub)
        done = lengths == i
        out[done] = cur[done, m]
        prev = cur
    return out


class WordOracle:
    """Edit-distance brute force over a fixed word list."""

    def __init__(self, words: Sequence[str]):
        self.words = list(words)
        self.lengths = np.array([len(w) for w in self.words], dtype=np.int32)
        width = int(self.lengths.max())
        self.matrix = np.zeros((len(self.words), width), dtype=np.uint8)
        for row, word in enumerate(self.words):
            self.matrix[row, : len(word)] = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
        self.ids = np.arange(len(self.words), dtype=np.int64)

    def distances(self, query: str) -> np.ndarray:
        return levenshtein_all(self.matrix, self.lengths, query).astype(np.float64)

    def cross_check(self, queries: Sequence[str], metric) -> list[str]:
        """Compare the table against a plain loop over ``metric``."""
        errors = []
        for query in queries:
            loop = np.array([metric.distance(w, query) for w in self.words], dtype=np.float64)
            if not np.array_equal(loop, self.distances(query)):
                errors.append(f"vectorised edit distance disagrees with the metric for {query!r}")
        return errors


def check_record(kind: str, value, report, param, distances, ids) -> tuple[list[str], Optional[float]]:
    """Dispatch one answer to its check; returns ``(errors, recall)``."""
    if kind == "range":
        return check_range(value, distances, ids, param), None
    if kind == "knn":
        return check_knn(value, distances, ids, param), 1.0
    if kind == "bknn":
        return check_budgeted_knn(value, report, distances, ids, param)
    raise ValueError(f"no oracle for op kind {kind!r}")
