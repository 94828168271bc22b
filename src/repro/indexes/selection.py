"""Vantage-point selection strategies.

The quality of a vp-tree or mvp-tree depends on where its vantage points
sit ([Yia93]; the paper's section 6 lists better vantage-point selection
as future work and notes that "any optimization technique for vp-trees
can also be applied to the mvp-trees").  Three strategies are provided:

* :class:`RandomSelector` — the paper's experimental setup ("the random
  function used to pick vantage points", section 5.2).
* :class:`FarthestSelector` — pick the point farthest from a reference;
  the paper uses this rule for the *second* vantage point of an mvp-tree
  leaf (section 4.2, step 2.4).
* :class:`MaxSpreadSelector` — [Yia93]'s sampled heuristic: try a few
  random candidates and keep the one whose distances to a random sample
  have the largest spread (variance), i.e. the one that best
  discriminates the data.

Selection happens through the index's metric, so any distance
computations a strategy spends are charged to construction — exactly the
trade-off [Bri95] reports for GNAT (costlier builds, cheaper searches).

Every strategy splits into a count-only *draw* (all its rng calls, which
depend only on the number of candidates) and a data *pick* from the
distances its *runs* name.  The level-synchronous tree builds make the
draws in the recursive build's order from counts alone, then pay one
tree level's runs in one segmented metric call through the index's
counting gateway; :meth:`VantagePointSelector.select` is the two steps
composed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro._util import gather
from repro.metric.base import Metric


class VantagePointSelector(ABC):
    """Strategy object choosing one vantage point among candidate ids.

    A choice is two steps.  :meth:`draw` makes all of the strategy's
    rng calls and depends only on the candidate count, so a tree can
    make its nodes' draws from counts alone, before it computes their
    distances.  :meth:`runs` names the distances the data step
    needs and :meth:`pick` makes the choice from them; a level build
    pays one level's runs in one metric call.  :meth:`select` is the
    two steps composed.
    """

    @abstractmethod
    def draw(self, n: int, rng: np.random.Generator):
        """Count-only step: make the rng calls for ``n`` candidates and
        return what they drew."""

    def runs(self, n: int, draw):
        """The distances :meth:`pick` needs, as candidate positions
        ``(rows, starts, points)``: run ``i`` measures
        ``rows[starts[i]:starts[i+1]]`` against ``points[i]``.  ``None``
        when it needs none."""
        return None

    @abstractmethod
    def pick(self, draw, distances) -> int:
        """Data step: the chosen candidate's position, from the draw and
        the distances of :meth:`runs` (``None`` when there are none)."""

    def select(
        self,
        candidate_ids: Sequence[int],
        objects: Sequence,
        metric: Metric,
        rng: np.random.Generator,
    ) -> int:
        """Return the chosen vantage point's id (a member of candidates)."""
        candidate_ids = np.asarray(candidate_ids)
        draw = self.draw(len(candidate_ids), rng)
        runs = self.runs(len(candidate_ids), draw)
        distances = None
        if runs is not None:
            rows, starts, points = runs
            # Standalone selection has no index gateway to charge; a
            # CountingMetric still sees every evaluation.
            distances = metric.segmented_distance(  # repro-check: ignore[RC001]
                gather(objects, candidate_ids[rows]),
                starts,
                gather(objects, candidate_ids[points]),
            )
        return int(candidate_ids[self.pick(draw, distances)])


class RandomSelector(VantagePointSelector):
    """Pick a uniformly random candidate (the paper's default)."""

    def draw(self, n, rng) -> int:
        return int(rng.integers(n))

    def pick(self, draw, distances) -> int:
        return draw


class FarthestSelector(VantagePointSelector):
    """Pick the candidate farthest from a random reference candidate.

    A cheap approximation of "corner" points, which partition metric
    balls more evenly than central points.  Costs one batch of distance
    computations over the candidates.
    """

    def draw(self, n, rng) -> int:
        return int(rng.integers(n))

    def runs(self, n, draw):
        return np.arange(n), np.array([0, n]), np.array([draw])

    def pick(self, draw, distances) -> int:
        return int(np.argmax(distances))


class MaxSpreadSelector(VantagePointSelector):
    """[Yia93]'s heuristic: maximise the spread of distances to a sample.

    Parameters
    ----------
    n_candidates:
        How many random candidate vantage points to evaluate.
    sample_size:
        How many random data points each candidate is scored against.
    """

    def __init__(self, n_candidates: int = 5, sample_size: int = 20):
        if n_candidates < 1 or sample_size < 2:
            raise ValueError(
                "need n_candidates >= 1 and sample_size >= 2, got "
                f"{n_candidates} and {sample_size}"
            )
        self.n_candidates = n_candidates
        self.sample_size = sample_size

    def draw(self, n, rng):
        """Candidate and sample positions; no draw for one candidate."""
        if n == 1:
            return None
        candidates = rng.choice(n, size=min(self.n_candidates, n), replace=False)
        sample = rng.choice(n, size=min(self.sample_size, n), replace=False)
        return candidates, sample

    def runs(self, n, draw):
        if draw is None:
            return None
        candidates, sample = draw
        starts = np.arange(len(candidates) + 1) * len(sample)
        return np.tile(sample, len(candidates)), starts, candidates

    def pick(self, draw, distances) -> int:
        if draw is None:
            return 0
        candidates, sample = draw
        best, best_spread = int(candidates[0]), -1.0
        for at, candidate in enumerate(candidates):
            spread = float(np.var(distances[at * len(sample) : (at + 1) * len(sample)]))
            if spread > best_spread:
                best, best_spread = int(candidate), spread
        return best


_SELECTORS = {
    "random": RandomSelector,
    "farthest": FarthestSelector,
    "max_spread": MaxSpreadSelector,
}


def get_selector(name: str | VantagePointSelector) -> VantagePointSelector:
    """Resolve a selector by name ("random", "farthest", "max_spread").

    Passing an existing selector instance returns it unchanged, so index
    constructors accept either form.
    """
    if isinstance(name, VantagePointSelector):
        return name
    try:
        return _SELECTORS[name]()
    except KeyError:
        raise ValueError(
            f"unknown selector {name!r}; expected one of {sorted(_SELECTORS)}"
        ) from None
