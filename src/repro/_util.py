"""Small shared helpers used across index implementations."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def as_rng(rng: RngLike) -> np.random.Generator:
    """Coerce ``None``, an int seed, or a Generator into a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def gather(objects: Sequence, ids: Sequence[int]):
    """Collect ``objects[i] for i in ids`` efficiently.

    numpy arrays use ``take`` along the first axis (keeping batch
    distance computations vectorised; for rows of a 2-D array it is
    several times faster than fancy indexing); generic sequences fall
    back to a list.
    """
    if isinstance(objects, np.ndarray):
        return objects.take(np.asarray(ids, dtype=np.intp), axis=0)
    return [objects[i] for i in ids]


def check_non_empty(objects: Sequence, structure: str) -> None:
    """Raise ValueError for empty datasets with a consistent message."""
    if len(objects) == 0:
        raise ValueError(f"cannot build a {structure} over an empty dataset")


#: Relative slack used by pruning comparisons.  Triangle-inequality
#: bounds are computed by subtracting floats, which can overshoot the
#: exact bound by a few ulp; pruning decisions therefore only fire when
#: the bound clears the threshold by this margin.  The slack can only
#: *admit* extra candidates (whose true distances are then computed),
#: so search results remain exact.
PRUNE_EPSILON = 1e-9


def slack(value: float) -> float:
    """Absolute slack for comparisons against ``value``."""
    return PRUNE_EPSILON * (1.0 + abs(value))


def definitely_greater(a: float, b: float) -> bool:
    """True when ``a > b`` by more than floating-point noise."""
    return a > b + slack(b)


def definitely_less(a: float, b: float) -> bool:
    """True when ``a < b`` by more than floating-point noise."""
    return a < b - slack(b)
