"""Minkowski (Lp) metrics over numeric vectors.

Section 5.1 of the paper uses the Euclidean metric (L2) for the vector
workloads and both L1 and L2 for the gray-level images, with the image
distances normalised (L1 by 10000, L2 by 100) to keep the values small.
The ``scale`` argument reproduces that normalisation: the reported
distance is the raw Lp distance divided by ``scale``.

The paper also sketches a *weighted* Lp for images, where each pixel
position carries a weight (e.g. to emphasise the centre of the image);
:class:`WeightedMinkowski` implements it.  Any positive weighting keeps
the function a metric because it is an Lp norm of ``w**(1/p) * (x - y)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.metric.base import Metric


class Minkowski(Metric):
    """The Lp metric ``(sum_i |x_i - y_i|^p)^(1/p)``, optionally rescaled.

    Parameters
    ----------
    p:
        The order of the norm; must be >= 1 for the triangle inequality
        to hold (p < 1 is rejected).
    scale:
        Positive divisor applied to the final distance.  The paper
        normalises image distances this way (section 5.1.B).
    """

    def __init__(self, p: float, scale: float = 1.0):
        if p < 1:
            raise ValueError(f"Minkowski order must be >= 1, got {p}")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.p = float(p)
        self.scale = float(scale)
        # Decided once: the norm's shape, and whether to divide at all
        # (x / 1.0 == x, so skipping it changes no bit).
        self._kind = (
            "max" if np.isinf(self.p)
            else "sum" if self.p == 1.0
            else "l2" if self.p == 2.0
            else "power"
        )
        self._rescale = self.scale != 1.0

    def distance(self, a, b) -> float:
        # np.asarray: a difference of scalars is a numpy scalar, which
        # cannot take the norm's in-place writes.
        return self._norm(
            np.asarray(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)), None
        )

    def batch_distance(self, xs: Sequence, y) -> np.ndarray:
        if (
            type(xs) is np.ndarray
            and xs.ndim == 2
            and xs.dtype == np.float64
            and type(y) is np.ndarray
            and y.ndim == 1
            and y.dtype == np.float64
        ):
            # The kernels' case: gathered rows against one query.
            return self._norm(xs - y, 1)
        if len(xs) == 0:
            return np.empty(0)
        matrix = np.asarray(xs, dtype=float)
        if matrix.ndim == 1:  # a batch of scalars
            matrix = matrix[:, np.newaxis]
            y = np.atleast_1d(np.asarray(y, dtype=float))
        return self._norm(
            matrix.reshape(len(matrix), -1) - np.ravel(np.asarray(y, dtype=float)), 1
        )

    def segmented_distance(self, xs: Sequence, starts, ys: Sequence) -> np.ndarray:
        if type(self).batch_distance is not Minkowski.batch_distance:
            # A subclass that overrides batch_distance (to record or
            # count calls, say) keeps it: one call per run.
            return super().segmented_distance(xs, starts, ys)
        counts = np.diff(np.asarray(starts, dtype=np.intp))
        if not len(counts) or not counts.sum():
            return np.empty(0)
        matrix = np.asarray(xs, dtype=float)
        points = np.asarray(ys, dtype=float)
        if matrix.ndim == 1:  # runs of scalars
            matrix = matrix[:, np.newaxis]
        matrix = matrix.reshape(len(matrix), -1)
        # Row for row the same subtraction and reduction as
        # batch_distance, so every value matches a per-run call.
        diff = np.repeat(points.reshape(len(points), -1), counts, axis=0)
        return self._norm(np.subtract(matrix, diff, out=diff), 1)

    def _norm(self, diff: np.ndarray, axis):
        """The scaled Lp norm of the differences ``diff``, which it
        overwrites (every caller passes a fresh difference array)."""
        kind = self._kind
        if kind == "l2":
            # x * x == |x| * |x| bit for bit, so no abs.
            value = np.sqrt(np.square(diff, out=diff).sum(axis=axis))
        elif kind == "sum":
            value = np.abs(diff, out=diff).sum(axis=axis)
        elif kind == "max":
            value = np.abs(diff, out=diff).max(axis=axis)
        else:
            powered = np.power(np.abs(diff, out=diff), self.p, out=diff)
            value = np.power(powered.sum(axis=axis), 1.0 / self.p)
        return value / self.scale if self._rescale else value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scale = f", scale={self.scale}" if self.scale != 1.0 else ""
        return f"{type(self).__name__}(p={self.p}{scale})"


class L1(Minkowski):
    """Manhattan / city-block distance (the paper's image L1 metric)."""

    def __init__(self, scale: float = 1.0):
        super().__init__(1.0, scale=scale)


class L2(Minkowski):
    """Euclidean distance (the paper's vector and image L2 metric)."""

    def __init__(self, scale: float = 1.0):
        super().__init__(2.0, scale=scale)


class LInf(Minkowski):
    """Chebyshev / maximum-coordinate distance."""

    def __init__(self, scale: float = 1.0):
        super().__init__(np.inf, scale=scale)


class WeightedMinkowski(Metric):
    """Lp metric with positive per-dimension weights.

    ``d(x, y) = (sum_i w_i * |x_i - y_i|^p)^(1/p) / scale``

    Section 5.1.B of the paper suggests exactly this for images: weight
    each pixel position so that, e.g., the centre of the image counts
    more.  Positive weights preserve all four metric axioms.
    """

    def __init__(self, p: float, weights, scale: float = 1.0):
        if p < 1 or np.isinf(p):
            raise ValueError(f"weighted Minkowski requires finite p >= 1, got {p}")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.size == 0 or np.any(weights <= 0):
            raise ValueError("weights must be a non-empty array of positive values")
        self.p = float(p)
        self.scale = float(scale)
        self.weights = weights

    def distance(self, a, b) -> float:
        diff = np.abs(
            np.ravel(np.asarray(a, dtype=float))
            - np.ravel(np.asarray(b, dtype=float))
        )
        return self._weighted_norm(diff, axis=None)

    def batch_distance(self, xs: Sequence, y) -> np.ndarray:
        matrix = np.asarray(xs, dtype=float).reshape(len(xs), -1)
        diff = np.abs(matrix - np.ravel(np.asarray(y, dtype=float)))
        return self._weighted_norm(diff, axis=1)

    def _weighted_norm(self, diff: np.ndarray, axis):
        powered = self.weights * np.power(diff, self.p)
        return np.power(powered.sum(axis=axis), 1.0 / self.p) / self.scale

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedMinkowski(p={self.p}, dims={self.weights.size})"
