"""Grids, partially observed curves, and per-point empirical distributions.

A curve lives on a common evaluation grid 0 = t_1 < ... < t_T = 1 and is
observed only on a subset of grid points given by a boolean mask. A
:class:`FunctionalSample` bundles n such curves and exposes the per-point
coverage q_n(t) = #{i : curve i observed at t} / n together with the
pointwise empirical distributions of the observed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "PartialCurve",
    "FunctionalSample",
    "PointwiseEcdf",
    "build_sample",
    "ecdf_at",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Common evaluation grid: strictly increasing points from 0 to 1."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", _frozen(pts))

    @classmethod
    def uniform(cls, size: int) -> "Grid":
        """Equidistant grid with `size` points on [0, 1]."""
        if size < 2:
            raise ValueError("grid needs at least two points")
        return cls(np.linspace(0.0, 1.0, size))

    @property
    def size(self) -> int:
        return int(self.points.size)

    def __len__(self) -> int:
        return self.size

    def uniform_weights(self) -> np.ndarray:
        """Point-mass weights 1/T per grid point; they sum to 1."""
        return np.full(self.size, 1.0 / self.size)

    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights over [0, 1].

        Strictly positive for a strictly increasing grid and summing to
        the domain length, i.e. exactly 1.
        """
        pts = self.points
        w = np.empty(pts.size)
        w[0] = (pts[1] - pts[0]) / 2.0
        w[-1] = (pts[-1] - pts[-2]) / 2.0
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
        return w


@dataclass(frozen=True)
class PartialCurve:
    """One functional observation: grid values plus an observation mask.

    Value slots at unobserved points are stored as NaN so that any
    arithmetic read of a masked-out slot surfaces as NaN in results
    instead of silently contributing a number.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 1 or mask.shape != values.shape:
            raise ValueError("values and mask must be 1-d arrays of equal length")
        if not mask.any():
            raise ValueError("curve is unobserved everywhere")
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("observed values must be finite")
        object.__setattr__(self, "values", _frozen(np.where(mask, values, np.nan)))
        object.__setattr__(self, "mask", _frozen(mask))

    @classmethod
    def fully_observed(cls, values: Iterable[float]) -> "PartialCurve":
        values = np.asarray(values, dtype=float)
        return cls(values, np.ones(values.shape, dtype=bool))

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    @property
    def is_fully_observed(self) -> bool:
        return bool(self.mask.all())

    def observed_values(self) -> np.ndarray:
        return self.values[self.mask]


@dataclass(frozen=True)
class FunctionalSample:
    """n partial curves sharing a grid, with derived per-point coverage.

    Immutable after construction; all reads are safe to share across
    threads. `values` is the (n, T) value matrix with NaN at unobserved
    slots, `mask` the (n, T) observation matrix, `counts` the per-point
    number of observing curves #I(t), and `coverage` equals counts / n.
    """

    grid: Grid
    curves: tuple[PartialCurve, ...]
    values: np.ndarray = field(init=False, repr=False, compare=False)
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    coverage: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        curves = tuple(self.curves)
        if not curves:
            raise ValueError("sample needs at least one curve")
        T = self.grid.size
        for j, curve in enumerate(curves):
            if len(curve) != T:
                raise ValueError(
                    f"curve {j} has length {len(curve)} but the grid has {T} points"
                )
        mask = np.vstack([c.mask for c in curves])
        values = np.vstack([c.values for c in curves])
        counts = mask.sum(axis=0)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "mask", _frozen(mask))
        object.__setattr__(self, "counts", _frozen(counts))
        object.__setattr__(self, "coverage", _frozen(counts / len(curves)))

    @property
    def n_curves(self) -> int:
        return len(self.curves)

    def observed_at(self, point_index: int) -> np.ndarray:
        """Observed values at one grid point, in curve order."""
        col_mask = self.mask[:, point_index]
        return self.values[col_mask, point_index]


@dataclass(frozen=True)
class PointwiseEcdf:
    """Right-continuous empirical CDF of the observed values at one point.

    All mass sits on the observed values; `cdf_left` gives the left limit
    F(x-) so that F(x) - F(x-) equals the sample multiplicity of x.
    """

    sorted_values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.sorted_values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("ecdf needs at least one observed value")
        if not np.all(np.isfinite(v)):
            raise ValueError("ecdf values must be finite")
        object.__setattr__(self, "sorted_values", _frozen(np.sort(v)))

    @property
    def size(self) -> int:
        return int(self.sorted_values.size)

    def count_le(self, x):
        """Number of observed values <= x (scalar or array x)."""
        return np.searchsorted(self.sorted_values, x, side="right")

    def count_lt(self, x):
        """Number of observed values < x (scalar or array x)."""
        return np.searchsorted(self.sorted_values, x, side="left")

    def cdf(self, x):
        return self.count_le(x) / self.size

    def cdf_left(self, x):
        return self.count_lt(x) / self.size


def build_sample(grid: Grid, curves: Sequence[PartialCurve]) -> FunctionalSample:
    """Assemble partial curves into an immutable sample on a shared grid."""
    return FunctionalSample(grid, tuple(curves))


def ecdf_at(sample: FunctionalSample, point_index: int) -> PointwiseEcdf:
    """Empirical distribution of the observed values at one grid point.

    Raises ValueError when no curve is observed there: a coverage gap the
    caller must handle explicitly rather than receive an empty ECDF.
    """
    if not 0 <= point_index < sample.grid.size:
        raise ValueError(f"point index {point_index} out of range")
    if sample.counts[point_index] == 0:
        raise ValueError(f"no curve observed at grid point {point_index}")
    return PointwiseEcdf(sample.observed_at(point_index))
