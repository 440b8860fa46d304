"""Grids and partially observed curves.

A curve lives on a common evaluation grid 0 = t_1 < ... < t_T = 1 and is
observed only on a subset of grid points given by a boolean mask. A
:class:`FunctionalSample` holds n such curves as an (n, T) value matrix
plus an (n, T) mask and exposes the per-point coverage
q_n(t) = #{i : curve i observed at t} / n. :class:`PartialCurve` is the
single-curve type: a query curve, or one row of a sample.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

__all__ = [
    "Grid",
    "PartialCurve",
    "FunctionalSample",
    "build_sample",
]


def _check_integer(name: str, value) -> None:
    """Reject a count that is not an integer, bools included."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """Reject a parameter that is not a real number, bools included."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    return _readonly(np.array(a, copy=True))


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array the caller owns read-only, without copying it."""
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
        _check_integer("size", size)
        if size < 2:
            raise ValueError("grid needs at least two points")
        return cls(np.linspace(0.0, 1.0, size))

    @property
    def size(self) -> int:
        return int(self.points.size)


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
        object.__setattr__(self, "values", _readonly(np.where(mask, values, np.nan)))
        object.__setattr__(self, "mask", _frozen(mask))

    @classmethod
    def fully_observed(cls, values: Iterable[float]) -> "PartialCurve":
        values = np.asarray(values, dtype=float)
        return cls(values, np.ones(values.shape, dtype=bool))

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def is_fully_observed(self) -> bool:
        return bool(self.mask.all())

    @classmethod
    def _row_view(cls, values: np.ndarray, mask: np.ndarray) -> "PartialCurve":
        # Rows of a validated FunctionalSample: adopt them as they are.
        curve = object.__new__(cls)
        object.__setattr__(curve, "values", values)
        object.__setattr__(curve, "mask", mask)
        return curve


class _RowViews(Sequence):
    """The rows of a sample's two matrices as PartialCurve views, built when read."""

    __slots__ = ("_values", "_mask")

    def __init__(self, values: np.ndarray, mask: np.ndarray) -> None:
        self._values = values
        self._mask = mask

    def __len__(self) -> int:
        return self._values.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(PartialCurve._row_view, self._values[i], self._mask[i]))
        i = operator.index(i)
        return PartialCurve._row_view(self._values[i], self._mask[i])

    def __iter__(self):
        return map(PartialCurve._row_view, self._values, self._mask)


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """n partial curves sharing a grid, with derived per-point coverage.

    Immutable after construction; all reads are safe to share across
    threads. `values` is the (n, T) value matrix with NaN at unobserved
    slots, `mask` the (n, T) observation matrix, `counts` the per-point
    number of observing curves #I(t), and `coverage` equals counts / n.
    Value slots the mask leaves unobserved are overwritten with NaN.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    coverage: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._store(self.values, self.mask, copy=True)

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray, mask: np.ndarray) -> "FunctionalSample":
        """A sample that takes over the arrays it is given: the constructor's checks, no copy.

        `values` should be a fresh C-contiguous float64 matrix that no
        one else holds: NaN is written into its unobserved slots in
        place. `mask` may be another sample's read-only mask. Both are
        marked read-only. Arrays of another layout or dtype are copied.
        """
        sample = object.__new__(cls)
        object.__setattr__(sample, "grid", grid)
        sample._store(values, mask, copy=False)
        return sample

    def _store(self, values, mask, copy: bool) -> None:
        """Check the matrices against the grid and store them read-only with NaN
        at unobserved slots: as fresh copies, or else as the arrays themselves."""
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        T = self.grid.size
        if values.ndim != 2 or values.shape[0] == 0:
            raise ValueError("sample needs at least one curve")
        if values.shape[1] != T:
            raise ValueError(
                f"curves have length {values.shape[1]} but the grid has {T} points"
            )
        if mask.shape != values.shape:
            raise ValueError("values and mask must have the same (n, T) shape")
        unobserved = np.flatnonzero(~mask.any(axis=1))
        if unobserved.size:
            raise ValueError(f"curve {unobserved[0]} is unobserved everywhere")
        counts = mask.sum(axis=0)
        # one bool matrix: the observed slots that hold a finite value
        finite = np.isfinite(values)
        finite &= mask
        if np.count_nonzero(finite) != counts.sum():
            raise ValueError("observed values must be finite")
        del finite
        if copy:
            # One fresh C-contiguous copy of each matrix, NaN wherever unobserved.
            values = np.ascontiguousarray(np.where(mask, values, np.nan))
            mask = np.array(mask, order="C")
        else:
            values = np.ascontiguousarray(values)
            mask = np.ascontiguousarray(mask)
            np.copyto(values, np.nan, where=~mask)
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "mask", _readonly(mask))
        object.__setattr__(self, "counts", _readonly(counts))
        object.__setattr__(self, "coverage", _readonly(counts / values.shape[0]))

    @property
    def n_curves(self) -> int:
        return int(self.values.shape[0])

    @cached_property
    def curves(self) -> Sequence[PartialCurve]:
        """Per-curve read-only views of the rows of `values` and `mask`,
        each built when read; a slice is a tuple of them."""
        return _RowViews(self.values, self.mask)


def build_sample(grid: Grid, curves: Sequence[PartialCurve]) -> FunctionalSample:
    """Stack partial curves into an immutable sample on a shared grid."""
    curves = list(curves)  # one walk: a sample's `curves` builds each view when read
    if not curves:
        raise ValueError("sample needs at least one curve")
    T = grid.size
    for j, curve in enumerate(curves):
        if len(curve) != T:
            raise ValueError(
                f"curve {j} has length {len(curve)} but the grid has {T} points"
            )
    return FunctionalSample(
        grid, np.vstack([c.values for c in curves]), np.vstack([c.mask for c in curves])
    )
