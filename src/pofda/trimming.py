"""Depth-trimmed and ordinary missing-aware location estimators.

The trimmed mean keeps the m = n - floor(n * alpha) deepest curves and
averages their observed values per grid point. The realized depth
threshold beta is the smallest kept depth; ties at beta are broken by
lowest curve index so the kept set is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FunctionalSample, _check_integer, _check_real, _frozen, _readonly
from .poifd import _count_columns

__all__ = [
    "TrimSpec",
    "LocationEstimate",
    "resolved_keep_count",
    "select_trim",
    "trimmed_mean",
    "ordinary_mean",
]

# Absorbs binary representation error of decimal alphas (0.3 * 10 is a
# hair below 3.0 in float64) so floor(n * alpha) matches the decimal
# arithmetic it stands for.
_FLOOR_SNAP = 1e-9


def resolved_keep_count(n: int, alpha: float) -> int:
    """Number of curves kept by an alpha-trim of an n-curve sample."""
    _check_integer("n", n)
    if n < 1:
        raise ValueError("need at least one curve")
    _check_real("alpha", alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    trimmed = min(math.floor(n * alpha + _FLOOR_SNAP), n - 1)
    return n - trimmed


@dataclass(frozen=True)
class TrimSpec:
    """Resolved trimming decision: kept indices and realized threshold."""

    alpha: float
    beta: float
    kept: np.ndarray

    def __post_init__(self) -> None:
        kept = np.asarray(self.kept)
        if kept.size == 0:
            raise ValueError("trim keeps no curves")
        if kept.ndim != 1 or kept.dtype.kind not in "iu" or (kept[1:] <= kept[:-1]).any():
            raise ValueError(f"kept must be strictly increasing curve indices, got {kept!r}")
        object.__setattr__(self, "kept", _readonly(kept.astype(int)))

    @property
    def keep_count(self) -> int:
        return int(self.kept.size)


@dataclass(frozen=True)
class LocationEstimate:
    """Pointwise location estimate with definedness bookkeeping.

    `values` is NaN wherever `defined_mask` is false (no curve observed
    there at all); `fallback_mask` marks points where no retained curve
    was observed and the all-curve mean was used instead.
    """

    values: np.ndarray
    defined_mask: np.ndarray
    fallback_mask: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(np.asarray(self.values, float)))
        object.__setattr__(self, "defined_mask", _frozen(np.asarray(self.defined_mask, bool)))
        object.__setattr__(self, "fallback_mask", _frozen(np.asarray(self.fallback_mask, bool)))


def select_trim(depths, alpha: float) -> TrimSpec:
    """Pick the keep_count deepest curves, lowest index first among ties."""
    depths = np.asarray(depths, dtype=float)
    if depths.ndim != 1 or depths.size == 0:
        raise ValueError("depths must be a nonempty 1-d array")
    finite = np.isfinite(depths)
    if not finite.all():
        first = np.flatnonzero(~finite)[0]
        raise ValueError(f"depth of curve {first} is not finite: {depths[first]}")
    n = depths.size
    m = resolved_keep_count(n, alpha)
    # Stable argsort of the negated depths orders ties by curve index.
    order = np.argsort(-depths, kind="stable")
    kept = np.sort(order[:m])
    beta = float(depths[order[m - 1]])
    return TrimSpec(alpha=float(alpha), beta=beta, kept=kept)


def _pointwise_mean(values: np.ndarray, where: np.ndarray, counts: np.ndarray | None):
    """Per-point mean of the `where` entries of `values`, and where it is defined.

    `counts` are the per-point numbers of `where` entries. If None, they
    are counted from `where` once the sums are taken, in place: it must
    then be a fresh C-contiguous matrix, and is overwritten. The
    masked reduction adds the rows in order from +0.0, so it gives the
    bytes of np.where(where, values, 0).sum(axis=0) without that copy.
    """
    sums = np.add.reduce(values, axis=0, where=where)
    if counts is None:
        counts = _count_columns(where)
    out = np.full(counts.shape, np.nan)
    has = counts > 0
    out[has] = sums[has] / counts[has]
    return out, has


def trimmed_mean(sample: FunctionalSample, trim: TrimSpec) -> LocationEstimate:
    """Pointwise mean of the retained curves' observed values.

    Where some curve is observed but no retained one, the estimate falls
    back to the mean over all observing curves and the point is flagged;
    where nothing is observed the estimate is undefined. The all-curve
    mean is taken only when such a point exists.
    """
    if trim.kept[0] < 0 or trim.kept[-1] >= sample.n_curves:
        raise ValueError("kept indices out of range for this sample")

    # the kept curves' observed slots: summed in place, then counted
    rows = np.zeros(sample.n_curves, dtype=bool)
    rows[trim.kept] = True
    values, kept_has = _pointwise_mean(sample.values, sample.mask & rows[:, None], None)
    defined = sample.counts > 0
    fallback = defined & ~kept_has
    if fallback.any():
        # Over the whole matrix, as ordinary_mean sums: a column subset
        # rounds differently.
        values[fallback] = _pointwise_mean(sample.values, sample.mask, sample.counts)[0][fallback]
    return LocationEstimate(values=values, defined_mask=defined, fallback_mask=fallback)


def ordinary_mean(sample: FunctionalSample) -> LocationEstimate:
    """Pointwise mean over all observing curves; undefined at coverage gaps."""
    defined = sample.counts > 0
    return LocationEstimate(
        values=_pointwise_mean(sample.values, sample.mask, sample.counts)[0],
        defined_mask=defined,
        fallback_mask=np.zeros_like(defined),
    )
