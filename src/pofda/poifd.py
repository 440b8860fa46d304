"""Integrated functional depth for fully and partially observed curves.

The sample depth of a pair (curve, observation set) against a sample is
the coverage-weighted average of pointwise univariate depths over the
curve's observed grid points:

    sum_{t in O} D(x(t), P_{t,n}) phi(q_n(t)) / sum_{t in O} phi(q_n(t))

with q_n the per-point fraction of observing curves and phi a bounded
continuous weight shaping function on [0, 1] (identity by default).
When every curve is fully observed this reduces exactly to the
integrated depth with uniform point weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import FunctionalSample, PartialCurve, _readonly
from .depths import _READS_LT, DepthKind, depth_from_counts

__all__ = [
    "PhiLike",
    "NAMED_PHI",
    "resolve_phi",
    "DepthResult",
    "ifd",
    "poifd_of",
    "poifd_all",
    "pointwise_depth_field",
]

PhiLike = Union[str, Callable[[np.ndarray], np.ndarray]]

NAMED_PHI: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda q: np.asarray(q, dtype=float),
    "sqrt": lambda q: np.sqrt(q),
    "square": lambda q: np.square(q),
    "constant": lambda q: np.ones_like(np.asarray(q, dtype=float)),
}


def resolve_phi(phi: PhiLike) -> Callable[[np.ndarray], np.ndarray]:
    """Turn a named option or callable into a coverage-weight function."""
    if callable(phi):
        return phi
    try:
        return NAMED_PHI[phi]
    except KeyError:
        raise ValueError(
            f"unknown phi {phi!r}; named options: {sorted(NAMED_PHI)}"
        ) from None


def _phi_of_coverage(phi: PhiLike, coverage: np.ndarray) -> np.ndarray:
    out = np.asarray(resolve_phi(phi)(coverage), dtype=float)
    if out.shape != coverage.shape:
        raise ValueError("phi must map the coverage array elementwise")
    if not np.all(np.isfinite(out)) or np.any(out < 0.0):
        raise ValueError("phi must be finite and nonnegative on [0, 1]")
    return out


# Cells per block of grid columns ranked per pass in the depth field,
# so its temporaries stay small however large n is.
_BLOCK_CELLS = 1 << 16


def _rank_counts(block: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort order of each row of `block`, cut to its first `keep`
    positions, with the counts (#<= v, #< v) of the entry v at each of
    them among its row.

    Rows of `block` are grid columns, unobserved slots hold +inf: it
    sorts after every (finite) observed value, so an observed entry is
    counted among the observed ones only, and unlike NaN it keeps
    numpy's vectorized argsort path. With no row observed more than
    `keep` times, the cut drops unobserved slots only. In sorted order,
    #< v is the start of v's tie group and #<= v its end.
    """
    order = np.argsort(block, axis=1)[:, :keep]
    ranked = np.take_along_axis(block, order, axis=1)
    new_group = ranked[:, 1:] != ranked[:, :-1]
    pos = np.arange(1, keep)
    # a group start is the last new-group position at or before it ...
    c_lt = np.zeros(order.shape, np.intp)
    np.maximum.accumulate(np.where(new_group, pos, 0), axis=1, out=c_lt[:, 1:])
    # ... and a group end the first one after it, by a reversed scan
    c_le = np.full(order.shape, keep, np.intp)
    np.minimum.accumulate(np.where(new_group, pos, keep)[:, ::-1], axis=1, out=c_le[:, -2::-1])
    return order, c_le, c_lt


def _count_columns(hits: np.ndarray) -> np.ndarray:
    """Number of True entries in each column of a fresh C-contiguous bool
    matrix, as intp; `hits` is overwritten.

    While at least 128 rows remain, the rows are folded pairwise in place
    as bytes, the lower half added onto the upper half, at most 7 times:
    after f folds a byte holds a count of at most 2^f rows, so none
    wraps. The rows that remain are summed into the narrowest unsigned
    type that holds the row count, so the counts are exact for any
    number of rows. Fewer rows sum faster than they fold.
    """
    rows = hits.view(np.uint8)
    acc = np.min_scalar_type(rows.shape[0])
    for _ in range(7):
        m = rows.shape[0]
        if m < 128:
            break
        half = m // 2
        rows[:half] += rows[m - half :]
        rows = rows[: m - half]
    return rows.sum(axis=0, dtype=acc).astype(np.intp)


def _query_counts(
    sample: FunctionalSample, curve: PartialCurve, kind: DepthKind | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Usable grid points of a curve and the counts (#<= x(t), #< x(t)).

    A point is usable where the curve and at least one sample curve are
    observed. #< x(t) is counted only when `kind` is None or a kind whose
    depth formula reads it (Tukey, simplicial); for any other kind
    (Fraiman-Muniz) it is None, so the query takes one comparison
    instead of two. Each comparison runs over the full (n, T) value
    matrix in place, without copying it: unobserved slots hold NaN,
    which compares False, so only observed values are counted, and the
    usable points are kept at the end. Its bool result is counted per
    column by `_count_columns`, exactly and as intp, so the depth
    formulas' products of counts cannot wrap.
    """
    if len(curve) != sample.grid.size:
        raise ValueError("curve length does not match the sample grid")
    points = np.flatnonzero(curve.mask & (sample.counts > 0))
    if points.size == 0:
        raise ValueError("no sample curve observed on the curve's observation set")
    c_le = _count_columns(np.less_equal(sample.values, curve.values))[points]
    c_lt = None
    if kind is None or DepthKind(kind) in _READS_LT:
        c_lt = _count_columns(np.less(sample.values, curve.values))[points]
    return points, c_le, c_lt


def pointwise_depth_field(sample: FunctionalSample, kind: DepthKind) -> np.ndarray:
    """Per-curve per-point sample depths, NaN where a curve is unobserved.

    Each curve's own value participates in the pointwise empirical
    distribution it is evaluated against (plug-in convention). The
    depths are evaluated in each grid column's sorted order and written
    straight to their (curve, point) slots.
    """
    kind = DepthKind(kind)
    n, T = sample.values.shape
    out = np.empty((n, T))
    # a column no curve observes is NaN throughout; k = 1 there only
    # keeps the division defined
    k = np.maximum(sample.counts, 1)
    width = max(1, _BLOCK_CELLS // n)
    for start in range(0, T, width):
        cols = slice(start, start + width)
        block = np.where(sample.mask[:, cols], sample.values[:, cols], np.inf).T.copy()
        order, c_le, c_lt = _rank_counts(block, sample.counts[cols].max())
        # flat index into `out` of each entry in sorted order
        order *= T
        order += np.arange(start, start + block.shape[0])[:, None]
        out.reshape(-1)[order] = depth_from_counts(kind, c_le, c_lt, k[cols, None])
    np.copyto(out, np.nan, where=~sample.mask)
    return out


@dataclass(frozen=True)
class DepthResult:
    """Integrated depth of every curve in a sample, as a read-only array.

    The per-point depths behind it are `pointwise_depth_field`'s.
    """

    poifd: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "poifd", _readonly(np.asarray(self.poifd, float)))


def poifd_all(
    sample: FunctionalSample,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
) -> DepthResult:
    """Integrated depth of every curve in the sample.

    Parameters
    ----------
    sample : FunctionalSample
        Curves plus masks on a shared grid.
    kind : DepthKind
        Univariate depth used pointwise.
    phi : str or callable
        Coverage-weight shaping function on [0, 1].
    """
    field = pointwise_depth_field(sample, kind)
    weights = np.where(sample.mask, _phi_of_coverage(phi, sample.coverage), 0.0)
    norms = weights.sum(axis=1)
    if np.any(norms <= 0.0):
        bad = int(np.nonzero(norms <= 0.0)[0][0])
        raise ValueError(
            f"degenerate phi: weights of curve {bad} sum to zero over its observed points"
        )
    weights /= norms[:, None]
    # unobserved slots hold NaN in the field and weigh 0
    np.copyto(field, 0.0, where=~sample.mask)
    field *= weights
    return DepthResult(field.sum(axis=1))


def poifd_of(
    sample: FunctionalSample,
    curve: PartialCurve,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
) -> float:
    """Integrated depth of an arbitrary (curve, mask) pair against a sample.

    Grid points of the curve's observation set where no sample curve is
    observed carry no empirical information and are skipped. For a curve
    belonging to the sample this never happens and the result matches
    its entry in `poifd_all` up to rounding. The counts at each usable
    point run over the sample's full value matrix in place, with no
    copy: an unobserved slot holds NaN, which compares False, so it
    counts neither as <= x(t) nor as < x(t). Fraiman-Muniz reads #<= x(t)
    only and takes one comparison; Tukey and simplicial take two. Each
    comparison is counted per column by folding its rows as bytes.
    """
    kind = DepthKind(kind)
    points, c_le, c_lt = _query_counts(sample, curve, kind)
    base = _phi_of_coverage(phi, sample.coverage)
    depth_vals = depth_from_counts(kind, c_le, c_lt, sample.counts[points])
    return _weighted_mean(depth_vals, base[points])


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """sum(values * weights) / sum(weights) over one curve's usable points."""
    norm = weights.sum()
    if norm <= 0.0:
        raise ValueError("weights sum to zero over the curve's observed points")
    return float((values * weights).sum() / norm)


def ifd(
    sample: FunctionalSample,
    curve: PartialCurve,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
) -> float:
    """Integrated depth of a fully observed curve in a fully observed sample.

    The pointwise depths are averaged with uniform weights 1/T over the grid.
    """
    kind = DepthKind(kind)
    if not bool(sample.mask.all()):
        raise ValueError("ifd requires a fully observed sample")
    if not curve.is_fully_observed:
        raise ValueError("ifd requires a fully observed curve")
    # every point is usable: both sample and curve are fully observed
    _, c_le, c_lt = _query_counts(sample, curve, kind)
    depth_vals = depth_from_counts(kind, c_le, c_lt, sample.counts)
    return float((depth_vals * (1.0 / sample.grid.size)).sum())

