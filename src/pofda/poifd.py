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

from .core import FunctionalSample, PartialCurve, _frozen
from .depths import DepthKind, depth_from_counts

__all__ = [
    "PhiLike",
    "NAMED_PHI",
    "resolve_phi",
    "DepthResult",
    "ifd",
    "poifd_sample",
    "poifd_of",
    "poifd_all",
    "k_functional",
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


def _point_weights(
    sample: FunctionalSample,
    phi: PhiLike = "identity",
    weighting: str = "points",
    w=None,
) -> np.ndarray:
    """Unnormalized per-point weights over the grid.

    A fixed weight vector when `w` is given ('uniform', 'trapezoid', or
    an explicit array summing to 1); otherwise the coverage weights
    phi(q_n), trapezoid-scaled under weighting='trapezoid'.
    """
    if w is None:
        base = _phi_of_coverage(phi, sample.coverage)
        if weighting == "trapezoid":
            return base * sample.grid.trapezoid_weights()
        if weighting != "points":
            raise ValueError("weighting must be 'points' or 'trapezoid'")
        return base
    if isinstance(w, str):
        if w == "uniform":
            return sample.grid.uniform_weights()
        if w == "trapezoid":
            return sample.grid.trapezoid_weights()
        raise ValueError(f"unknown weight name {w!r}")
    w = np.asarray(w, dtype=float)
    if w.shape != (sample.grid.size,):
        raise ValueError("weight vector length does not match the grid")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return w


# Grid columns ranked per pass: about this many cells, so the integer
# temporaries stay small however large n is.
_BLOCK_CELLS = 1 << 16


def _rank_counts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts (#<= v, #< v) of every entry v of a row among that row.

    Rows of `block` are grid columns, unobserved slots hold +inf: it
    sorts after every (finite) observed value, so an observed entry is
    counted among the observed ones only, and unlike NaN it keeps
    numpy's vectorized argsort path. In sorted order, #< v is the start
    of v's tie group and #<= v its end.
    """
    n = block.shape[1]
    order = np.argsort(block, axis=1)
    ranked = np.take_along_axis(block, order, axis=1)
    pos = np.arange(1, n)
    new_group = ranked[:, 1:] != ranked[:, :-1]
    starts = np.zeros(block.shape, dtype=np.intp)
    starts[:, 1:] = np.where(new_group, pos, 0)
    ends = np.full(block.shape, n, dtype=np.intp)
    ends[:, :-1] = np.where(new_group, pos, n)
    c_lt = np.empty_like(starts)
    c_le = np.empty_like(ends)
    np.put_along_axis(c_lt, order, np.maximum.accumulate(starts, axis=1), axis=1)
    np.put_along_axis(
        c_le, order, np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1], axis=1
    )
    return c_le, c_lt


def _query_counts(
    sample: FunctionalSample, curve: PartialCurve
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Usable grid points of a curve and the counts (#<= x(t), #< x(t)).

    A point is usable where the curve and at least one sample curve are
    observed; the counts run over the sample's observed values there,
    unobserved slots being NaN, which compares False.
    """
    if len(curve) != sample.grid.size:
        raise ValueError("curve length does not match the sample grid")
    points = np.flatnonzero(curve.mask & (sample.counts > 0))
    if points.size == 0:
        raise ValueError("no sample curve observed on the curve's observation set")
    observed = sample.values[:, points]
    x = curve.values[points]
    return (
        points,
        np.count_nonzero(observed <= x, axis=0),
        np.count_nonzero(observed < x, axis=0),
    )


def pointwise_depth_field(sample: FunctionalSample, kind: DepthKind) -> np.ndarray:
    """Per-curve per-point sample depths, NaN where a curve is unobserved.

    Each curve's own value participates in the pointwise empirical
    distribution it is evaluated against (plug-in convention).
    """
    kind = DepthKind(kind)
    n, T = sample.values.shape
    out = np.full((n, T), np.nan)
    # columns no curve observes stay NaN and keep k = 0 out of the division
    columns = np.flatnonzero(sample.counts)
    width = max(1, _BLOCK_CELLS // n)
    for start in range(0, columns.size, width):
        cols = columns[start : start + width]
        block = np.where(sample.mask.T[cols], sample.values.T[cols], np.inf)
        c_le, c_lt = _rank_counts(block)
        depth = depth_from_counts(kind, c_le, c_lt, sample.counts[cols, None])
        out[:, cols] = np.where(sample.mask[:, cols], depth.T, np.nan)
    return out


@dataclass(frozen=True)
class DepthResult:
    """Depths of every curve in a sample plus their building blocks.

    `contributions` holds the pointwise depth field D(x_i(t), P_{t,n}) and
    `weights` the per-curve normalized coverage weights; both are NaN at
    unobserved slots, and per curve the weights sum to 1 over its
    observed points, so `poifd` can be re-checked as the weighted sum of
    the contributions.
    """

    poifd: np.ndarray
    contributions: np.ndarray
    weights: np.ndarray
    kind: DepthKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "poifd", _frozen(np.asarray(self.poifd, float)))
        object.__setattr__(self, "contributions", _frozen(self.contributions))
        object.__setattr__(self, "weights", _frozen(self.weights))

    @property
    def n_curves(self) -> int:
        return int(self.poifd.size)


def poifd_all(
    sample: FunctionalSample,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
    weighting: str = "points",
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
    weighting : {'points', 'trapezoid'}
        'points' matches the plain sum over observed grid points;
        'trapezoid' additionally scales by trapezoid cell widths.
    """
    contributions = pointwise_depth_field(sample, kind)
    base = _point_weights(sample, phi, weighting)

    raw = np.where(sample.mask, base[None, :], 0.0)
    norms = raw.sum(axis=1)
    if np.any(norms <= 0.0):
        bad = int(np.nonzero(norms <= 0.0)[0][0])
        raise ValueError(
            f"degenerate phi: weights of curve {bad} sum to zero over its observed points"
        )
    normalized = raw / norms[:, None]
    depths = (normalized * np.where(sample.mask, contributions, 0.0)).sum(axis=1)
    weights = np.where(sample.mask, normalized, np.nan)
    return DepthResult(depths, contributions, weights, DepthKind(kind))


def poifd_of(
    sample: FunctionalSample,
    curve: PartialCurve,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
    weighting: str = "points",
) -> float:
    """Integrated depth of an arbitrary (curve, mask) pair against a sample.

    Grid points of the curve's observation set where no sample curve is
    observed carry no empirical information and are skipped. For a curve
    belonging to the sample this never happens and the result matches
    `poifd_sample`.
    """
    kind = DepthKind(kind)
    points, c_le, c_lt = _query_counts(sample, curve)
    base = _point_weights(sample, phi, weighting)
    depth_vals = depth_from_counts(kind, c_le, c_lt, sample.counts[points])
    w = base[points]
    norm = w.sum()
    if norm <= 0.0:
        raise ValueError("degenerate phi: weights sum to zero over the observed points")
    return float((depth_vals * w).sum() / norm)


def poifd_sample(
    sample: FunctionalSample,
    curve_index: int,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
    weighting: str = "points",
) -> float:
    """Integrated depth of one sample curve (coverage positive by construction)."""
    if not 0 <= curve_index < sample.n_curves:
        raise ValueError(f"curve index {curve_index} out of range")
    return poifd_of(sample, sample.curves[curve_index], kind, phi, weighting)


def ifd(
    sample: FunctionalSample,
    curve: PartialCurve,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    w=None,
) -> float:
    """Integrated depth of a fully observed curve in a fully observed sample.

    `w` is a normalized weight vector over the grid ('uniform' default,
    'trapezoid', or an explicit array summing to 1).
    """
    kind = DepthKind(kind)
    if not bool(sample.mask.all()):
        raise ValueError("ifd requires a fully observed sample")
    if not curve.is_fully_observed:
        raise ValueError("ifd requires a fully observed curve")
    # every point is usable: both sample and curve are fully observed
    _, c_le, c_lt = _query_counts(sample, curve)
    weights = _point_weights(sample, w="uniform" if w is None else w)
    depth_vals = depth_from_counts(kind, c_le, c_lt, sample.counts)
    return float((depth_vals * weights).sum())


def k_functional(
    sample: FunctionalSample,
    curve: PartialCurve,
    w=None,
    phi: PhiLike | None = None,
) -> float:
    """Weighted average of the raw ECDF values F_{n,t}(x(t)) along a curve.

    Diagnostic companion of the integrated depths: identical weighting
    machinery but integrating the plain ECDF height instead of a depth.
    Exactly one weighting mode applies: a fixed weight vector `w`
    (restricted to the curve's usable points and renormalized), or
    coverage weights phi(q_n) when `phi` is given. Defaults to
    phi='identity' when neither is supplied.
    """
    if w is not None and phi is not None:
        raise ValueError("pass either fixed weights w or phi, not both")
    points, c_le, _ = _query_counts(sample, curve)
    base = _point_weights(sample, "identity" if phi is None else phi, w=w)
    F = c_le / sample.counts[points]
    weights = base[points]
    norm = weights.sum()
    if norm <= 0.0:
        raise ValueError("weights sum to zero over the curve's observed points")
    return float((F * weights).sum() / norm)
