"""Synthetic curve generation: Gaussian process draws, contamination, masking.

Curves follow the trend 4t plus a zero-mean Gaussian process with covariance
0.5 ** (|t - s| * theta). Contamination adds magnitude shifts to a
random fraction of curves (symmetric or one-sided sign, full path or
only beyond a random onset). Observation mechanisms then mask each
curve to a random union of grid intervals. Each stage is a private step
on an (n, T) value or mask matrix; :func:`simulate_sample` chains the
three and validates one :class:`FunctionalSample` at the end. The public
`sample_gp`, `contaminate` and `observe` run one step each and wrap its
result in a validated sample.

Curve i of a stage draws from the i-th stream of the stage seed
(`_streams` holds that contract), so serial and parallel generation
give the same bytes. Contamination and masks are drawn for all curves
in one vectorized pass. `sample_gp` sets one Generator to each curve's
stream in turn, since its ziggurat normals need numpy's own tables,
and multiplies each block of rows by the Cholesky factor in one
stacked matmul whose rows keep the bytes of a lone L @ z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from ._streams import _children, _curve_rngs, _curve_states, _Streams, seed_sequence
from .core import FunctionalSample, Grid, _check_integer, _check_real, _readonly

__all__ = [
    "GpModel",
    "ContaminationKind",
    "ContaminationSpec",
    "ObservationKind",
    "ObservationSpec",
    "sample_gp",
    "contaminate",
    "observe",
    "simulate_sample",
]

_MAX_MASK_RETRIES = 1000

# Rows per block of a vectorized mask draw: about this many bytes in each
# of its (rows, T) bool masks and (draws, rows) 8-byte stream words. A GP
# draw's block of (rows, T) normals takes at most this many bytes.
_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class GpModel:
    """Gaussian process curve model: linear trend 4t plus exponential-decay noise.

    The noise covariance is C(s, t) = 0.5 ** (|t - s| * theta) with unit
    marginal variance; larger theta decorrelates faster.
    """

    grid: Grid
    theta: float

    def __post_init__(self) -> None:
        _check_real("theta", self.theta)
        if not (np.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError("theta must be a positive finite rate")

    def trend_values(self) -> np.ndarray:
        """The trend 4t on the grid, as a fresh array."""
        return 4.0 * self.grid.points

    def covariance(self) -> np.ndarray:
        """Covariance matrix on the grid, before any jitter."""
        return _exp_covariance(self.grid.points, self.theta)

    def covariance_factor(self) -> np.ndarray:
        """Read-only lower Cholesky factor of the covariance, shared per value.

        Models with equal grid points and theta share one factor, so a
        run that builds a fresh model per replication factors each
        distinct covariance once.
        """
        return _cached_factor(self.grid.points.tobytes(), float(self.theta))


def _exp_covariance(pts: np.ndarray, theta: float) -> np.ndarray:
    dist = np.abs(pts[:, None] - pts[None, :])
    return 0.5 ** (dist * theta)


@lru_cache(maxsize=8)
def _cached_factor(points: bytes, theta: float) -> np.ndarray:
    # Keyed on the grid's point values, not its size or identity: equal
    # sizes can hold different points, and every replication builds a
    # fresh Grid.
    return _readonly(_factor_covariance(_exp_covariance(np.frombuffer(points), theta)))


def _factor_covariance(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor with escalating diagonal jitter 1e-10 .. 1e-6."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(cov.shape[0])
    for exponent in range(-10, -5):
        try:
            return np.linalg.cholesky(cov + (10.0**exponent) * eye)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "covariance factorization failed after jitter up to 1e-6; "
        "the model covariance is ill-conditioned on this grid"
    )


def _gp_values(model: GpModel, n: int, seed) -> np.ndarray:
    """The (n, T) values of n curves trend + L z with i.i.d. normal z.

    Curve i is produced from the i-th spawned child of the seed, so the
    result does not depend on generation order. A SeedSequence seed is
    not advanced: passing the same object again repeats the sample, as
    an int seed does. The normals are drawn a block of rows at a time
    into one buffer, no larger than L and at most _BLOCK_BYTES, and each
    block is multiplied in one stacked matmul. numpy runs that as one
    gemv per row, so each row's bytes are those of L @ z, unlike a
    batched Z @ L.T gemm's.
    """
    _check_integer("n", n)
    if n < 1:
        raise ValueError("need at least one curve")
    L = model.covariance_factor()
    T = model.grid.size
    values = np.empty((n, T))
    z = np.empty((min(n, T, max(1, _BLOCK_BYTES // (8 * T))), T))
    rngs = _curve_rngs(seed, n)
    for first in range(0, n, len(z)):
        block = z[: n - first]
        for row in block:
            next(rngs).standard_normal(out=row)
        np.matmul(L, block[:, :, None], out=values[first : first + len(block), :, None])
    values += model.trend_values()
    return values


def sample_gp(model: GpModel, n: int, seed) -> FunctionalSample:
    """Draw n fully observed curves trend + L z, one stream per curve (see `_gp_values`)."""
    values = _gp_values(model, n, seed)
    return FunctionalSample._adopt(model.grid, values, np.ones(values.shape, dtype=bool))


class ContaminationKind(str, Enum):
    NONE = "none"
    SYMMETRIC = "sym"
    ASYMMETRIC = "asym"
    PARTIAL = "partial"


@dataclass(frozen=True)
class ContaminationSpec:
    """Shift contamination: probability q, magnitude, and shape kind."""

    kind: ContaminationKind
    q: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ContaminationKind(self.kind))
        _check_real("q", self.q)
        _check_real("magnitude", self.magnitude)
        if not (np.isfinite(self.q) and 0.0 <= self.q <= 1.0):
            raise ValueError("q must lie in [0, 1]")
        if not (np.isfinite(self.magnitude) and self.magnitude >= 0.0):
            raise ValueError("magnitude must be finite and nonnegative")


def _check_grid(grid: Grid, sample: FunctionalSample) -> None:
    """Reject a stage grid other than the one the sample lives on."""
    if not np.array_equal(grid.points, sample.grid.points):
        raise ValueError("grid does not match the sample's grid")


def _draws(spec: ContaminationSpec, n: int, seed):
    """Per-curve contamination flags (0/1), signs (+-1) and onsets in [0, 1).

    All three draws are consumed for every curve regardless of kind, so
    the same seed contaminates the same curves under each kind.
    """
    u = _Streams(*_curve_states(seed, n)).doubles(np.arange(n), 3)
    flags = np.where(u[:, 0] < spec.q, 1.0, 0.0)
    signs = np.where(u[:, 1] < 0.5, 1.0, -1.0)
    return flags, signs, u[:, 2]


def _shift(points, kind: ContaminationKind, magnitude: float, flags, signs, onsets) -> np.ndarray:
    """The shift each curve gets: (n, 1), or (n, T) for the partial kind.

    flags (0/1 arrays) select contaminated curves, signs (+-1) the
    direction for the symmetric kinds, onsets the threshold beyond which
    the partial kind shifts.
    """
    if kind is ContaminationKind.ASYMMETRIC:
        shift = (flags * magnitude)[:, None]
    else:
        shift = (flags * signs * magnitude)[:, None]
    if kind is ContaminationKind.PARTIAL:  # shift only where t >= onset
        shift = np.where(points >= onsets[:, None], shift, 0.0)
    return shift


def contaminate(
    grid: Grid, sample: FunctionalSample, spec: ContaminationSpec, seed
) -> FunctionalSample:
    """Draw contamination per curve and shift the fully observed curves."""
    _check_grid(grid, sample)
    seed = seed_sequence(seed)
    if not sample.mask.all():
        raise ValueError("contamination applies to fully observed curves")
    if spec.kind is ContaminationKind.NONE:
        return sample
    draws = _draws(spec, sample.n_curves, seed)
    shift = _shift(grid.points, spec.kind, spec.magnitude, *draws)
    return FunctionalSample._adopt(grid, sample.values + shift, sample.mask)


class ObservationKind(str, Enum):
    FULL = "full"
    RANDOM_INTERVALS = "intervals"
    CENTERED_INTERVAL = "centered"


@dataclass(frozen=True)
class ObservationSpec:
    """Masking mechanism and its expected observation proportion."""

    kind: ObservationKind
    p_obs: float = 1.0
    n_intervals: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ObservationKind(self.kind))
        _check_integer("n_intervals", self.n_intervals)
        _check_real("p_obs", self.p_obs)
        if not (np.isfinite(self.p_obs) and 0.0 < self.p_obs <= 1.0):
            raise ValueError("p_obs must lie in (0, 1]")
        if self.kind is ObservationKind.RANDOM_INTERVALS:
            if self.n_intervals < 1:
                raise ValueError("need at least one interval")
            cells = self._n_cells()
            if cells < 2 * self.n_intervals - 1:
                raise ValueError(
                    f"cannot place {self.n_intervals} disjoint intervals with "
                    f"expected proportion {self.p_obs}; reduce n_intervals"
                )
            if cells == 1 and not _length_accepted(1.0, self.p_obs):
                # The one cell is [0, 1] itself, so every draw is rejected.
                raise ValueError(
                    f"one interval at p_obs {self.p_obs} always covers [0, 1], "
                    "whose length is off p_obs by more than p_obs / 4; "
                    "use p_obs >= 0.8 or p_obs <= 0.5"
                )

    def _n_cells(self) -> int:
        # floor((m - p) / p) uniform draws partition [0, 1] into that + 1 cells.
        return math.floor((self.n_intervals - self.p_obs) / self.p_obs) + 1


def _centered_bounds(p: float, u0, u1):
    """Centered interval ends from two uniforms (floats or columns).

    start in [mid - p, mid) and end in (mid, mid + p] for p <= 1/2;
    start in [0, 1 - p) and end in (p, 1] otherwise.
    """
    if p <= 0.5:
        return (0.5 - p) + p * u0, 0.5 + p * (1.0 - u1)
    return (1.0 - p) * u0, p + (1.0 - p) * (1.0 - u1)


def _length_accepted(total, p: float):
    """The random-interval rejection rule: total length within p / 4 of p."""
    return np.abs(total - p) <= 0.25 * p


def _interval_masks(pts: np.ndarray, p: float, cuts: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """m random intervals for many rows: the union of each row's picked cells.

    cuts (rows, cells - 1) are the uniform cut points and picks (rows, m)
    the chosen slots out of cells - m + 1, re-spread to m non-adjacent
    cells, so every such subset is equally likely. A row whose total
    length is off p by more than p / 4 is all False.
    """
    rows, m = picks.shape
    cuts = np.sort(cuts, axis=1)
    edges = np.concatenate((np.zeros((rows, 1)), cuts, np.ones((rows, 1))), axis=1)
    picks = np.sort(picks, axis=1) + np.arange(m)
    lo = np.take_along_axis(edges, picks, axis=1)
    hi = np.take_along_axis(edges, picks + 1, axis=1)
    mask = np.zeros((rows, pts.size), dtype=bool)
    for k in range(m):
        mask |= (pts >= lo[:, k, None]) & (pts <= hi[:, k, None])
    mask[~_length_accepted((hi - lo).sum(axis=1), p)] = False
    return mask


def _mask_attempt(
    pts: np.ndarray, spec: ObservationSpec, streams: _Streams, rows: np.ndarray
) -> np.ndarray:
    """One mask draw for each of `rows`, as one attempt of the per-curve reference draws it."""
    if spec.kind is ObservationKind.FULL:
        return np.ones((rows.size, pts.size), dtype=bool)
    if spec.kind is ObservationKind.CENTERED_INTERVAL:
        u = streams.doubles(rows, 2)
        start, end = _centered_bounds(spec.p_obs, u[:, 0], u[:, 1])
        return (pts >= start[:, None]) & (pts <= end[:, None])
    m, cells = spec.n_intervals, spec._n_cells()
    cuts = streams.doubles(rows, cells - 1)
    picks = streams.choice(rows, cells - m + 1, m)
    return _interval_masks(pts, spec.p_obs, cuts, picks)


def _draw_masks(pts: np.ndarray, spec: ObservationSpec, seed, within: np.ndarray) -> np.ndarray:
    """A nonempty mask per curve (row) inside `within`, all curves at once.

    Row i gets what the per-curve reference in tests/conftest.py draws
    from curve i's Generator: an attempt that is rejected or leaves no
    point of `within` observed is redrawn from the same stream. Rows are
    taken in blocks that bound the temporaries; streams are keyed by
    curve index, so the block size changes no byte. Each attempt redraws
    the rows whose mask is still empty, at most _MAX_MASK_RETRIES times.
    """
    out = np.empty(within.shape, dtype=bool)
    states = _curve_states(seed, out.shape[0])
    doubles = spec._n_cells() - 1 if spec.kind is ObservationKind.RANDOM_INTERVALS else 2
    step = max(1, _BLOCK_BYTES // max(pts.size, 8 * doubles))
    for first in range(0, out.shape[0], step):
        block = slice(first, first + step)
        streams = _Streams(*(column[block] for column in states))
        rows = np.arange(streams.hi.size)
        for _ in range(_MAX_MASK_RETRIES):
            mask = _mask_attempt(pts, spec, streams, rows)
            mask &= within[block][rows]
            hit = mask.any(axis=1)
            out[first + rows[hit]] = mask[hit]
            rows = rows[~hit]
            if not rows.size:
                break
        else:
            raise RuntimeError("observation mask stayed empty after maximum retries")
    return out


def observe(
    grid: Grid, sample: FunctionalSample, spec: ObservationSpec, seed
) -> FunctionalSample:
    """Mask each curve with an independently drawn observation set.

    Masks intersect any preexisting curve masks; a draw leaving a curve
    with no observed grid point is redrawn up to a bounded retry count.
    """
    _check_grid(grid, sample)
    mask = _draw_masks(grid.points, spec, seed, sample.mask)
    # The values belong to the input sample, so they are copied; the
    # constructor's one masked copy writes the NaN as it goes.
    return FunctionalSample(grid, sample.values, mask)


def simulate_sample(
    model: GpModel,
    n: int,
    contamination: ContaminationSpec,
    observation: ObservationSpec,
    root_seed,
) -> FunctionalSample:
    """Draw, contaminate and mask n curves: the package's one simulation pipeline.

    The steps of `sample_gp`, `contaminate` and `observe` run on one
    value matrix and one mask, validated once, so the bytes are those of
    the three stages chained. The root seed's next three children, the
    ones numpy's spawn(3) would return, seed one stage each, so each
    stage's draws are independent of the others' settings. The root is
    read, not advanced: passing the same SeedSequence again repeats it.
    """
    gp_seed, cont_seed, obs_seed = _children(root_seed, 3)
    pts = model.grid.points
    values = _gp_values(model, n, gp_seed)
    if contamination.kind is not ContaminationKind.NONE:
        draws = _draws(contamination, n, cont_seed)
        values += _shift(pts, contamination.kind, contamination.magnitude, *draws)
    mask = _draw_masks(pts, observation, obs_seed, np.broadcast_to(True, values.shape))
    return FunctionalSample._adopt(model.grid, values, mask)
