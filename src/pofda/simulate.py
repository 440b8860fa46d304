"""Synthetic curve generation: Gaussian process draws, contamination, masking.

Curves follow the trend 4t plus a zero-mean Gaussian process with covariance
0.5 ** (|t - s| * theta). Contamination adds magnitude shifts to a
random fraction of curves (symmetric or one-sided sign, full path or
only beyond a random onset). Observation mechanisms then mask each
curve to a random union of grid intervals. Each stage takes and returns
a :class:`FunctionalSample`; :func:`simulate_sample` chains all three.

Every draw is keyed to (seed, curve index) through spawned seed
sequences, so generating curves serially or in parallel yields
bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .core import FunctionalSample, Grid, _readonly

__all__ = [
    "GpModel",
    "ContaminationKind",
    "ContaminationSpec",
    "ObservationKind",
    "ObservationSpec",
    "sample_gp",
    "apply_contamination",
    "contaminate",
    "observe",
    "simulate_sample",
]

_MAX_MASK_RETRIES = 1000


def seed_sequence(seed) -> SeedSequence:
    """Normalize int / tuple / SeedSequence seeds to a SeedSequence."""
    if isinstance(seed, SeedSequence):
        return seed
    return SeedSequence(seed)


def _curve_rngs(seed, n: int) -> Iterator[Generator]:
    """The streams of curves 0 .. n-1, one per spawned child of the seed.

    Each is default_rng(child) without its argument dispatch, built only
    when the caller reaches its curve.
    """
    for child in seed_sequence(seed).spawn(n):
        yield Generator(PCG64(child))


@dataclass(frozen=True)
class GpModel:
    """Gaussian process curve model: linear trend 4t plus exponential-decay noise.

    The noise covariance is C(s, t) = 0.5 ** (|t - s| * theta) with unit
    marginal variance; larger theta decorrelates faster.
    """

    grid: Grid
    theta: float

    def __post_init__(self) -> None:
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


def sample_gp(model: GpModel, n: int, seed) -> FunctionalSample:
    """Draw n fully observed curves trend + L z with i.i.d. normal z.

    Curve i is produced from the i-th spawned child of the seed, so the
    result does not depend on generation order. Each row is its own
    matrix-vector product: the batched Z @ L.T rounds differently.
    """
    if n < 1:
        raise ValueError("need at least one curve")
    L = model.covariance_factor()
    g = model.trend_values()
    T = model.grid.size
    values = np.empty((n, T))
    for i, rng in enumerate(_curve_rngs(seed, n)):
        values[i] = L @ rng.standard_normal(T)
    values += g
    return FunctionalSample(model.grid, values, np.ones((n, T), dtype=bool))


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
        if not (np.isfinite(self.q) and 0.0 <= self.q <= 1.0):
            raise ValueError("q must lie in [0, 1]")
        if not (np.isfinite(self.magnitude) and self.magnitude >= 0.0):
            raise ValueError("magnitude must be finite and nonnegative")


def _check_grid(grid: Grid, sample: FunctionalSample) -> None:
    """Reject a stage grid other than the one the sample lives on."""
    if not np.array_equal(grid.points, sample.grid.points):
        raise ValueError("grid does not match the sample's grid")


def apply_contamination(
    grid: Grid,
    sample: FunctionalSample,
    kind: ContaminationKind,
    magnitude: float,
    flags,
    signs,
    onsets,
) -> FunctionalSample:
    """Apply shift contamination with explicitly supplied draws.

    flags (0/1 per curve) select contaminated curves, signs (+-1) the
    direction for the symmetric kinds, onsets the per-curve threshold
    beyond which the partial kind shifts. Curves must be fully observed:
    contamination happens before masking.
    """
    _check_grid(grid, sample)
    kind = ContaminationKind(kind)
    flags = np.asarray(flags, dtype=float)
    signs = np.asarray(signs, dtype=float)
    onsets = np.asarray(onsets, dtype=float)
    n = sample.n_curves
    if flags.shape != (n,) or signs.shape != (n,) or onsets.shape != (n,):
        raise ValueError("flags, signs, and onsets must have one entry per curve")
    if not sample.mask.all():
        raise ValueError("contamination applies to fully observed curves")

    if kind is ContaminationKind.NONE:
        return sample
    if kind is ContaminationKind.ASYMMETRIC:
        shift = (flags * magnitude)[:, None]
    else:
        shift = (flags * signs * magnitude)[:, None]
    if kind is ContaminationKind.PARTIAL:  # shift only where t >= onset
        shift = np.where(grid.points >= onsets[:, None], shift, 0.0)
    return FunctionalSample(grid, sample.values + shift, sample.mask)


def contaminate(
    grid: Grid, sample: FunctionalSample, spec: ContaminationSpec, seed
) -> FunctionalSample:
    """Draw contamination indicators per curve and apply the shifts.

    All three draws (flag, sign, onset) are consumed for every curve
    regardless of kind, so the same seed contaminates the same curves
    under each kind.
    """
    if spec.kind is ContaminationKind.NONE:
        return sample
    u = np.array([rng.random(3) for rng in _curve_rngs(seed, sample.n_curves)])
    flags = np.where(u[:, 0] < spec.q, 1.0, 0.0)
    signs = np.where(u[:, 1] < 0.5, 1.0, -1.0)
    return apply_contamination(
        grid, sample, spec.kind, spec.magnitude, flags, signs, u[:, 2]
    )


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

    def _n_cells(self) -> int:
        # floor((m - p) / p) uniform draws partition [0, 1] into that + 1 cells.
        return math.floor((self.n_intervals - self.p_obs) / self.p_obs) + 1


def _centered_bounds(p: float, rng: Generator) -> tuple[float, float]:
    # start in [mid - p, mid) and end in (mid, mid + p] for p <= 1/2;
    # start in [0, 1 - p) and end in (p, 1] otherwise.
    if p <= 0.5:
        start = (0.5 - p) + p * rng.random()
        end = 0.5 + p * (1.0 - rng.random())
    else:
        start = (1.0 - p) * rng.random()
        end = p + (1.0 - p) * (1.0 - rng.random())
    return start, end


def _intervals_mask(
    pts: np.ndarray, m: int, p: float, cells: int, rng: Generator
) -> np.ndarray:
    """One draw of m random intervals; all False when its length is rejected."""
    cuts = np.sort(rng.random(cells - 1))
    edges = np.concatenate(([0.0], cuts, [1.0]))
    # m non-adjacent cells, uniform over all such subsets: pick
    # combinations from cells - m + 1 slots and re-spread.
    picks = np.sort(rng.choice(cells - m + 1, size=m, replace=False)) + np.arange(m)
    lengths = edges[picks + 1] - edges[picks]
    mask = np.zeros(pts.shape, dtype=bool)
    if abs(lengths.sum() - p) <= 0.25 * p:
        for j in picks:
            mask |= (pts >= edges[j]) & (pts <= edges[j + 1])
    return mask


def _draw_mask(
    pts: np.ndarray, spec: ObservationSpec, rng: Generator, within: np.ndarray | bool = True
) -> np.ndarray:
    """A nonempty mask inside `within`: the package's one redraw loop.

    A draw that is rejected or leaves no point of `within` observed is
    redrawn from the same stream, at most _MAX_MASK_RETRIES times.
    """
    for _ in range(_MAX_MASK_RETRIES):
        if spec.kind is ObservationKind.FULL:
            mask = np.ones(pts.shape, dtype=bool)
        elif spec.kind is ObservationKind.CENTERED_INTERVAL:
            start, end = _centered_bounds(spec.p_obs, rng)
            mask = (pts >= start) & (pts <= end)
        else:
            mask = _intervals_mask(
                pts, spec.n_intervals, spec.p_obs, spec._n_cells(), rng
            )
        mask &= within
        if mask.any():
            return mask
    raise RuntimeError("observation mask stayed empty after maximum retries")


def observe(
    grid: Grid, sample: FunctionalSample, spec: ObservationSpec, seed
) -> FunctionalSample:
    """Mask each curve with an independently drawn observation set.

    Masks intersect any preexisting curve masks; a draw leaving a curve
    with no observed grid point is redrawn up to a bounded retry count.
    """
    _check_grid(grid, sample)
    mask = np.empty(sample.mask.shape, dtype=bool)
    for i, rng in enumerate(_curve_rngs(seed, sample.n_curves)):
        mask[i] = _draw_mask(grid.points, spec, rng, sample.mask[i])
    return FunctionalSample(grid, sample.values, mask)


def simulate_sample(
    model: GpModel,
    n: int,
    contamination: ContaminationSpec,
    observation: ObservationSpec,
    root_seed,
) -> FunctionalSample:
    """Draw, contaminate and mask n curves: the package's one simulation pipeline.

    The root seed is split into three children, one per stage, so each
    stage's draws are independent of the others' settings.
    """
    gp_seed, cont_seed, obs_seed = seed_sequence(root_seed).spawn(3)
    sample = sample_gp(model, n, gp_seed)
    sample = contaminate(model.grid, sample, contamination, cont_seed)
    return observe(model.grid, sample, observation, obs_seed)
