"""Empirical-vs-population depth discrepancy probes.

For a Gaussian curve model with unit marginal variance the marginal CDF
at every grid point is known in closed form, and for the full and
centered observation mechanisms so is the coverage function Q(t). That
makes the population integrated depth of a probe curve computable
directly, so the decay of |sample depth - population depth| can be
measured as the sample grows.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .core import Grid, PartialCurve
from .depths import DepthKind, depth_from_counts
from .poifd import PhiLike, _phi_of_coverage, _weighted_mean, poifd_of
from .simulate import (
    GpModel,
    ObservationKind,
    ObservationSpec,
    _draw_mask,
    observe,
    sample_gp,
    seed_sequence,
)
from numpy.random import default_rng

__all__ = [
    "centered_coverage",
    "population_coverage",
    "population_poifd",
    "default_probe_curves",
    "convergence_probe",
]


def centered_coverage(grid: Grid, p_obs: float) -> np.ndarray:
    """Exact probability that a centered-interval mask covers each point."""
    t = grid.points
    if p_obs == 1.0:
        return np.ones_like(t)
    if p_obs <= 0.5:
        left = np.clip((t - (0.5 - p_obs)) / p_obs, 0.0, 1.0)
        left = np.where(t >= 0.5, 1.0, left)
        right = np.clip(((0.5 + p_obs) - t) / p_obs, 0.0, 1.0)
        right = np.where(t <= 0.5, 1.0, right)
    else:
        left = np.clip(t / (1.0 - p_obs), 0.0, 1.0)
        right = np.clip((1.0 - t) / (1.0 - p_obs), 0.0, 1.0)
    return left * right


def population_coverage(
    spec: ObservationSpec,
    grid: Grid,
    mc_draws: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Coverage function Q(t) of a masking mechanism on the grid.

    Closed form for the full and centered mechanisms; Monte Carlo over
    `mc_draws` independent masks for random intervals.
    """
    if mc_draws < 1:
        raise ValueError("mc_draws must be at least 1")
    if spec.kind is ObservationKind.FULL:
        return np.ones(grid.size)
    if spec.kind is ObservationKind.CENTERED_INTERVAL:
        return centered_coverage(grid, spec.p_obs)
    rng = default_rng(seed_sequence(seed))
    acc = np.zeros(grid.size)
    for _ in range(mc_draws):
        acc += _draw_mask(grid.points, spec, rng)
    return acc / mc_draws


def population_poifd(
    curve: PartialCurve,
    grid: Grid,
    trend: np.ndarray,
    coverage: np.ndarray,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
) -> float:
    """Population integrated depth of a probe under Gaussian marginals.

    Marginals are N(trend(t), 1); the population depth replaces the
    pointwise ECDF with the exact CDF and the empirical coverage with
    Q(t), discretized as the same sum over the probe's observed grid
    points as the sample version.
    """
    trend = np.asarray(trend, dtype=float)
    coverage = np.asarray(coverage, dtype=float)
    obs = curve.mask
    F = ndtr(curve.values[obs] - trend[obs])
    # The marginal is atomless, so F(x-) = F(x): the count formulas with k = 1.
    depths = depth_from_counts(kind, F, F, 1.0)
    return _weighted_mean(depths, _phi_of_coverage(phi, coverage)[obs])


def default_probe_curves(grid: Grid) -> list[PartialCurve]:
    """Fully observed straight-line probes with slopes bounded by 8."""
    t = grid.points
    lines = [
        (4.0, 0.0),
        (4.0, 1.0),
        (4.0, -1.0),
        (4.0, 2.0),
        (4.0, -2.0),
        (2.0, 0.0),
        (2.0, 1.0),
        (8.0, -2.0),
        (0.0, 2.0),
        (-4.0, 4.0),
    ]
    return [PartialCurve.fully_observed(a * t + b) for a, b in lines]


def convergence_probe(
    model: GpModel,
    sizes,
    probes,
    observation: ObservationSpec,
    seed: int,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
    mc_draws: int = 100_000,
) -> dict[int, float]:
    """Sup over probes of |sample depth - population depth| per sample size.

    For each n a fresh sample is drawn from the model and masked by the
    observation mechanism; seeds are keyed to (seed, n) so the returned
    table does not depend on the order of `sizes`.
    """
    grid = model.grid
    trend = model.trend_values()
    coverage = population_coverage(observation, grid, mc_draws=mc_draws, seed=seed)
    pop = np.array(
        [population_poifd(x, grid, trend, coverage, kind, phi) for x in probes]
    )
    out: dict[int, float] = {}
    for n in sizes:
        gp_seed = seed_sequence((seed, int(n), 0))
        obs_seed = seed_sequence((seed, int(n), 1))
        sample = observe(grid, sample_gp(model, int(n), gp_seed), observation, obs_seed)
        emp = np.array([poifd_of(sample, x, kind, phi) for x in probes])
        out[int(n)] = float(np.max(np.abs(emp - pop)))
    return out
