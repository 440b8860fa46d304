"""Empirical-vs-population depth discrepancy probes.

For a Gaussian curve model with unit marginal variance the marginal CDF
at every grid point is known in closed form, and for the full and
centered observation mechanisms so is the coverage function Q(t). That
makes the population integrated depth of a probe curve computable
directly, so the decay of |sample depth - population depth| can be
measured as the sample grows.

The normal CDF is `_ndtr`, a numpy port of cephes' `ndtr` that returns
the same doubles as `scipy.special.ndtr` (the tests pin it against
scipy), so the package needs no scipy at run time.
"""

from __future__ import annotations

import math

import numpy as np

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

# cephes ndtr.c's rational approximations: erf(x) = x T(x^2)/U(x^2) for
# |x| <= 1, erfc(x) = exp(-x^2) P(x)/Q(x) on [1, 8) and exp(-x^2) R(x)/S(x)
# from 8 on. Coefficients run from the highest power down; Q, U and S lead
# with an implicit 1.
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# The three (numerator, denominator) pairs as one table, indexed
# [power, numerator or denominator, branch], each row padded to nine
# coefficients with leading zeros and the implicit 1 written out. For a
# finite w >= 0 the padding is exact (0 w + 0 = 0, 0 w + c = c and
# 1 w + c = w + c), so one Horner pass over the table gives what cephes'
# polevl and p1evl give for each branch.
_COEFS = np.array([
    [[0, 0, 0, 0, *_T], [0, 0, 0, 1, *_U]],
    [[*_P], [1, *_Q]],
    [[0, 0, 0, *_R], [0, 0, 1, *_S]],
]).transpose(2, 1, 0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-D array, bit for bit scipy.special.ndtr.

    cephes' ndtr, erf and erfc: every element takes its own branch's
    operations in the C code's order. The exponential is libm's
    (math.exp, as the C code calls it), because numpy's exp can differ
    in the last bit. NaN maps to NaN and +-inf to 1 and 0.
    """
    a = np.asarray(a, dtype=float)
    nan = np.isnan(a)
    # cephes returns NaN before any arithmetic: zeros stand in for NaNs, so
    # a signaling NaN raises no invalid-operation warning.
    x = np.where(nan, 0.0, a) * _SQRTH
    z = np.abs(x)
    with np.errstate(over="ignore"):  # where C's -z*z silently reaches -inf
        zz = z * z
    small = z < 1.0
    # erfc returns 0 where exp(-z^2) would underflow; e stays 0 there.
    under = -zz < -_MAXLOG
    w = np.where(small, zz, np.where(under, 0.0, z))
    # Numerators then denominators in one flat pass, each element with
    # its branch's coefficients: 0 below 1, 1 on [1, 8), 2 from 8 on.
    branch = np.searchsorted((1.0, 8.0), z, side="right")
    coefs = _COEFS[:, :, branch].reshape(_COEFS.shape[0], -1)
    w = np.concatenate((w, w))
    num = coefs[0] * w + coefs[1]
    for c in coefs[2:]:
        num = num * w + c
    num, den = num[: z.size], num[z.size :]
    e = np.zeros(z.shape)
    far = ~small & ~under
    e[far] = [math.exp(v) for v in (-zz[far]).tolist()]
    # erf(z) below 1 (odd, so erf(x) is its copy with x's sign), erfc(z) on.
    r = np.where(small, z, e) * num / den
    tail = 0.5 * np.where(small, 1.0 - r, r)  # 0.5 erfc(z)
    y = np.where(
        z < _SQRTH, 0.5 + 0.5 * np.copysign(r, x), np.where(x > 0, 1.0 - tail, tail)
    )
    y[nan] = np.nan
    return y


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
    F = _ndtr(curve.values[obs] - trend[obs])
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
