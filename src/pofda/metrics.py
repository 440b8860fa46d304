"""Scenario error metrics: per-replication integrated error and summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trimming import LocationEstimate

__all__ = ["ReplicationError", "ScenarioMetrics", "integrated_error", "aggregate"]


@dataclass(frozen=True)
class ReplicationError:
    """Mean squared deviation of one estimate from the truth.

    Restricted to the grid points where the estimate is computed from
    its own data (defined and not a coverage-gap fallback);
    `points_used` records how many entered the average.
    """

    ei: float
    points_used: int


@dataclass(frozen=True)
class ScenarioMetrics:
    """Across-replication mean, population-style sd, and lower median."""

    e_mean: float
    s_dev: float
    m_median: float


def integrated_error(estimate: LocationEstimate, truth) -> ReplicationError:
    """Average squared error over the estimate's own defined grid points.

    Fallback-imputed points are excluded: there the value is borrowed
    from curves the estimator rejected, so scoring it would charge the
    estimator for data it deliberately discarded.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.shape != estimate.values.shape:
        raise ValueError("truth must be evaluated on the estimate's grid")
    usable = estimate.defined_mask & ~estimate.fallback_mask
    used = int(usable.sum())
    if used == 0:
        raise ValueError("estimate has no usable (non-fallback) defined points")
    diff = estimate.values[usable] - truth[usable]
    return ReplicationError(ei=float(np.mean(diff * diff)), points_used=used)


def aggregate(errors: Sequence[ReplicationError]) -> ScenarioMetrics:
    """Summarize replication errors: mean, sd with divisor N, lower median."""
    if len(errors) == 0:
        raise ValueError("need at least one replication")
    # Sorting first makes the summaries exactly invariant to the
    # replication order despite floating-point accumulation.
    eis = np.sort(np.array([e.ei for e in errors], dtype=float))
    n = eis.size
    mean = float(eis.mean())
    # The rounded mean of equal values can differ from them in the last
    # bit, so equal replications are given an exact zero deviation.
    if eis[0] == eis[-1]:
        sdev = 0.0
    else:
        sdev = float(np.sqrt(np.mean((eis - mean) ** 2)))
    median = float(eis[(n - 1) // 2])
    return ScenarioMetrics(e_mean=mean, s_dev=sdev, m_median=median)
