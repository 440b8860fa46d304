"""Pointwise univariate depths built from empirical distribution counts.

Each sample depth is one integer-count formula with a single final
division, so the returned float is the correctly rounded value of the
exact rational it represents. All three depths depend on the data only
through ECDF counts, hence are invariant under common strictly
increasing transformations of the values and the query point. The same
formulas give the population depth of an atomless marginal from its
CDF values F, with F(x-) = F(x) and k = 1.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "DepthKind",
    "depth_from_counts",
]


class DepthKind(str, Enum):
    """Univariate depth plugged into the integrated functional depths."""

    TUKEY = "tukey"
    SIMPLICIAL = "simplicial"
    FRAIMAN_MUNIZ = "fm"


def _tukey_counts(c_le, c_lt, k):
    # min(F(x), 1 - F(x-)) = min(c_le, k - c_lt) / k
    return np.minimum(c_le, k - c_lt) / k


def _simplicial_counts(c_le, c_lt, k):
    # 2 F(x) (1 - F(x-)) = 2 c_le (k - c_lt) / k^2
    return (2 * c_le * (k - c_lt)) / (k * k)


def _fm_counts(c_le, c_lt, k):
    # 1 - |1/2 - F(x)| = (2k - |k - 2 c_le|) / (2k)
    return (2 * k - np.abs(k - 2 * c_le)) / (2 * k)


_COUNT_KERNELS = {
    DepthKind.TUKEY: _tukey_counts,
    DepthKind.SIMPLICIAL: _simplicial_counts,
    DepthKind.FRAIMAN_MUNIZ: _fm_counts,
}


# The kinds whose formula above reads #< x. A caller counting for any
# other kind (Fraiman-Muniz reads #<= x only) may skip that count and
# pass c_lt=None.
_READS_LT = frozenset({DepthKind.TUKEY, DepthKind.SIMPLICIAL})


def depth_from_counts(kind: DepthKind, c_le, c_lt, k):
    """Sample depth from the counts (#<= x, #< x) out of k observations."""
    return _COUNT_KERNELS[DepthKind(kind)](c_le, c_lt, k)
