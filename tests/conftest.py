import csv

import numpy as np
import pytest

from pofda.core import Grid, PartialCurve, build_sample
from pofda.depths import depth_from_counts


def count_mask_runs(mask) -> int:
    """Number of contiguous observed runs in a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    return int(mask[0]) + int(np.sum(mask[1:] & ~mask[:-1]))


def constant_sample(levels, grid_size=3):
    """One constant fully observed curve per level, on a uniform grid."""
    grid = Grid.uniform(grid_size)
    curves = [PartialCurve.fully_observed(np.full(grid_size, float(v))) for v in levels]
    return build_sample(grid, curves)


def random_masked_sample(rng, n, T, p_missing=0.4):
    """Random values with random nonempty masks."""
    grid = Grid.uniform(T)
    curves = []
    for _ in range(n):
        mask = rng.random(T) > p_missing
        if not mask.any():
            mask[rng.integers(T)] = True
        curves.append(PartialCurve(rng.normal(size=T), mask))
    return build_sample(grid, curves)


def sorted_counts(values, x):
    """(#<= x, #< x, k) among k observed values, by one sort: the reference counts."""
    sorted_vals = np.sort(np.asarray(values, dtype=float))
    return (
        np.searchsorted(sorted_vals, x, side="right"),
        np.searchsorted(sorted_vals, x, side="left"),
        sorted_vals.size,
    )


def depth_oracle(kind, values, x):
    """Sample depth of x among `values`: the reference counts fed to depth_from_counts."""
    return depth_from_counts(kind, *sorted_counts(values, x))


def read_csv(path):
    """(header, non-empty rows) of a CSV file, every cell a raw string."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [row for row in reader if row]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
