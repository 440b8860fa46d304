import csv

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from pofda import poifd
from pofda.core import Grid, PartialCurve, build_sample
from pofda.depths import depth_from_counts
from pofda.harness import reproduce_tables
from pofda.simulate import (
    _MAX_MASK_RETRIES,
    ObservationKind,
    _cached_factor,
    _centered_bounds,
    _length_accepted,
)


def count_mask_runs(mask) -> int:
    """Number of contiguous observed runs in a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    return int(mask[0]) + int(np.sum(mask[1:] & ~mask[:-1]))


def constant_sample(levels, grid_size=3):
    """One constant fully observed curve per level, on a uniform grid."""
    grid = Grid.uniform(grid_size)
    curves = [PartialCurve.fully_observed(np.full(grid_size, float(v))) for v in levels]
    return build_sample(grid, curves)


def flat_curves(grid, n, level=0.0):
    """n fully observed constant curves at `level` on the grid."""
    return build_sample(
        grid, [PartialCurve.fully_observed(np.full(grid.size, level)) for _ in range(n)]
    )


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


def odd_nans(size):
    """`size` NaNs cycling through -NaN and NaNs with low payload bits,
    quiet and signalling, of either sign: none is +NaN's one pattern."""
    patterns = np.array(
        [0xFFF8000000000000, 0x7FF8000000000001, 0xFFF8000000000003,
         0x7FF0000000000001, 0xFFF0000000000001], np.uint64
    )
    return np.resize(patterns, size).view(np.float64)


def numpy_streams(seed, n):
    """Generator(PCG64(child)) for numpy's own spawned children of the seed."""
    return [Generator(PCG64(child)) for child in SeedSequence(seed).spawn(n)]


def _intervals_reference(pts, m, p, cells, rng):
    """One draw of m random intervals; all False when its length is rejected."""
    cuts = np.sort(rng.random(cells - 1))
    edges = np.concatenate(([0.0], cuts, [1.0]))
    # m non-adjacent cells, uniform over all such subsets: pick
    # combinations from cells - m + 1 slots and re-spread.
    picks = np.sort(rng.choice(cells - m + 1, size=m, replace=False)) + np.arange(m)
    lengths = edges[picks + 1] - edges[picks]
    mask = np.zeros(pts.shape, dtype=bool)
    if _length_accepted(lengths.sum(), p):
        for j in picks:
            mask |= (pts >= edges[j]) & (pts <= edges[j + 1])
    return mask


def draw_mask_reference(pts, spec, rng, within=True):
    """A nonempty mask inside `within`, drawn one mask at a time from one Generator.

    A draw that is rejected or leaves no point of `within` observed is
    redrawn from the same stream, at most _MAX_MASK_RETRIES times. This
    is the one-stream reference that observe's vectorized draw matches
    per curve, and population_coverage's per draw.
    """
    for _ in range(_MAX_MASK_RETRIES):
        if spec.kind is ObservationKind.FULL:
            mask = np.ones(pts.shape, dtype=bool)
        elif spec.kind is ObservationKind.CENTERED_INTERVAL:
            start, end = _centered_bounds(spec.p_obs, rng.random(), rng.random())
            mask = (pts >= start) & (pts <= end)
        else:
            mask = _intervals_reference(
                pts, spec.n_intervals, spec.p_obs, spec._n_cells(), rng
            )
        mask &= within
        if mask.any():
            return mask
    raise RuntimeError("observation mask stayed empty after maximum retries")


def sorted_counts(values, x):
    """(#<= x, #< x, k) among k observed values, by one sort: the reference counts."""
    sorted_vals = np.sort(np.asarray(values, dtype=float))
    return (
        np.searchsorted(sorted_vals, x, side="right"),
        np.searchsorted(sorted_vals, x, side="left"),
        sorted_vals.size,
    )


def query_counts(sample, curve):
    """A query's usable points and counts (#<= x(t), #< x(t)), as poifd_of takes them."""
    points = poifd._usable_points(sample, curve)
    return (points, *poifd._compare_counts(sample.values, curve.values, points, True))


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


@pytest.fixture(scope="session")
def seed13_serial_tables(tmp_path_factory):
    """One serial reproduce_tables(seed=13) from a cold factor cache, instrumented.

    Returns (table paths, Cholesky calls, PartialCurve objects built).
    The counters wrap the real functions, so the tables are the plain
    run's bytes; every test that needs this run shares it.
    """
    factorizations, curves = [], []
    real_cholesky = np.linalg.cholesky
    real_init = PartialCurve.__init__
    real_view = PartialCurve._row_view.__func__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            np.linalg, "cholesky", lambda a: factorizations.append(1) or real_cholesky(a)
        )
        mp.setattr(
            PartialCurve, "__init__", lambda self, *a: curves.append(1) or real_init(self, *a)
        )
        mp.setattr(
            PartialCurve,
            "_row_view",
            classmethod(lambda cls, *a: curves.append(1) or real_view(cls, *a)),
        )
        _cached_factor.cache_clear()
        paths = reproduce_tables(tmp_path_factory.mktemp("seed13_serial"), seed=13, jobs=1)
    return paths, len(factorizations), len(curves)
