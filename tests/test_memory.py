"""Peak memory of each pipeline stage, in (n, T) float64 matrices.

tracemalloc counts numpy's data allocations exactly, so a stage's traced
peak above its start says how many full-size temporaries it holds. The
sample is large enough that the depth field's block temporaries, about
_BLOCK_CELLS cells across all threads, are small next to one matrix.
Here each block is 8 columns wide on 2 CPUs (16 on one), so the least
block width of 8 columns (about 8 * n cells per thread) does not bind;
at n = 10^4, T = 200 it does, and CI holds the poifd_all peak there,
printed by scripts/bench_depth_kernels.py, to the same bound. Reading
a sample's `curves` builds only the row views read, and `import pofda`
loads no process pool.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pofda
from pofda.consistency import convergence_probe, default_probe_curves
from pofda.core import FunctionalSample, Grid, PartialCurve
from pofda.poifd import poifd_all, pointwise_depth_field
from pofda.simulate import (
    ContaminationSpec,
    GpModel,
    ObservationSpec,
    contaminate,
    observe,
    sample_gp,
    simulate_sample,
)
from pofda.trimming import ordinary_mean, select_trim, trimmed_mean

N, T = 4000, 100
MATRIX_BYTES = 8 * N * T

# Upper bounds on each stage's traced peak, in (n, T) float64 matrices.
# A stage's own output counts: a sample is one value matrix plus a bool
# mask (1/8 of a matrix); the depth field is one matrix.
BOUNDS = {
    "sample_gp": 1.6,
    "contaminate": 1.6,
    "observe": 1.6,
    "simulate_sample": 2.15,
    "pointwise_depth_field": 1.6,
    "poifd_all": 1.85,
    "trimmed_mean": 0.5,
    "ordinary_mean": 0.25,
    "convergence_probe": 1.75,
    "convergence_probe_rising": 1.75,
    "convergence_probe_falling": 1.75,
}
# The sizes of each convergence_probe case: one sample at a time is held,
# so a second size adds no matrix.
PROBE_SIZES = {
    "convergence_probe": [N],
    "convergence_probe_rising": [N // 2, N],
    "convergence_probe_falling": [N, N - 1],
}
# Reading the length and two rows of a sample's `curves`, in bytes: the
# sequence and the views read, with no per-row object for the others.
CURVES_READ_BYTES = 4096


def traced_peak(fn, *args):
    """fn(*args) and its traced peak above the start, in matrices."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak / MATRIX_BYTES


@pytest.fixture(scope="module")
def peaks():
    grid = Grid.uniform(T)
    model = GpModel(grid=grid, theta=50.0)
    model.covariance_factor()  # cached: the first draw would count it
    shifts = ContaminationSpec("sym", q=0.1, magnitude=25.0)
    masks = ObservationSpec("intervals", p_obs=0.5, n_intervals=3)
    out = {}
    curves, out["sample_gp"] = traced_peak(sample_gp, model, N, 1)
    curves, out["contaminate"] = traced_peak(contaminate, grid, curves, shifts, 2)
    _, out["observe"] = traced_peak(observe, grid, curves, masks, 3)
    del curves
    sample, out["simulate_sample"] = traced_peak(simulate_sample, model, N, shifts, masks, 4)
    _, out["pointwise_depth_field"] = traced_peak(pointwise_depth_field, sample, "fm")
    depths, out["poifd_all"] = traced_peak(poifd_all, sample)
    trim = select_trim(depths.poifd, 0.2)
    _, out["trimmed_mean"] = traced_peak(trimmed_mean, sample, trim)
    _, out["ordinary_mean"] = traced_peak(ordinary_mean, sample)
    del sample, depths
    probes = default_probe_curves(grid)
    centered = ObservationSpec("centered", p_obs=0.5)
    for stage, sizes in PROBE_SIZES.items():
        _, out[stage] = traced_peak(convergence_probe, model, sizes, probes, centered, 5)
    return out


@pytest.mark.parametrize("stage", list(BOUNDS))
def test_stage_holds_no_extra_matrix(peaks, stage):
    assert peaks[stage] <= BOUNDS[stage], f"{stage}: {peaks[stage]:.3f} matrices"


def _blank_sample(n: int, length: int) -> FunctionalSample:
    values = np.arange(n * length, dtype=float).reshape(n, length)
    return FunctionalSample(Grid.uniform(length), values, np.ones((n, length), dtype=bool))


def test_reading_curves_builds_only_the_rows_read():
    sample = _blank_sample(N, T)
    _, peak = traced_peak(lambda s: (len(s.curves), s.curves[0], s.curves[-1]), sample)
    assert peak * MATRIX_BYTES < CURVES_READ_BYTES, f"{peak * MATRIX_BYTES:.0f} bytes"


def test_curves_is_a_sequence_of_row_views():
    n = 5
    sample = _blank_sample(n, 3)
    curves = sample.curves
    assert curves is sample.curves
    assert len(curves) == n
    np.testing.assert_array_equal(curves[-1].values, sample.values[n - 1])
    assert curves[np.int64(2)].values[0] == sample.values[2, 0]
    with pytest.raises(IndexError):
        curves[n]
    with pytest.raises(IndexError):
        curves[-n - 1]
    with pytest.raises(TypeError):
        curves[1.0]
    tail = curves[1::2]
    assert isinstance(tail, tuple) and len(tail) == 2
    np.testing.assert_array_equal(tail[1].values, sample.values[3])
    assert curves[n:] == ()
    rows = list(curves)
    assert len(rows) == n
    for i, curve in enumerate(rows):
        assert isinstance(curve, PartialCurve)
        assert np.shares_memory(curve.values, sample.values[i])
        assert np.shares_memory(curve.mask, sample.mask[i])
        assert not curve.values.flags.writeable and not curve.mask.flags.writeable


def test_import_loads_no_process_pool():
    # only reproduce_tables with jobs > 1 needs multiprocessing
    path = [str(Path(pofda.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    check = "import sys, pofda; assert 'concurrent.futures.process' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], check=True, env=env)
