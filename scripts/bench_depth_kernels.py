#!/usr/bin/env python3
"""Time the depth-field and query kernels of one pofda source tree.

    python3 scripts/bench_depth_kernels.py [SRC_DIR]

SRC_DIR defaults to this checkout's `src/`; point it at the `src/` of
another checkout (e.g. one made with `git archive`) to time that
version on the same inputs. Prints one JSON object: the number of CPUs
the process may run on (the depth field ranks large samples on up to one
thread per CPU; `taskset -c 0` pins it to one), the best-of-repeats
milliseconds of `pointwise_depth_field` (Fraiman-Muniz) on masked
normal samples, and of one `poifd_of` query at n = 10^4, T = 101
(Fraiman-Muniz, which counts #<= x only, and Tukey, which also counts
#< x), plus the sha256 of the depth fields and the Fraiman-Muniz query,
so two versions can be checked equal. It also times two tie-heavy
fields at n = 10^4, T = 200, integers 0..9 and normals rounded to 2
decimals, as discretized data gives, and two normal fields at the same
size whose columns hold little or no padding, one fully observed and
one observed with probability 0.9; each is checked against a
per-column-sort reference and stays out of the digest. It times Fraiman-Muniz
queries at n = 50 and n = 1000, where a query's fixed cost shows, and
narrow partially observed queries (2 and 21 observed points) at
n = 10^4. Every query is checked against a plain two-comparison numpy
reference; all but the first stay out of the digest, which predates
them. Last, untimed and out of the digest, it reports the tracemalloc
peak above the start of `simulate_sample`, `poifd_all` and the two means
on an n = 10^4, T = 200 sample, in (n, T) float64 matrices of 16 MB.
"""

import hashlib
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from pofda.core import FunctionalSample, Grid, PartialCurve  # noqa: E402
from pofda.depths import depth_from_counts  # noqa: E402
from pofda.poifd import poifd_all, poifd_of, pointwise_depth_field  # noqa: E402
from pofda.simulate import (  # noqa: E402
    ContaminationSpec,
    GpModel,
    ObservationSpec,
    simulate_sample,
)
from pofda.trimming import ordinary_mean, select_trim, trimmed_mean  # noqa: E402

FIELD_SIZES = [(80, 200), (1000, 200), (80, 2000), (10_000, 200)]
TIED_SIZE = (10_000, 200)
TIED_DRAWS = {
    "ints0to9": lambda rng, shape: rng.integers(0, 10, size=shape).astype(float),
    "round2": lambda rng, shape: np.round(rng.normal(size=shape), 2),
}
# missing share of the fields with little or no padding
LIGHT_PADDING = {"full": 0.0, "p0.9": 0.1}
REPEATS = 7
PEAK_SIZE = (10_000, 200)


def masked_sample(n, T, seed, draw=lambda rng, shape: rng.normal(size=shape), missing=0.3):
    rng = np.random.default_rng(seed)
    values = draw(rng, (n, T))
    # rng.random draws multiples of 2^-53, which 0.3 is not, so >= gives
    # the default masks > gave; missing=0.0 observes every slot
    mask = rng.random((n, T)) >= missing
    mask[~mask.any(axis=1), 0] = True
    return FunctionalSample(Grid.uniform(T), values, mask)


def best_ms(fn):
    out = fn()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3), np.asarray(out).tobytes()


def field_reference(sample):
    """Fraiman-Muniz depth field by one sort per grid column."""
    out = np.full(sample.values.shape, np.nan)
    for ell in np.flatnonzero(sample.counts):
        observed = sample.values[sample.mask[:, ell], ell]
        c_le = np.searchsorted(np.sort(observed), observed, side="right")
        out[sample.mask[:, ell], ell] = depth_from_counts("fm", c_le, None, observed.size)
    return out


def query_reference(sample, probe, kind):
    """poifd_of with identity phi, from two full comparisons per point."""
    points = np.flatnonzero(probe.mask & (sample.counts > 0))
    c_le = (sample.values <= probe.values).sum(axis=0)[points]
    c_lt = (sample.values < probe.values).sum(axis=0)[points]
    depth = depth_from_counts(kind, c_le, c_lt, sample.counts[points])
    weights = sample.coverage[points]
    return float((depth * weights).sum() / weights.sum())


def traced_peak(fn, *args):
    """fn(*args) and its tracemalloc peak above the start, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def stage_peaks():
    """Traced peak of each stage on one sample, in (n, T) float64 matrices."""
    n, T = PEAK_SIZE
    model = GpModel(Grid.uniform(T), theta=50.0)
    args = (ContaminationSpec("sym", q=0.1, magnitude=25.0),
            ObservationSpec("intervals", p_obs=0.5, n_intervals=3), 13)
    simulate_sample(model, 1, *args)  # caches what a draw on this grid keeps
    peaks = {}
    sample, peaks["simulate_sample"] = traced_peak(simulate_sample, model, n, *args)
    depths, peaks["poifd_all"] = traced_peak(poifd_all, sample)
    trim = select_trim(depths.poifd, 0.2)
    _, peaks["trimmed_mean"] = traced_peak(trimmed_mean, sample, trim)
    _, peaks["ordinary_mean"] = traced_peak(ordinary_mean, sample)
    return {name: round(peak / (8 * n * T), 3) for name, peak in peaks.items()}


def main():
    times, digest = {}, hashlib.sha256()
    for n, T in FIELD_SIZES:
        sample = masked_sample(n, T, seed=n + T)
        ms, out = best_ms(lambda: pointwise_depth_field(sample, "fm"))
        times[f"depth_field.n{n}_T{T}"] = ms
        digest.update(out)
    n, T = TIED_SIZE
    checked = [(name, masked_sample(n, T, seed=n + T, draw=draw)) for name, draw in TIED_DRAWS.items()]
    checked += [(name, masked_sample(n, T, seed=n + T, missing=p)) for name, p in LIGHT_PADDING.items()]
    for name, sample in checked:
        ms, out = best_ms(lambda: pointwise_depth_field(sample, "fm"))
        times[f"depth_field.{name}.n{n}_T{T}"] = ms
        if out != field_reference(sample).tobytes():
            raise SystemExit(f"field {name} differs from the per-column-sort reference")
    sample = masked_sample(10_000, 101, seed=1)
    probe = PartialCurve.fully_observed(np.sin(np.linspace(0.0, 3.0, 101)))
    queries = [("poifd_of.n10000_T101", sample, probe, "fm")]
    queries.append(("poifd_of.tukey.n10000_T101", sample, probe, "tukey"))
    for n in (50, 1000):
        queries.append((f"poifd_of.n{n}_T101", masked_sample(n, 101, seed=n), probe, "fm"))
    for width in (2, 21):
        mask = np.zeros(101, bool)
        mask[40 : 40 + width] = True
        narrow = PartialCurve(probe.values, mask)
        queries.append((f"poifd_of.narrow{width}.n10000_T101", sample, narrow, "fm"))
    for name, queried, curve, kind in queries:
        ms, got = best_ms(lambda: poifd_of(queried, curve, kind))
        times[name] = ms
        if name == "poifd_of.n10000_T101":
            digest.update(got)
        if got != np.float64(query_reference(queried, curve, kind)).tobytes():
            raise SystemExit(f"{name} differs from the two-comparison reference")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(json.dumps({"cpus": cpus, "ms": times, "outputs_sha256": digest.hexdigest(),
                      f"peak_matrices.n{PEAK_SIZE[0]}_T{PEAK_SIZE[1]}": stage_peaks()}, indent=2))


if __name__ == "__main__":
    main()
