#!/usr/bin/env python3
"""Time the depth-field and query kernels of one pofda source tree.

    python3 scripts/bench_depth_kernels.py [SRC_DIR]

SRC_DIR defaults to this checkout's `src/`; point it at the `src/` of
another checkout (e.g. one made with `git archive`) to time that
version on the same inputs. Prints one JSON object: the best-of-repeats
milliseconds of `pointwise_depth_field` (Fraiman-Muniz) on masked
normal samples, and of one `poifd_of` query at n = 10^4, T = 101,
plus the sha256 of every output, so two versions can be checked equal.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from pofda.core import Grid, PartialCurve, build_sample  # noqa: E402
from pofda.poifd import poifd_of, pointwise_depth_field  # noqa: E402

FIELD_SIZES = [(80, 200), (1000, 200), (80, 2000), (10_000, 200)]
REPEATS = 7


def masked_sample(n, T, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, T))
    mask = rng.random((n, T)) > 0.3
    mask[~mask.any(axis=1), 0] = True
    return build_sample(Grid.uniform(T), [PartialCurve(v, m) for v, m in zip(values, mask)])


def best_ms(fn):
    out = fn()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3), np.asarray(out).tobytes()


def main():
    times, digest = {}, hashlib.sha256()
    for n, T in FIELD_SIZES:
        sample = masked_sample(n, T, seed=n + T)
        ms, out = best_ms(lambda: pointwise_depth_field(sample, "fm"))
        times[f"depth_field.n{n}_T{T}"] = ms
        digest.update(out)
    sample = masked_sample(10_000, 101, seed=1)
    probe = PartialCurve.fully_observed(np.sin(np.linspace(0.0, 3.0, 101)))
    ms, out = best_ms(lambda: poifd_of(sample, probe))
    times["poifd_of.n10000_T101"] = ms
    digest.update(out)
    print(json.dumps({"ms": times, "outputs_sha256": digest.hexdigest()}, indent=2))


if __name__ == "__main__":
    main()
