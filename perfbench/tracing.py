"""Spans around the benchmark's own calls into pofda, and micro-kernels.

Nothing inside the package is instrumented: every span wraps one call
the benchmark makes into a public pofda function. Spans are kept in
memory and written out when the run ends. A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from pofda.core import Grid, PartialCurve, build_sample
from pofda.depths import DepthKind, depth_from_counts
from pofda.poifd import pointwise_depth_field
from pofda.simulate import GpModel


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, extra: bool = False):
        """Record one span; `extra` marks work the untraced body does not do."""
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        rec = {"id": sid, "parent": parent, "name": name, "extra": extra,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def probe(self, name: str, fn, *args, **kwargs) -> None:
        """Time a call the untraced body does not make, e.g. a nested stage."""
        with self.span(name, extra=True):
            fn(*args, **kwargs)

    def extra_seconds(self, since: int = 0) -> float:
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["extra"])

    def self_times(self, since: int = 0) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds) over spans[since:]."""
        spans = self.spans[since:]
        child = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] in child:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, tuple[int, float]] = {}
        for s in spans:
            calls, total = out.get(s["name"], (0, 0.0))
            out[s["name"]] = (calls + 1, total + (s["end"] - s["start"]) - child[s["id"]])
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s) + "\n")


class NullTracer:
    """Tracer stand-in for untraced runs: calls go straight through."""

    def span(self, name: str, extra: bool = False):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def probe(self, name: str, fn, *args, **kwargs) -> None:
        pass


def _median_ms(fn, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _random_sample(rng: np.random.Generator, n: int, T: int):
    # Each point observed with probability 1/2; one forced point per curve
    # keeps every curve observed somewhere.
    values = rng.standard_normal((n, T))
    mask = rng.random((n, T)) < 0.5
    mask[np.arange(n), rng.integers(0, T, n)] = True
    return build_sample(Grid.uniform(T), [PartialCurve(v, m) for v, m in zip(values, mask)])


def micro_kernels(seed: int, smoke: bool) -> dict[str, float]:
    """Median ms per call of the ROADMAP micro-kernels, inputs from `seed`."""
    rng = np.random.default_rng([seed, 7])
    scale = 10 if smoke else 1
    out = {}
    for n, T in ((80, 200), (1000, 200), (80, 2000), (10_000, 200)):
        sample = _random_sample(rng, max(n // scale, 2), max(T // scale, 2))
        out[f"poifd.depth_field.n{n}_T{T}.ms"] = _median_ms(
            lambda: pointwise_depth_field(sample, DepthKind.FRAIMAN_MUNIZ), 3 if n > 1000 else 5
        )
    for T in (200, 1000):
        model = GpModel(grid=Grid.uniform(T // scale), theta=50.0)
        # The first few factorizations in a process take ~250 ms each while
        # the BLAS thread pool starts; time the steady state.
        out[f"simulate.cov_factor.T{T}.ms"] = _median_ms(
            lambda: np.linalg.cholesky(model.covariance()), 5, warmup=6
        )
    k = 1000
    c_lt = rng.integers(0, k, 1_000_000 // scale)
    c_le = np.minimum(c_lt + rng.integers(1, 3, c_lt.size), k)
    out["depths.depth_from_counts.ms"] = _median_ms(
        lambda: depth_from_counts(DepthKind.FRAIMAN_MUNIZ, c_le, c_lt, k), 7
    )
    return out
