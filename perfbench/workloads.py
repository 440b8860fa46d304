"""The benchmark's workloads: inputs built from a seed, the call a user
makes, a rebuild of that call from public functions for the traced run,
and checks of every output.

Each workload object is built by its constructor, which is the set-up
that `setup_s` times. `call()` is the timed operation and completes
`items` items. `check(output)` returns how many of those items failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import uuid
from fractions import Fraction
from pathlib import Path

import numpy as np

from pofda.consistency import (
    convergence_probe,
    default_probe_curves,
    population_coverage,
    population_poifd,
)
from pofda.core import Grid, build_sample
from pofda.depths import DepthKind
from pofda.harness import _POLLUTION_LABEL as POLLUTION_LABELS
from pofda.harness import (
    RESULT_COLUMNS,
    ScenarioResult,
    reproduce_tables,
    table_configs,
    write_results_csv,
)
from pofda.metrics import aggregate, integrated_error
from pofda.poifd import poifd_all, poifd_of, pointwise_depth_field
from pofda.simulate import (
    ContaminationSpec,
    GpModel,
    ObservationSpec,
    contaminate,
    observe,
    sample_gp,
    seed_sequence,
)
from pofda.trimming import ordinary_mean, select_trim, trimmed_mean

from tracing import NullTracer

NULL = NullTracer()
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
POIFD_OF_TOLERANCE = 1e-12
TABLE_FILES = [f"table{i}.csv" for i in range(1, 5)]


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Workload:
    """Shared bookkeeping: pinned digest, first output and failure notes."""

    name: str
    items: int
    calls_per_cov: float

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        # Digests are pinned for the full-size inputs of one seed only.
        self.digest = None if smoke or seed != EXPECTED["seed"] else EXPECTED[self.name]
        self.reference = None
        self.counters: dict[str, float] = {}
        self.notes: list[str] = []

    def traced_call(self, tr):
        return self.call(tr)

    def reference_call(self):
        """The untraced call that the traced run is compared with."""
        return self.call()

    def final_check(self) -> int:
        return 0

    def _check_digest(self, digest: str) -> bool:
        """Output must match the pinned digest and every earlier call."""
        ok = True
        if self.digest is not None and digest != self.digest:
            self.notes.append(f"{self.name}: digest {digest} != pinned {self.digest}")
            ok = False
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.notes.append(f"{self.name}: digest {digest} differs from the first call")
            ok = False
        return ok


def _row_ok(fields: list[str], config) -> bool:
    if len(fields) != len(RESULT_COLUMNS):
        return False
    try:
        echo = (int(fields[0]), int(fields[1]), float(fields[2]), float(fields[3]),
                float(fields[4]), fields[5], float(fields[6]))
        errors = [float(x) for x in fields[7:]]
    except ValueError:
        return False
    expected = (config.grid_len, config.n_curves, config.q, config.magnitude,
                config.alpha, POLLUTION_LABELS[config.contamination], config.p_obs)
    return echo == expected and all(math.isfinite(e) and e >= 0.0 for e in errors)


def check_rows(data: list[bytes], configs):
    """Failed replications in table bytes, plus notes saying why.

    A row fails when it does not parse, does not echo its scenario or
    holds a negative or non-finite error; its replications count as failed.
    """
    notes = []
    failed = 0
    header = ",".join(RESULT_COLUMNS)
    for tnum, (raw, rows_cfg) in enumerate(zip(data, configs)):
        lines = raw.decode("utf-8", errors="replace").split("\n")
        header_ok = lines[0] == header and lines[-1] == "" and len(lines) == len(rows_cfg) + 2
        for i, config in enumerate(rows_cfg):
            line = lines[i + 1] if header_ok else ""
            if not (header_ok and _row_ok(next(csv.reader(io.StringIO(line)), []), config)):
                failed += config.n_reps
                notes.append(f"table{tnum + 1} row {i + 1} failed: {line[:80]!r}")
    return failed, notes


class Tables(Workload):
    """The paper's 4 x 12 table grid, serial. One item is one replication.

    Set-up draws every replication's observed sample the way
    `reproduce_tables` does (same seeds, same order). The timed call
    scores, trims and aggregates them and writes the four tables, so its
    bytes equal `reproduce_tables`'. Simulation is left out of the timed
    call because it is where the BLAS threads run: a serial table run
    keeps a second BLAS thread spinning, and on a 2-core shared host that
    made whole-call throughput spread past the benchmark's bound from one
    run to the next. Simulation cost lands in `setup_s` here; the traced
    run times `reproduce_tables` itself and its rebuild with simulation.
    """

    name = "tables_serial"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tr=NULL) -> None:
        super().__init__(seed, smoke, workdir)
        self.n_reps, self.grid_len = (1, 20) if smoke else (10, 200)
        self.configs = tr.call("harness.table_configs", table_configs, seed,
                               n_reps=self.n_reps, grid_len=self.grid_len)
        flat = [c for rows in self.configs for c in rows]
        self.items = sum(c.n_reps for c in flat)
        self.calls_per_cov = self.items / len({(c.grid_len, c.resolved_theta) for c in flat})
        self.samples = [_simulate(tr, config, index) for index, config in enumerate(flat)]

    def call(self) -> Path:
        """Score, trim and aggregate the set-up samples; write the tables."""
        return self._tables(NULL, lambda index, config: self.samples[index])

    def traced_call(self, tr) -> Path:
        """`reproduce_tables` rebuilt from public calls, simulation included."""
        return self._tables(tr, lambda index, config: _simulate(tr, config, index))

    def reproduce(self, jobs: int = 1) -> Path:
        """The user's call: `reproduce_tables` with simulation, in `jobs` processes."""
        out = self.workdir / f"tables-{uuid.uuid4().hex}"
        reproduce_tables(out, self.seed, jobs=jobs, n_reps=self.n_reps, grid_len=self.grid_len)
        return out

    def reference_call(self) -> Path:
        return self.reproduce()

    def _tables(self, tr, samples_of) -> Path:
        counts = dict.fromkeys(
            ["trimming.fallback_points", "trimming.fallback_reps", "used_trim", "used_plain"], 0
        )
        flat = [c for rows in self.configs for c in rows]
        results = []
        for index, config in enumerate(flat):
            with tr.span("harness.run_scenario"):
                results.append(_analyse(tr, config, samples_of(index, config), counts))
        out = self.workdir / f"tables-{uuid.uuid4().hex}"
        out.mkdir(parents=True)
        cursor = 0
        for tnum, rows in enumerate(self.configs):
            tr.call("harness.write_results_csv", write_results_csv,
                    out / TABLE_FILES[tnum], results[cursor:cursor + len(rows)])
            cursor += len(rows)
        self.counters = {
            "trimming.fallback_points": counts["trimming.fallback_points"],
            "trimming.fallback_reps": counts["trimming.fallback_reps"],
            "metrics.points_used_ratio": counts["used_trim"] / counts["used_plain"],
        }
        return out

    def check(self, out: Path) -> int:
        """Check the tables in `out`, then remove it."""
        try:
            data = [(out / f).read_bytes() if (out / f).exists() else b"" for f in TABLE_FILES]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return self.check_bytes(data)

    def check_bytes(self, data: list[bytes]) -> int:
        """Rows must parse and echo their scenario; bytes must match the pin and the first call."""
        failed, notes = check_rows(data, self.configs)
        self.notes += notes
        return failed if self._check_digest(sha256(*data)) else self.items


def _simulate(tr, config, index: int) -> list:
    """The observed samples of one scenario's replications, seeded as `run_replication` seeds them."""
    grid = Grid.uniform(config.grid_len)
    model = GpModel(grid=grid, theta=config.resolved_theta)
    cont = ContaminationSpec(config.contamination, q=config.q, magnitude=config.magnitude)
    obs = ObservationSpec(config.observation, p_obs=config.p_obs, n_intervals=config.n_intervals)
    samples = []
    for rep in range(config.n_reps):
        gp_seed, cont_seed, obs_seed = seed_sequence((config.seed, index, rep)).spawn(3)
        curves = tr.call("simulate.sample_gp", sample_gp, model, config.n_curves, gp_seed)
        curves = tr.call("simulate.contaminate", contaminate, grid, curves, cont, cont_seed)
        samples.append(tr.call("simulate.observe", observe, grid, curves, obs, obs_seed))
        tr.probe("core.build_sample", build_sample, grid, samples[-1].curves)
    return samples


def _analyse(tr, config, samples: list, counts: dict) -> ScenarioResult:
    """What `run_scenario` does to its replications' samples, one span per call."""
    truth = GpModel(grid=Grid.uniform(config.grid_len), theta=config.resolved_theta).trend_values()
    plain_errors, trim_errors = [], []
    for sample in samples:
        tr.probe("poifd.pointwise_depth_field", pointwise_depth_field, sample, config.depth)
        result = tr.call("poifd.poifd_all", poifd_all, sample, kind=config.depth, phi=config.phi)
        trim = tr.call("trimming.select_trim", select_trim, result.poifd, config.alpha)
        plain = tr.call("trimming.ordinary_mean", ordinary_mean, sample)
        plain_errors.append(tr.call("metrics.integrated_error", integrated_error, plain, truth))
        trimmed = tr.call("trimming.trimmed_mean", trimmed_mean, sample, trim)
        trim_errors.append(tr.call("metrics.integrated_error", integrated_error, trimmed, truth))
        fallback = int(trimmed.fallback_mask.sum())
        counts["trimming.fallback_points"] += fallback
        counts["trimming.fallback_reps"] += fallback > 0
        counts["used_plain"] += plain_errors[-1].points_used
        counts["used_trim"] += trim_errors[-1].points_used
    p = tr.call("metrics.aggregate", aggregate, plain_errors)
    t = tr.call("metrics.aggregate", aggregate, trim_errors)
    return ScenarioResult(
        grid_len=config.grid_len, n_curves=config.n_curves, q=config.q,
        magnitude=config.magnitude, alpha=config.alpha,
        pollution_type=POLLUTION_LABELS[config.contamination],
        observability=config.p_obs, e_mean=p.e_mean, e_trim=t.e_mean,
        s_dev=p.s_dev, s_trim=t.s_dev, med=p.m_median, med_trim=t.m_median,
    )


# (lowest, highest) integrated depth when every observed point holds at
# least k values. Tukey and simplicial depths of an observed curve are
# positive; Fraiman-Muniz reaches 1/2 at a pointwise extreme.
_DEPTH_RANGE = {
    DepthKind.TUKEY: lambda k: (0.0, (k + 1) / (2 * k)),
    DepthKind.SIMPLICIAL: lambda k: (0.0, (k + 1) ** 2 / (2 * k * k)),
    DepthKind.FRAIMAN_MUNIZ: lambda k: (0.5, 1.0),
}
_LOW_INCLUSIVE = {DepthKind.FRAIMAN_MUNIZ}


class DepthLarge(Workload):
    """One large masked sample scored with all three depths, then trimmed.

    Set-up simulates the sample (n = 10^4, T = 200, symmetric shifts
    q = 0.1, M = 25, three random intervals at p = 0.5). One item is one
    curve depth, so a pass is 3n items.
    """

    name = "depth_large"
    alpha = Fraction("0.2")

    def __init__(self, seed: int, smoke: bool, workdir: Path, tr=NULL) -> None:
        super().__init__(seed, smoke, workdir)
        n, T = (400, 40) if smoke else (10_000, 200)
        grid = Grid.uniform(T)
        model = GpModel(grid=grid, theta=50.0)
        gp_seed, cont_seed, obs_seed = seed_sequence(seed).spawn(3)
        curves = tr.call("simulate.sample_gp", sample_gp, model, n, gp_seed)
        curves = tr.call("simulate.contaminate", contaminate, grid, curves,
                         ContaminationSpec("sym", q=0.1, magnitude=25.0), cont_seed)
        self.sample = tr.call("simulate.observe", observe, grid, curves,
                              ObservationSpec("intervals", p_obs=0.5, n_intervals=3), obs_seed)
        tr.probe("core.build_sample", build_sample, grid, self.sample.curves)
        self.items = 3 * n
        self.calls_per_cov = 1.0
        self.first = None

    def call(self, tr=NULL):
        sample = self.sample
        with tr.span("bench.depth_pass"):
            depths = {}
            for kind in DepthKind:
                tr.probe("poifd.pointwise_depth_field", pointwise_depth_field, sample, kind)
                depths[kind] = tr.call("poifd.poifd_all", poifd_all, sample, kind=kind).poifd
            trim = tr.call("trimming.select_trim", select_trim, depths[DepthKind.FRAIMAN_MUNIZ],
                           float(self.alpha))
            trimmed = tr.call("trimming.trimmed_mean", trimmed_mean, sample, trim)
            plain = tr.call("trimming.ordinary_mean", ordinary_mean, sample)
        return depths, trim, trimmed, plain

    def check(self, out) -> int:
        depths, trim, trimmed, plain = out
        fallback = int(trimmed.fallback_mask.sum())
        self.counters = {"trimming.fallback_points": fallback, "trimming.fallback_reps": int(fallback > 0)}
        n = self.sample.n_curves
        k = int(self.sample.counts[self.sample.counts > 0].min())
        failed = 0
        for kind, d in depths.items():
            lo, hi = _DEPTH_RANGE[kind](k)
            above = d >= lo if kind in _LOW_INCLUSIVE else d > lo
            bad = int(np.count_nonzero(~(np.isfinite(d) & above & (d <= hi))))
            if bad:
                self.notes.append(f"{bad} {kind.value} depths out of range (lo {lo}, hi {hi})")
            failed += bad
        keep = n - math.floor(n * self.alpha)
        fm = depths[DepthKind.FRAIMAN_MUNIZ]
        trim_ok = (
            trim.keep_count == keep
            and trim.kept.size == keep
            and bool(np.all(fm[trim.kept] >= trim.beta))
            and bool(np.all(np.isfinite(trimmed.values[trimmed.defined_mask])))
            and bool(np.all(np.isfinite(plain.values[plain.defined_mask])))
        )
        if not trim_ok:
            self.notes.append(f"trim keeps {trim.keep_count} curves, expected {keep}")
        digest = sha256(*(d.tobytes() for d in depths.values()),
                        trim.kept.astype(np.int64).tobytes(),
                        trimmed.values.tobytes(), plain.values.tobytes())
        if not (self._check_digest(digest) and trim_ok):
            failed = self.items
        if self.first is None:
            self.first = depths
        return failed

    def final_check(self) -> int:
        """Spot-check `poifd_of` on a few sample curves against `poifd_all`.

        The two normalize the weights in a different order, so they agree
        to rounding (the package's own tests use the same 1e-12), not bitwise.
        """
        if self.first is None:
            return 0
        rng = np.random.default_rng([self.seed, 1])
        failed = 0
        worst = 0.0
        for i in rng.choice(self.sample.n_curves, size=3, replace=False):
            for kind, d in self.first.items():
                single = poifd_of(self.sample, self.sample.curves[i], kind=kind)
                worst = max(worst, abs(single - d[i]))
                if not abs(single - d[i]) <= POIFD_OF_TOLERANCE:
                    self.notes.append(f"poifd_of curve {i} {kind.value}: {single!r} != {d[i]!r}")
                    failed += 1
        self.notes.append(f"poifd_of spot check: max |poifd_of - poifd_all| = {worst:.3g}")
        return failed


class ConsistencyProbe(Workload):
    """The query path of `convergence_probe`: T = 101, theta = 1, centered
    masks at p = 0.5, the 10 default probe curves, sizes 50 .. 10^4.

    Set-up draws each size's masked sample with the seeds
    `convergence_probe` uses. That simulation is ~85% of a
    `convergence_probe` call, and timed there it made this workload's
    throughput drift with the machine more than any other workload's, so
    it lands in `setup_s`. The timed call scores every probe against the
    population and against every sample; one item is one probe scored at
    one size. Once per run, outside the timed calls, `convergence_probe`
    itself must return what the timed calls returned.
    """

    name = "consistency_probe"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tr=NULL) -> None:
        super().__init__(seed, smoke, workdir)
        T = 51 if smoke else 101
        self.sizes = (50, 200) if smoke else (50, 200, 1000, 5000, 10_000)
        self.model = GpModel(grid=Grid.uniform(T), theta=1.0)
        grid = self.model.grid
        self.probes = tr.call("consistency.default_probe_curves", default_probe_curves, grid)
        self.spec = ObservationSpec("centered", p_obs=0.5)
        self.samples = {}
        for n in self.sizes:
            curves = tr.call("simulate.sample_gp", sample_gp, self.model, n,
                             seed_sequence((seed, n, 0)))
            self.samples[n] = tr.call("simulate.observe", observe, grid, curves, self.spec,
                                      seed_sequence((seed, n, 1)))
            tr.probe("core.build_sample", build_sample, grid, self.samples[n].curves)
        self.items = len(self.sizes) * len(self.probes)
        self.calls_per_cov = float(len(self.sizes))

    def call(self, tr=NULL) -> dict[int, float]:
        grid = self.model.grid
        coverage = tr.call("consistency.population_coverage", population_coverage,
                           self.spec, grid, seed=self.seed)
        trend = self.model.trend_values()
        pop = np.array([
            tr.call("consistency.population_poifd", population_poifd, x, grid, trend, coverage)
            for x in self.probes
        ])
        out = {}
        for n, sample in self.samples.items():
            emp = np.array([tr.call("poifd.poifd_of", poifd_of, sample, x) for x in self.probes])
            out[n] = float(np.max(np.abs(emp - pop)))
        return out

    @staticmethod
    def _digest(out: dict[int, float]) -> str:
        return sha256(repr(sorted(out.items())).encode())

    def check(self, out) -> int:
        values = [out.get(n, math.nan) for n in self.sizes]
        ok = sorted(out) == sorted(self.sizes) and all(0.0 <= v <= 1.0 for v in values)
        if not ok:
            self.notes.append(f"discrepancies out of [0, 1] or sizes wrong: {out}")
        return 0 if self._check_digest(self._digest(out)) and ok else self.items

    def final_check(self) -> int:
        """`convergence_probe` must return the timed calls' output bit for bit."""
        if self.reference is None:
            return 0
        out = convergence_probe(self.model, self.sizes, self.probes, self.spec, seed=self.seed)
        if self._digest(out) == self.reference:
            return 0
        self.notes.append(f"convergence_probe returned {out}, digest differs from the timed calls")
        return self.items


WORKLOADS = {w.name: w for w in (Tables, DepthLarge, ConsistencyProbe)}
