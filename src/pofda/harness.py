"""Scenario orchestration: run contamination scenarios, emit result tables.

A scenario is one row of the benchmark grid: curve count, grid length,
contamination settings, observation proportion, trimming level, and
replication count. Each replication simulates, contaminates, masks,
computes depths, forms both location estimates, and scores them against
the clean trend; the scenario row aggregates the replication errors.

Replication seeds derive from (base seed, scenario index, replication
index), so serial and parallel runs produce identical tables.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Sequence

from ._streams import seed_sequence
from .core import Grid, _check_integer
from .depths import DepthKind
from .metrics import aggregate, integrated_error
from .poifd import poifd_all, resolve_phi
from .simulate import (
    ContaminationKind,
    ContaminationSpec,
    GpModel,
    ObservationKind,
    ObservationSpec,
    simulate_sample,
)
from .trimming import ordinary_mean, resolved_keep_count, select_trim, trimmed_mean

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "run_replication",
    "table_configs",
    "reproduce_tables",
    "write_results_csv",
    "RESULT_COLUMNS",
]

_POLLUTION_LABEL = {
    ContaminationKind.NONE: "none",
    ContaminationKind.SYMMETRIC: "symmetric",
    ContaminationKind.ASYMMETRIC: "asymmetric",
    ContaminationKind.PARTIAL: "partial",
}

RESULT_COLUMNS = [
    "len",
    "p",
    "q",
    "M",
    "alpha",
    "pollution_type",
    "observability",
    "E",
    "E_trim",
    "sd",
    "sd_trim",
    "Med",
    "Med_trim",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One benchmark scenario; defaults mirror the standard grid row."""

    grid_len: int = 200
    n_curves: int = 50
    q: float = 0.1
    magnitude: float = 25.0
    alpha: float = 0.2
    contamination: ContaminationKind = ContaminationKind.SYMMETRIC
    observation: ObservationKind = ObservationKind.CENTERED_INTERVAL
    p_obs: float = 0.5
    n_intervals: int = 3
    depth: DepthKind = DepthKind.FRAIMAN_MUNIZ
    phi: str = "identity"
    theta: float | None = None
    n_reps: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "contamination", ContaminationKind(self.contamination))
        object.__setattr__(self, "observation", ObservationKind(self.observation))
        object.__setattr__(self, "depth", DepthKind(self.depth))
        for name in ("grid_len", "n_curves", "n_reps", "seed"):
            _check_integer(name, getattr(self, name))
        if self.grid_len < 2:
            raise ValueError("grid_len must be at least 2")
        if self.n_curves < 1:
            raise ValueError("n_curves must be at least 1")
        if self.n_reps < 1:
            raise ValueError("n_reps must be at least 1")
        # Fail here, not inside a worker process: the specs and helpers
        # the replications use check the remaining fields.
        self.model()
        seed_sequence(self.seed)
        self.contamination_spec()
        self.observation_spec()
        resolved_keep_count(self.n_curves, self.alpha)
        resolve_phi(self.phi)

    def contamination_spec(self) -> ContaminationSpec:
        return ContaminationSpec(self.contamination, q=self.q, magnitude=self.magnitude)

    def observation_spec(self) -> ObservationSpec:
        return ObservationSpec(
            self.observation, p_obs=self.p_obs, n_intervals=self.n_intervals
        )

    @property
    def resolved_theta(self) -> float:
        # Covariance decay rate defaults to the curve count.
        return self.n_curves if self.theta is None else self.theta

    def model(self) -> GpModel:
        return GpModel(grid=Grid.uniform(self.grid_len), theta=self.resolved_theta)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ScenarioResult:
    """One table row: scenario echo plus error summaries for both estimators.

    Fields are the RESULT_COLUMNS, in order.
    """

    grid_len: int
    n_curves: int
    q: float
    magnitude: float
    alpha: float
    pollution_type: str
    observability: float
    e_mean: float
    e_trim: float
    s_dev: float
    s_trim: float
    med: float
    med_trim: float

    def to_row(self) -> list[str]:
        cells = []
        for f in fields(self):
            value = getattr(self, f.name)
            cells.append(repr(float(value)) if f.type == "float" else str(value))
        return cells


def run_replication(config: ScenarioConfig, scenario_index: int, rep_index: int):
    """Simulate one replication; returns (sample, trim spec)."""
    sample = simulate_sample(
        config.model(),
        config.n_curves,
        config.contamination_spec(),
        config.observation_spec(),
        (config.seed, scenario_index, rep_index),
    )
    depths = poifd_all(sample, kind=config.depth, phi=config.phi).poifd
    return sample, select_trim(depths, config.alpha)


def run_scenario(config: ScenarioConfig, scenario_index: int = 0) -> ScenarioResult:
    """Run all replications of one scenario and aggregate both estimators."""
    truth = config.model().trend_values()
    plain_errors = []
    trim_errors = []
    for rep in range(config.n_reps):
        sample, trim = run_replication(config, scenario_index, rep)
        plain_errors.append(integrated_error(ordinary_mean(sample), truth))
        trim_errors.append(integrated_error(trimmed_mean(sample, trim), truth))
    plain = aggregate(plain_errors)
    trimmed = aggregate(trim_errors)
    return ScenarioResult(
        grid_len=config.grid_len,
        n_curves=config.n_curves,
        q=config.q,
        magnitude=config.magnitude,
        alpha=config.alpha,
        pollution_type=_POLLUTION_LABEL[config.contamination],
        observability=config.p_obs,
        e_mean=plain.e_mean,
        e_trim=trimmed.e_mean,
        s_dev=plain.s_dev,
        s_trim=trimmed.s_dev,
        med=plain.m_median,
        med_trim=trimmed.m_median,
    )


# (alpha, observation proportion) per output table, in file order.
TABLE_SETTINGS = [(0.2, 0.5), (0.3, 0.5), (0.2, 0.9), (0.3, 0.9)]


def table_configs(seed: int, n_reps: int = 10, grid_len: int = 200) -> list[list[ScenarioConfig]]:
    """The 4 x 12 scenario grid behind the benchmark tables."""
    tables = []
    for alpha, p_obs in TABLE_SETTINGS:
        rows = []
        for n_curves in (50, 80):
            for magnitude in (25.0, 5.0):
                for kind in (
                    ContaminationKind.SYMMETRIC,
                    ContaminationKind.ASYMMETRIC,
                    ContaminationKind.PARTIAL,
                ):
                    rows.append(
                        ScenarioConfig(
                            grid_len=grid_len,
                            n_curves=n_curves,
                            magnitude=magnitude,
                            alpha=alpha,
                            contamination=kind,
                            p_obs=p_obs,
                            n_reps=n_reps,
                            seed=seed,
                        )
                    )
        tables.append(rows)
    return tables


def _run_many(configs: list[ScenarioConfig], jobs: int) -> list[ScenarioResult]:
    # a pool may start every worker at once, so none beyond one per scenario
    workers = min(jobs, len(configs))
    if workers <= 1:
        return list(map(run_scenario, configs, range(len(configs))))
    # imported here: a serial run or `import pofda` then never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_scenario, configs, range(len(configs))))


def write_results_csv(path, results: Sequence[ScenarioResult]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for res in results:
            writer.writerow(res.to_row())


def reproduce_tables(
    out_dir, seed: int, jobs: int = 1, n_reps: int = 10, grid_len: int = 200
) -> list[Path]:
    """Run the full scenario grid and write table1.csv .. table4.csv.

    Output is deterministic in `seed` and independent of `jobs`, the
    number of worker processes (at most one per scenario).
    """
    _check_integer("jobs", jobs)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = table_configs(seed, n_reps=n_reps, grid_len=grid_len)
    results = iter(_run_many([config for rows in tables for config in rows], jobs))
    paths = []
    for tnum, rows in enumerate(tables, start=1):
        path = out_dir / f"table{tnum}.csv"
        write_results_csv(path, list(islice(results, len(rows))))
        paths.append(path)
    return paths


def load_scenarios(path) -> list[ScenarioConfig]:
    """Read scenario configs from a JSON file: one object or a list of them."""
    with open(path) as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError("scenario file must hold an object or a list of objects")
    for index, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValueError(f"scenario entry {index} is not an object: {item!r}")
    return [ScenarioConfig.from_dict(item) for item in data]
