"""Depth and robust trimmed means for partially observed functional data."""

from .core import (
    FunctionalSample,
    Grid,
    PartialCurve,
    build_sample,
)
from .depths import DepthKind
from .poifd import DepthResult, ifd, poifd_all, poifd_of
from .trimming import (
    LocationEstimate,
    TrimSpec,
    ordinary_mean,
    select_trim,
    trimmed_mean,
)
from .simulate import (
    ContaminationKind,
    ContaminationSpec,
    GpModel,
    ObservationKind,
    ObservationSpec,
    contaminate,
    observe,
    sample_gp,
    simulate_sample,
)
from .metrics import ReplicationError, ScenarioMetrics, aggregate, integrated_error
from .consistency import convergence_probe, default_probe_curves, population_poifd
from .harness import ScenarioConfig, ScenarioResult, reproduce_tables, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "PartialCurve",
    "FunctionalSample",
    "build_sample",
    "DepthKind",
    "DepthResult",
    "ifd",
    "poifd_of",
    "poifd_all",
    "TrimSpec",
    "LocationEstimate",
    "select_trim",
    "trimmed_mean",
    "ordinary_mean",
    "GpModel",
    "ContaminationKind",
    "ContaminationSpec",
    "ObservationKind",
    "ObservationSpec",
    "sample_gp",
    "contaminate",
    "observe",
    "simulate_sample",
    "ReplicationError",
    "ScenarioMetrics",
    "integrated_error",
    "aggregate",
    "convergence_probe",
    "default_probe_curves",
    "population_poifd",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "reproduce_tables",
]
