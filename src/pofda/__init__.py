"""Depth and robust trimmed means for partially observed functional data."""

from .core import (
    FunctionalSample,
    Grid,
    PartialCurve,
    PointwiseEcdf,
    build_sample,
    ecdf_at,
)
from .depths import (
    DepthKind,
    fm_depth,
    pointwise_depth,
    simplicial_depth,
    tukey_depth,
)
from .poifd import DepthResult, ifd, k_functional, poifd_all, poifd_of, poifd_sample
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
    "PointwiseEcdf",
    "build_sample",
    "ecdf_at",
    "DepthKind",
    "tukey_depth",
    "simplicial_depth",
    "fm_depth",
    "pointwise_depth",
    "DepthResult",
    "ifd",
    "poifd_sample",
    "poifd_of",
    "poifd_all",
    "k_functional",
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
