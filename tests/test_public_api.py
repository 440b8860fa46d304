"""The public surface: what `pofda` exports and what the benchmark and
the scripts import.

Adding or removing an export shows up here as a test diff, and an
`__all__` entry left behind by a deletion, or a deleted name that the
benchmark or a script still imports, fails fast.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pofda

PUBLIC_NAMES = [
    "ContaminationKind",
    "ContaminationSpec",
    "DepthKind",
    "DepthResult",
    "FunctionalSample",
    "GpModel",
    "Grid",
    "LocationEstimate",
    "ObservationKind",
    "ObservationSpec",
    "PartialCurve",
    "ReplicationError",
    "ScenarioConfig",
    "ScenarioMetrics",
    "ScenarioResult",
    "TrimSpec",
    "aggregate",
    "build_sample",
    "contaminate",
    "convergence_probe",
    "default_probe_curves",
    "ifd",
    "integrated_error",
    "k_functional",
    "observe",
    "ordinary_mean",
    "poifd_all",
    "poifd_of",
    "population_poifd",
    "reproduce_tables",
    "run_scenario",
    "sample_gp",
    "select_trim",
    "simulate_sample",
    "trimmed_mean",
]

ROOT = Path(__file__).resolve().parent.parent
IMPORTING_DIRS = [ROOT / "perfbench", ROOT / "scripts"]


def _submodules():
    return [
        importlib.import_module(f"pofda.{info.name}")
        for info in pkgutil.iter_modules(pofda.__path__)
    ]


def _pofda_imports():
    """(module, name) of each `from pofda... import name` in perfbench/ and scripts/."""
    found = []
    for path in sorted(p for d in IMPORTING_DIRS for p in d.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pofda"):
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_package_all_resolves_and_is_pinned():
    assert sorted(pofda.__all__) == PUBLIC_NAMES
    assert len(pofda.__all__) == len(set(pofda.__all__))
    for name in pofda.__all__:
        assert hasattr(pofda, name), name


def test_submodule_all_resolves():
    modules = _submodules()
    assert {m.__name__ for m in modules} >= {"pofda.core", "pofda.poifd", "pofda.io"}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_benchmark_imports_resolve():
    imports = _pofda_imports()
    # the set-up and checks import from several modules, private names included
    assert ("pofda.harness", "_POLLUTION_LABEL") in imports
    assert ("pofda.depths", "depth_from_counts") in imports
    # and the scripts' imports, such as the consistency probe's
    assert ("pofda.consistency", "convergence_probe") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_import_loads_no_scipy():
    # scipy is only the tests' oracle for the normal CDF; importing the
    # package and its CLI in a fresh interpreter must not load it.
    code = (
        "import sys, pofda, pofda.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pofda.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"
