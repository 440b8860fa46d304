"""The public surface: what `pofda` and each submodule export, and what
the benchmark and the scripts import.

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

# Each submodule's sorted `__all__`; None for a module without one.
SUBMODULE_NAMES = {
    "pofda._streams": None,
    "pofda.cli": None,
    "pofda.consistency": [
        "centered_coverage", "convergence_probe", "default_probe_curves",
        "population_coverage", "population_poifd",
    ],
    "pofda.core": ["FunctionalSample", "Grid", "PartialCurve", "build_sample"],
    "pofda.depths": ["DepthKind", "depth_from_counts"],
    "pofda.harness": [
        "RESULT_COLUMNS", "ScenarioConfig", "ScenarioResult", "reproduce_tables",
        "run_replication", "run_scenario", "table_configs", "write_results_csv",
    ],
    "pofda.io": [
        "curve_names", "read_curves_csv", "write_coverage_csv", "write_curves_csv",
        "write_depth_csv", "write_estimate_csv",
    ],
    "pofda.metrics": ["ReplicationError", "ScenarioMetrics", "aggregate", "integrated_error"],
    "pofda.plots": ["plot_data", "render_sample_svg"],
    "pofda.poifd": [
        "DepthResult", "NAMED_PHI", "PhiLike", "ifd", "poifd_all", "poifd_of",
        "pointwise_depth_field", "resolve_phi",
    ],
    "pofda.simulate": [
        "ContaminationKind", "ContaminationSpec", "GpModel", "ObservationKind",
        "ObservationSpec", "contaminate", "observe", "sample_gp", "simulate_sample",
    ],
    "pofda.trimming": [
        "LocationEstimate", "TrimSpec", "ordinary_mean", "resolved_keep_count",
        "select_trim", "trimmed_mean",
    ],
}

ROOT = Path(__file__).resolve().parent.parent
IMPORTING_DIRS = [ROOT / "perfbench", ROOT / "scripts"]
PACKAGE_DIR = ROOT / "src" / "pofda"


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


def _uses_numpy_random(node) -> bool:
    """An import of numpy.random, or an `np.random` / `numpy.random` attribute."""
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (
            module == "numpy" and any(a.name == "random" for a in node.names)
        )
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def test_package_all_resolves_and_is_pinned():
    assert sorted(pofda.__all__) == PUBLIC_NAMES
    assert len(pofda.__all__) == len(set(pofda.__all__))
    for name in pofda.__all__:
        assert hasattr(pofda, name), name


def test_submodule_all_resolves():
    modules = _submodules()
    pinned = {
        m.__name__: sorted(m.__all__) if hasattr(m, "__all__") else None for m in modules
    }
    assert pinned == SUBMODULE_NAMES
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


def test_only_streams_module_touches_numpy_random():
    # numpy's stream contract lives in pofda._streams; every other module
    # draws through it, and no module advances a seed by spawning from it.
    random_users, spawners = set(), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _uses_numpy_random(node):
                random_users.add(path.name)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "spawn"
            ):
                spawners.add(path.name)
    assert random_users == {"_streams.py"}
    assert spawners == set()


def _private_definitions(tree):
    """(name, first line, last line) of each `_`-prefixed module-level
    function, class, method and constant; dunders run implicitly."""
    found = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *(m for m in members if isinstance(m, ast.FunctionDef))]:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                names = [d.name]
            elif isinstance(d, (ast.Assign, ast.AnnAssign)):
                targets = d.targets if isinstance(d, ast.Assign) else [d.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                (name, d.lineno, d.end_lineno)
                for name in names
                if name.startswith("_") and not name.endswith("__")
            ]
    return found


def test_every_private_name_is_used_in_the_package():
    # a private helper, method or constant that nothing in the package
    # reads outside its own definition is dead code: delete it with its
    # last caller, whatever tests or the benchmark still import it
    defined, reads = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.name, *d) for d in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((node.attr, path.name, node.lineno))
    assert len(defined) > 50
    unread = [
        f"{file}:{first} {name}"
        for file, name, first, last in defined
        if not any(
            read == name and not (at == file and first <= line <= last)
            for read, at, line in reads
        )
    ]
    assert unread == []


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
