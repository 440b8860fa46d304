import concurrent.futures
import json
from dataclasses import fields

import numpy as np
import pytest

from pofda.core import FunctionalSample
from pofda.harness import (
    RESULT_COLUMNS,
    ScenarioConfig,
    ScenarioResult,
    load_scenarios,
    reproduce_tables,
    run_scenario,
    table_configs,
    write_results_csv,
)

from conftest import read_csv


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.grid_len == 200 and cfg.n_curves == 50
        assert cfg.q == 0.1 and cfg.alpha == 0.2
        assert cfg.resolved_theta == 50.0

    def test_theta_override(self):
        assert ScenarioConfig(theta=1.5).resolved_theta == 1.5

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({"nope": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(grid_len=1)
        with pytest.raises(ValueError):
            ScenarioConfig(n_reps=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"q": 1.5},
            {"magnitude": -1.0},
            {"alpha": 1.0},
            {"p_obs": 0.0},
            {"observation": "intervals", "n_intervals": 0},
            {"phi": "cube"},
            {"theta": 0.0},
            {"theta": -3.0},
            {"theta": float("nan")},
            {"seed": -1},
            {"grid_len": 25.0},
            {"n_curves": 20.5},
            {"observation": "intervals", "n_intervals": 2.5},
            {"n_reps": 2.5},
            {"n_reps": True},
            {"q": "0.1"},
            {"magnitude": True},
            {"alpha": "0.2"},
            {"p_obs": None},
            {"theta": "10"},
            {"seed": True},
            {"seed": 1.0},
        ],
        ids=[
            "q", "magnitude", "alpha", "p_obs", "n_intervals", "phi",
            "theta_zero", "theta_negative", "theta_nan", "seed_negative",
            "grid_len_float", "n_curves_float", "n_intervals_float",
            "n_reps_float", "n_reps_bool", "q_str", "magnitude_bool",
            "alpha_str", "p_obs_none", "theta_str", "seed_bool", "seed_float",
        ],
    )
    def test_bad_field_fails_at_construction(self, bad):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad)

    def test_callable_phi_accepted(self):
        assert callable(ScenarioConfig(phi=np.sqrt).phi)


class TestRunScenario:
    def test_single_replication_passthrough(self):
        cfg = ScenarioConfig(grid_len=40, n_curves=12, n_reps=1, seed=3)
        res = run_scenario(cfg, 0)
        assert res.s_dev == 0.0 and res.s_trim == 0.0
        assert res.e_mean == res.med
        assert res.e_trim == res.med_trim

    def test_clean_model_estimators_comparable(self):
        cfg = ScenarioConfig(contamination="none", n_curves=50, n_reps=10, seed=7)
        res = run_scenario(cfg, 0)
        assert res.e_mean < 0.5 and res.e_trim < 0.5
        ratio = res.e_mean / res.e_trim
        assert 0.5 <= ratio <= 2.0

    def test_heavy_asym_contamination_direction(self):
        # exemplar row: len=200 n=50 q=0.1 M=25 alpha=0.2 asym p_obs=0.5
        cfg = ScenarioConfig(contamination="asym", seed=7)
        res = run_scenario(cfg, 0)
        assert res.e_trim < res.e_mean
        assert res.e_mean / res.e_trim >= 3.0
        assert res.med_trim < res.med

    def test_deterministic(self):
        cfg = ScenarioConfig(grid_len=30, n_curves=10, n_reps=2, seed=5)
        assert run_scenario(cfg, 1) == run_scenario(cfg, 1)


class TestTableGrid:
    def test_four_tables_twelve_rows(self):
        tables = table_configs(seed=0)
        assert len(tables) == 4
        assert all(len(rows) == 12 for rows in tables)

    def test_scenario_cross_product(self):
        tables = table_configs(seed=0)
        combos = {
            (c.n_curves, c.magnitude, c.alpha, c.contamination.value, c.p_obs)
            for rows in tables
            for c in rows
        }
        expected = {
            (n, M, a, k, p)
            for n in (50, 80)
            for M in (25.0, 5.0)
            for a in (0.2, 0.3)
            for k in ("sym", "asym", "partial")
            for p in (0.5, 0.9)
        }
        assert combos == expected
        assert len(expected) == 48


class TestReproduceTables:
    def test_files_schema_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        paths_a = reproduce_tables(out_a, seed=9, n_reps=2, grid_len=40)
        paths_b = reproduce_tables(out_b, seed=9, n_reps=2, grid_len=40)
        assert [p.name for p in paths_a] == [f"table{i}.csv" for i in (1, 2, 3, 4)]
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()
            header, rows = read_csv(pa)
            assert header == RESULT_COLUMNS and len(rows) == 12

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, True, "2"])
    def test_rejects_bad_jobs(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # no pool may start
        with pytest.raises(ValueError, match="jobs"):
            reproduce_tables(tmp_path, seed=1, jobs=jobs, n_reps=1, grid_len=10)

    def test_pool_starts_at_most_one_worker_per_scenario(self, tmp_path, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        pooled = reproduce_tables(tmp_path / "pooled", seed=2, jobs=500, n_reps=1, grid_len=10)
        serial = reproduce_tables(tmp_path / "serial", seed=2, n_reps=1, grid_len=10)
        assert started == [48]
        assert [p.read_bytes() for p in pooled] == [p.read_bytes() for p in serial]

    def test_roundtrip_equality(self, tmp_path):
        cfg = ScenarioConfig(grid_len=30, n_curves=8, n_reps=2, seed=1)
        results = [run_scenario(cfg, 0)]
        path = tmp_path / "res.csv"
        write_results_csv(path, results)
        header, rows = read_csv(path)
        assert header == RESULT_COLUMNS and len(rows) == len(results)
        # every cell parses back to its field's value: floats exactly
        for result, row in zip(results, rows):
            for f, cell in zip(fields(ScenarioResult), row, strict=True):
                value = getattr(result, f.name)
                assert type(value)(cell) == value, f.name

    def test_header_exact(self, tmp_path):
        cfg = ScenarioConfig(grid_len=30, n_curves=8, n_reps=1, seed=1)
        path = tmp_path / "res.csv"
        write_results_csv(path, [run_scenario(cfg, 0)])
        header = path.read_text().splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)
        assert RESULT_COLUMNS == [
            "len", "p", "q", "M", "alpha", "pollution_type", "observability",
            "E", "E_trim", "sd", "sd_trim", "Med", "Med_trim",
        ]


class TestScenarioFile:
    def test_load_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps({"n_curves": 9, "grid_len": 25}))
        configs = load_scenarios(single)
        assert len(configs) == 1 and configs[0].n_curves == 9

        many = tmp_path / "many.json"
        many.write_text(json.dumps([{"alpha": 0.3}, {"alpha": 0.2, "q": 0.05}]))
        configs = load_scenarios(many)
        assert [c.alpha for c in configs] == [0.3, 0.2]

    def test_load_rejects_scalar(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("42")
        with pytest.raises(ValueError):
            load_scenarios(bad)

    @pytest.mark.parametrize(
        "entries, index", [(["n_curves"], 0), ([1], 0), ([{"alpha": 0.3}, None], 1)]
    )
    def test_load_rejects_non_object_entries(self, tmp_path, entries, index):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(entries))
        with pytest.raises(ValueError, match=f"scenario entry {index} is not an object"):
            load_scenarios(bad)


def test_tables_validate_one_sample_per_replication(tmp_path, monkeypatch):
    """simulate_sample chains its stages on bare matrices: 48 scenarios x 2 reps, 96 samples."""
    built = []
    real = FunctionalSample._store
    monkeypatch.setattr(
        FunctionalSample, "_store", lambda *args, **kw: built.append(1) or real(*args, **kw)
    )
    reproduce_tables(tmp_path, seed=1, n_reps=2, grid_len=20)
    assert len(built) == 96


def test_tables_factor_each_covariance_once_and_build_no_curves(seed13_serial_tables):
    """The seed-13 grid has two covariances (theta 50 and 80) on one grid."""
    _, factorizations, curves = seed13_serial_tables
    assert factorizations == 2
    assert curves == 0
