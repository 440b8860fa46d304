import json

import numpy as np
import pytest

import pofda.cli
from pofda.cli import main
from pofda.io import read_curves_csv
from pofda.harness import read_results_csv, run_scenario
from pofda.trimming import resolved_keep_count

from conftest import read_csv


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_curves_and_masks(tmp_path):
    out = tmp_path / "curves.csv"
    code = run_cli(
        "simulate", "--n", "6", "--len", "30", "--observe", "centered",
        "--p-obs", "0.6", "--seed", "4", "--out", str(out),
    )
    assert code == 0
    sample, names = read_curves_csv(out)
    assert sample.n_curves == 6 and sample.grid.size == 30
    header, rows = read_csv(tmp_path / "curves_mask.csv")
    assert header[0] == "t" and len(rows) == 30


def test_simulate_then_depth_then_trim(tmp_path):
    curves = tmp_path / "c.csv"
    depths = tmp_path / "d.csv"
    trim = tmp_path / "t.csv"
    assert run_cli("simulate", "--n", "8", "--len", "25", "--seed", "1",
                   "--out", str(curves)) == 0
    assert run_cli("depth", "--input", str(curves), "--depth", "fm",
                   "--out", str(depths)) == 0
    header, rows = read_csv(depths)
    assert header == ["curve_id", "poifd"]
    vals = [float(r[1]) for r in rows]
    assert vals == sorted(vals, reverse=True)
    assert len(rows) == 8

    assert run_cli("trim", "--input", str(curves), "--alpha", "0.25",
                   "--out", str(trim)) == 0
    header, rows = read_csv(trim)
    assert header == ["t", "estimate", "defined", "fallback"]
    assert len(rows) == 25


def test_run_scenario_with_config_and_overrides(tmp_path):
    cfg = tmp_path / "scenarios.json"
    cfg.write_text(json.dumps([
        {"grid_len": 30, "n_curves": 8, "n_reps": 2},
        {"grid_len": 30, "n_curves": 8, "n_reps": 2, "contamination": "asym"},
    ]))
    out = tmp_path / "rows.csv"
    code = run_cli("run-scenario", "--config", str(cfg), "--seed", "3",
                   "--out", str(out))
    assert code == 0
    rows = read_results_csv(out)
    assert len(rows) == 2
    assert rows[1].pollution_type == "asymmetric"


def test_run_scenario_flags_only(tmp_path):
    out = tmp_path / "row.csv"
    code = run_cli("run-scenario", "--n", "8", "--len", "25", "--reps", "2",
                   "--seed", "2", "--out", str(out))
    assert code == 0
    assert len(read_results_csv(out)) == 1


def test_reproduce_tables_cli(tmp_path):
    out = tmp_path / "tables"
    code = run_cli("reproduce-tables", "--out-dir", str(out), "--seed", "5",
                   "--reps", "1", "--len", "25")
    assert code == 0
    for i in (1, 2, 3, 4):
        assert (out / f"table{i}.csv").exists()


def test_plot_data_cli(tmp_path):
    out = tmp_path / "plots"
    code = run_cli(
        "plot-data", "--n", "10", "--len", "30", "--contamination", "sym",
        "--q", "0.2", "--M", "25", "--alpha", "0.3", "--seed", "6",
        "--out-dir", str(out),
    )
    assert code == 0
    full, names = read_curves_csv(out / "curves.csv")
    trimmed, kept_names = read_curves_csv(out / "trimmed_curves.csv")
    assert full.n_curves == 10
    assert trimmed.n_curves == resolved_keep_count(10, 0.3)
    assert set(kept_names) <= set(names)
    header, rows = read_csv(out / "coverage.csv")
    q = np.array([float(r[1]) for r in rows])
    assert np.all((q >= 0) & (q <= 1))
    assert (out / "figure_full.svg").exists()
    assert (out / "figure_trimmed.svg").exists()
    assert (out / "figure_full.svg").read_text().startswith("<svg")


def test_error_exit_code_and_diagnostic(tmp_path, capsys):
    code = run_cli("depth", "--input", str(tmp_path / "missing.csv"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("depth", "--depth", "banana", "--input", "x.csv")
    assert exc.value.code == 2


def test_run_scenario_m_flag_reaches_config(tmp_path, monkeypatch):
    seen = []

    def fake_run_scenario(config, index):
        seen.append(config)
        return run_scenario(config, index)

    monkeypatch.setattr(pofda.cli, "run_scenario", fake_run_scenario)
    code = run_cli("run-scenario", "--n", "8", "--len", "25", "--reps", "1",
                   "--observe", "intervals", "--p-obs", "0.5", "--m", "2",
                   "--out", str(tmp_path / "row.csv"))
    assert code == 0
    assert [c.n_intervals for c in seen] == [2]
