import argparse
import hashlib
import json

import numpy as np
import pytest

import pofda.cli
from pofda.cli import main
from pofda.io import read_curves_csv
from pofda.harness import RESULT_COLUMNS, ScenarioConfig, run_scenario
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
    # the curve file alone carries the masks, as its empty cells
    assert sample.mask.any(axis=1).all() and not sample.mask.all()
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]


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
    header, rows = read_csv(out)
    assert header == RESULT_COLUMNS and len(rows) == 2
    assert rows[1][header.index("pollution_type")] == "asymmetric"


def test_run_scenario_rejects_non_object_entry(tmp_path, capsys):
    cfg = tmp_path / "scenarios.json"
    cfg.write_text(json.dumps([{"n_curves": 8}, "n_curves"]))
    code = run_cli("run-scenario", "--config", str(cfg), "--out", str(tmp_path / "rows.csv"))
    assert code == 1
    assert "error: scenario entry 1 is not an object: 'n_curves'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [({"q": "0.1"}, "q must be a real number, got '0.1'"),
     ({"seed": True}, "seed must be an integer, got True")],
    ids=["q_str", "seed_bool"],
)
def test_run_scenario_rejects_wrong_typed_values(tmp_path, capsys, entry, message):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(entry))
    code = run_cli("run-scenario", "--config", str(cfg), "--out", str(tmp_path / "row.csv"))
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_scenario_config_overrides_only_given_fields():
    base = ScenarioConfig()
    out = pofda.cli._scenario_config(argparse.Namespace(alpha=0.3, q=None), base)
    assert out.alpha == 0.3 and out.q == base.q
    assert pofda.cli._scenario_config(argparse.Namespace(alpha=None), base) == base


def test_run_scenario_flags_only(tmp_path):
    out = tmp_path / "row.csv"
    code = run_cli("run-scenario", "--n", "8", "--len", "25", "--reps", "2",
                   "--seed", "2", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == RESULT_COLUMNS and len(rows) == 1


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
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--mask-out", "x.csv")
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


# sha256 of every file written by test_cli_output_bytes_pinned, keyed by
# its path under the output directory. Recorded before the mask redraw,
# per-curve stream and grid-table writer paths were each merged into one.
CLI_OUTPUT_SHA256 = {
    "centered.csv": "468f1ae05d12c74144318a06589ff09023fceec12c523d40d10e372c50e133bd",
    "centered_depth.csv": "142a1c80dcfee78116599e89a10c92ec346562729b2d9352002fd2018a8caa6f",
    "centered_p1.csv": "01b10c53ccf107c564c33b2095509e678d85105df29e0b2edd5472f8a4436ad3",
    "centered_p1_depth.csv": "10602dc1436d87a78c8838bd87e7771ab6a71889ce7bf996d368005ebd39d79d",
    "centered_p1_trim.csv": "9b7f3576d99899ea031dc12f7c83fdc497b48dd271f1b761b778ec15dc989a3d",
    "centered_trim.csv": "a56e1e95d5e30c1ab8a899b561d4a67c95bb8c76d25acca6e05818427dceea7e",
    "intervals.csv": "26e9d1783a48e77d468bdc8f9c091e1be1c8468a30fa4cc7e983efb607168065",
    "intervals_depth.csv": "d09fb734cd307b6a26352ce2a2d0a158683475393e8e2ddc00ca98fc891e7931",
    "intervals_trim.csv": "5914e8b73fea166e157932086cb3b38e4df5adfd55e31750d5d2897814f579a6",
    "plots/coverage.csv": "0f39582ff52ba45dfb0fa92f9b6bf9a00628d19d772036c046ad0dee6a01f2a8",
    "plots/curves.csv": "5a910c66bd38e6cbf4cfa57a48a3a05e84a59c61bb6f3e7e57d1cd5e867a874d",
    "plots/figure_full.svg": "8f14040b17f4661739562942cb8464201012c32cc3e5d627dda9591a48e195b2",
    "plots/figure_trimmed.svg": "eec4d2878a1a463875812920d74c883eca92b2b21ca1fc5badb260eb860d43e7",
    "plots/trimmed_curves.csv": "d6658d0b166d9dfa0423db64c0e7048b9526930834a2334268c0b9ce74d9134c",
    "scenario.csv": "8b7601d9fe1509dca507094e830e4fc7ba740221c97af85c4f775e9edaf16846",
}


def test_cli_output_bytes_pinned(tmp_path):
    small = ("--n", "8", "--len", "25")
    simulations = {
        "centered": (),
        "centered_p1": ("--p-obs", "1.0"),
        "intervals": ("--contamination", "partial", "--q", "0.4",
                      "--observe", "intervals", "--m", "2"),
    }
    for tag, flags in simulations.items():
        curves = tmp_path / f"{tag}.csv"
        assert run_cli("simulate", *small, *flags, "--seed", "3", "--out", str(curves)) == 0
        assert run_cli("depth", "--input", str(curves),
                       "--out", str(tmp_path / f"{tag}_depth.csv")) == 0
        assert run_cli("trim", "--input", str(curves),
                       "--out", str(tmp_path / f"{tag}_trim.csv")) == 0
    assert run_cli("run-scenario", *small, "--reps", "2", "--seed", "2",
                   "--out", str(tmp_path / "scenario.csv")) == 0
    assert run_cli("plot-data", *small, "--contamination", "sym", "--q", "0.3",
                   "--seed", "6", "--out-dir", str(tmp_path / "plots")) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert digests == CLI_OUTPUT_SHA256


# Sorted option strings of each subcommand, recorded before the scenario
# flags were each declared once: every subcommand keeps exactly these.
SUBCOMMAND_OPTIONS = {
    "simulate": [
        "--M", "--contamination", "--help", "--len", "--m", "--n",
        "--observe", "--out", "--p-obs", "--q", "--seed", "--theta", "-h",
    ],
    "depth": ["--depth", "--help", "--input", "--out", "--phi", "-h"],
    "trim": ["--alpha", "--depth", "--help", "--input", "--out", "--phi", "-h"],
    "run-scenario": [
        "--M", "--alpha", "--config", "--contamination", "--depth", "--help",
        "--len", "--m", "--n", "--observe", "--out", "--p-obs", "--phi", "--q",
        "--reps", "--seed", "--theta", "-h",
    ],
    "reproduce-tables": [
        "--help", "--jobs", "--len", "--out-dir", "--reps", "--seed", "-h",
    ],
    "plot-data": [
        "--M", "--alpha", "--contamination", "--depth", "--help", "--len", "--m",
        "--n", "--no-svg", "--observe", "--out-dir", "--p-obs", "--phi", "--q",
        "--seed", "--theta", "-h",
    ],
}


def test_subcommand_option_strings_pinned():
    parser = pofda.cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(s for action in p._actions for s in action.option_strings)
        for name, p in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS
