import xml.etree.ElementTree as ET

import numpy as np

from pofda.core import Grid
from pofda.harness import ScenarioConfig, run_replication
from pofda.io import read_curves_csv
from pofda.plots import plot_data, render_sample_svg
from pofda.simulate import GpModel
from pofda.trimming import resolved_keep_count

from conftest import random_masked_sample, read_csv


def test_plot_data_files(tmp_path):
    config = ScenarioConfig(
        grid_len=40, n_curves=12, magnitude=25.0, alpha=0.3,
        contamination="sym", p_obs=0.5, seed=3,
    )
    paths = plot_data(config, tmp_path)
    full, names = read_curves_csv(paths["curves"])
    trimmed, kept_names = read_curves_csv(paths["trimmed_curves"])
    assert full.n_curves == 12
    assert trimmed.n_curves == resolved_keep_count(12, 0.3)
    assert set(kept_names) <= set(names)

    header, rows = read_csv(paths["coverage"])
    assert header == ["t", "q_n"]
    q = np.array([float(r[1]) for r in rows])
    assert np.all((q >= 0.0) & (q <= 1.0))
    np.testing.assert_array_equal(q, full.coverage)

    assert paths["figure_full"].read_text().startswith("<svg")
    assert paths["figure_trimmed"].exists()


def test_plot_data_no_svg(tmp_path):
    config = ScenarioConfig(grid_len=25, n_curves=6, contamination="none", seed=1)
    paths = plot_data(config, tmp_path, svg=False)
    assert "figure_full" not in paths
    assert paths["curves"].exists()


def test_contaminated_curves_absent_from_trimmed_output(tmp_path):
    # Curves deviating by more than half the contamination magnitude at
    # a majority of their observed points must be trimmed away in at
    # least 9 of 10 seeded runs.
    clean_runs = 0
    for seed in range(10):
        config = ScenarioConfig(
            grid_len=80, n_curves=30, magnitude=25.0, q=0.1, alpha=0.3,
            contamination="sym", p_obs=0.5, seed=seed,
        )
        paths = plot_data(config, tmp_path / str(seed), svg=False)
        full, names = read_curves_csv(paths["curves"])
        _, kept_names = read_curves_csv(paths["trimmed_curves"])
        truth = GpModel(grid=Grid.uniform(80), theta=30.0).trend_values()
        dev = np.abs(np.where(full.mask, full.values - truth[None, :], 0.0))
        frac_big = (dev > 12.5).sum(axis=1) / full.mask.sum(axis=1)
        flagged = {names[i] for i in np.nonzero(frac_big > 0.5)[0]}
        if not (flagged & set(kept_names)):
            clean_runs += 1
    assert clean_runs >= 9


def test_render_svg_handles_masked_runs(tmp_path, rng):
    sample = random_masked_sample(rng, 5, 20)
    out = tmp_path / "fig.svg"
    render_sample_svg(out, sample, title="masked")
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "polyline" in text


def test_render_svg_escapes_title(tmp_path, rng):
    out = tmp_path / "fig.svg"
    render_sample_svg(out, random_masked_sample(rng, 3, 10), title="q < 0.1 & M = 25")
    title = ET.parse(out).getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == "q < 0.1 & M = 25"
