"""Plot data export: curve panels plus coverage, before and after trimming.

Writes the CSV contract (all partial curves, per-point coverage, the
retained subset) and a dependency-free SVG rendering with an upper
curve panel and a lower coverage panel.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

import numpy as np

from .core import FunctionalSample
from .harness import ScenarioConfig, run_replication
from .io import curve_names, write_coverage_csv, write_curves_csv

__all__ = ["plot_data", "render_sample_svg"]

_W, _H = 720.0, 520.0
_PANEL_H = 300.0
_COV_H = 130.0
_MARGIN = 40.0


def _x_pixel(t: np.ndarray) -> np.ndarray:
    return _MARGIN + t * (_W - 2 * _MARGIN)


def _polylines(points_x, points_y, mask) -> list[str]:
    """Split one masked curve into contiguous observed runs."""
    runs = []
    current: list[str] = []
    for x, y, ok in zip(points_x, points_y, mask):
        if ok:
            current.append(f"{x:.2f},{y:.2f}")
        elif current:
            runs.append(" ".join(current))
            current = []
    if current:
        runs.append(" ".join(current))
    return runs


def render_sample_svg(path, sample: FunctionalSample, title: str = "") -> None:
    """Two stacked panels: observed curve segments above, coverage below."""
    t = sample.grid.points
    finite = sample.values[sample.mask]
    lo = float(finite.min())
    hi = float(finite.max())
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def y_pixel(v):
        return _MARGIN + (hi - v) / (hi - lo) * (_PANEL_H - _MARGIN)

    cov_top = _PANEL_H + 40.0

    def cov_pixel(qv):
        return cov_top + (1.0 - qv) * _COV_H

    xs = _x_pixel(t)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}">',
        f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_MARGIN}" y="20" font-size="14">{escape(title)}</text>')
    for i in range(sample.n_curves):
        ys = np.where(sample.mask[i], sample.values[i], 0.0)
        for run in _polylines(xs, y_pixel(ys), sample.mask[i]):
            parts.append(
                f'<polyline points="{run}" fill="none" stroke="steelblue" '
                'stroke-width="0.8" opacity="0.6"/>'
            )
    cov_run = " ".join(
        f"{x:.2f},{cov_pixel(q):.2f}" for x, q in zip(xs, sample.coverage)
    )
    parts.append(
        f'<polyline points="{cov_run}" fill="none" stroke="firebrick" stroke-width="1.5"/>'
    )
    for label, ypix in (("1", cov_pixel(1.0)), ("0", cov_pixel(0.0))):
        parts.append(f'<text x="8" y="{ypix:.2f}" font-size="10">q_n={label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def plot_data(config: ScenarioConfig, out_dir, svg: bool = True) -> dict[str, Path]:
    """Materialize one replication's plot data under `out_dir`.

    Emits curves.csv (all partial curves), coverage.csv (q_n per point),
    and trimmed_curves.csv (the retained subset, keeping the original
    curve ids), plus optional SVG panels for both states.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sample, trim = run_replication(config, scenario_index=0, rep_index=0)

    names = curve_names(sample.n_curves)
    kept_names = [names[i] for i in trim.kept]
    kept_sample = FunctionalSample._adopt(
        sample.grid, sample.values[trim.kept], sample.mask[trim.kept]
    )

    paths = {
        "curves": out_dir / "curves.csv",
        "coverage": out_dir / "coverage.csv",
        "trimmed_curves": out_dir / "trimmed_curves.csv",
    }
    write_curves_csv(paths["curves"], sample, names)
    write_coverage_csv(paths["coverage"], sample)
    write_curves_csv(paths["trimmed_curves"], kept_sample, kept_names)
    if svg:
        paths["figure_full"] = out_dir / "figure_full.svg"
        paths["figure_trimmed"] = out_dir / "figure_trimmed.svg"
        render_sample_svg(paths["figure_full"], sample, title="all curves")
        render_sample_svg(paths["figure_trimmed"], kept_sample, title="after trimming")
    return paths
