"""CSV formats for curves, coverage, depths, and location estimates.

Curve files carry the grid in a `t` column and one column per curve;
unobserved entries are empty cells. Floats are written with shortest
round-trip precision, so read(write(sample)) reproduces the sample
exactly for finite values.
"""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

from .core import FunctionalSample, Grid
from .trimming import LocationEstimate

__all__ = [
    "curve_names",
    "write_curves_csv",
    "read_curves_csv",
    "write_coverage_csv",
    "write_depth_csv",
    "write_estimate_csv",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def curve_names(n: int) -> list[str]:
    return [f"curve_{i + 1}" for i in range(n)]


def _column_names(sample: FunctionalSample, names: Sequence[str] | None) -> list[str]:
    """The given column names, one per curve, or curve_1 .. curve_n."""
    names = list(names) if names is not None else curve_names(sample.n_curves)
    if len(names) != sample.n_curves:
        raise ValueError("one name per curve required")
    return names


def _open_writer(path):
    handle = open(path, "w", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


def _flags(mask) -> list[str]:
    return ["1" if m else "0" for m in mask]


def _observed(values, mask) -> list[str]:
    """Shortest round-trip floats, empty cells where the mask is False."""
    return [_fmt(v) if m else "" for v, m in zip(values, mask)]


def _write_by_point(path, header: Sequence[str], grid: Grid, columns) -> None:
    """Write the header, then per grid point `t` and that point's cell of each column."""
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(header)
        for t, *cells in zip(grid.points, *columns, strict=True):
            writer.writerow([_fmt(t), *cells])


def write_curves_csv(
    path, sample: FunctionalSample, names: Sequence[str] | None = None
) -> None:
    """Write `t,curve_1,...` rows with empty cells at unobserved points."""
    names = _column_names(sample, names)
    columns = [_observed(v, m) for v, m in zip(sample.values, sample.mask)]
    _write_by_point(path, ["t", *names], sample.grid, columns)


def read_curves_csv(path) -> tuple[FunctionalSample, list[str]]:
    """Parse a curve CSV back into a sample plus the curve column names."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "t" or len(header) < 2:
            raise ValueError(f"{path}: expected header 't,curve_1,...'")
        names = header[1:]
        ts: list[float] = []
        cols: list[list[float]] = [[] for _ in names]
        masks: list[list[bool]] = [[] for _ in names]
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: ragged row with {len(row)} cells")
            ts.append(float(row[0]))
            for j, cell in enumerate(row[1:]):
                observed = cell.strip() != ""
                masks[j].append(observed)
                cols[j].append(float(cell) if observed else np.nan)
    return FunctionalSample._adopt(Grid(np.array(ts)), np.array(cols), np.array(masks)), names


def write_coverage_csv(path, sample: FunctionalSample) -> None:
    """Write per-point coverage `t,q_n`."""
    coverage = [_fmt(q) for q in sample.coverage]
    _write_by_point(path, ["t", "q_n"], sample.grid, [coverage])


def write_depth_csv(path, names: Sequence[str], depths) -> None:
    """Write `curve_id,poifd` sorted by depth descending (stable in input order)."""
    depths = np.asarray(depths, dtype=float)
    if len(names) != depths.size:
        raise ValueError("one name per depth required")
    order = np.argsort(-depths, kind="stable")
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["curve_id", "poifd"])
        for i in order:
            writer.writerow([names[i], _fmt(depths[i])])


def write_estimate_csv(path, grid: Grid, estimate: LocationEstimate) -> None:
    """Write `t,estimate,defined,fallback`; undefined points get empty cells."""
    columns = [
        _observed(estimate.values, estimate.defined_mask),
        _flags(estimate.defined_mask),
        _flags(estimate.fallback_mask),
    ]
    _write_by_point(path, ["t", "estimate", "defined", "fallback"], grid, columns)
