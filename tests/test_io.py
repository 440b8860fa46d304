import numpy as np
import pytest

from pofda.core import Grid, PartialCurve, build_sample
from pofda.io import (
    read_curves_csv,
    write_coverage_csv,
    write_curves_csv,
    write_depth_csv,
    write_estimate_csv,
)
from pofda.trimming import LocationEstimate

from conftest import random_masked_sample, read_csv


def test_curve_roundtrip_exact(tmp_path, rng):
    s = random_masked_sample(rng, 5, 9)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, s)
    back, names = read_curves_csv(path)
    assert names == [f"curve_{i}" for i in range(1, 6)]
    np.testing.assert_array_equal(back.grid.points, s.grid.points)
    np.testing.assert_array_equal(back.mask, s.mask)
    np.testing.assert_array_equal(back.values[back.mask], s.values[s.mask])


def test_curve_roundtrip_extreme_values(tmp_path):
    grid = Grid(np.array([0.0, 1 / 3, 1.0]))
    vals = np.array([1e-17, -123456.7891234567, 3.0000000000000004])
    s = build_sample(grid, [PartialCurve.fully_observed(vals)])
    path = tmp_path / "c.csv"
    write_curves_csv(path, s)
    back, _ = read_curves_csv(path)
    np.testing.assert_array_equal(back.values[0], vals)
    np.testing.assert_array_equal(back.grid.points, grid.points)


def test_missing_cells_empty(tmp_path):
    grid = Grid.uniform(3)
    c = PartialCurve(np.array([1.0, 0.0, 2.0]), np.array([True, False, True]))
    path = tmp_path / "c.csv"
    write_curves_csv(path, build_sample(grid, [c]))
    header, rows = read_csv(path)
    assert header == ["t", "curve_1"]
    assert rows[1][1] == ""


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,curve_1\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_curves_csv(path)


def test_read_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,curve_1\n0.0,1.0,9.9\n")
    with pytest.raises(ValueError):
        read_curves_csv(path)


def test_writers_reject_wrong_name_count(tmp_path, rng):
    s = random_masked_sample(rng, 4, 5)
    path = tmp_path / "curves.csv"
    with pytest.raises(ValueError, match="one name per curve"):
        write_curves_csv(path, s, names=["a"])
    write_curves_csv(path, s, names=list("abcd"))
    assert read_csv(path)[0] == ["t", "a", "b", "c", "d"]


def test_coverage_csv(tmp_path, rng):
    s = random_masked_sample(rng, 4, 5)
    path = tmp_path / "q.csv"
    write_coverage_csv(path, s)
    header, rows = read_csv(path)
    assert header == ["t", "q_n"]
    np.testing.assert_array_equal(
        np.array([float(r[1]) for r in rows]), s.coverage
    )


def test_depth_csv_sorted_descending(tmp_path):
    path = tmp_path / "d.csv"
    write_depth_csv(path, ["curve_1", "curve_2", "curve_3"], [0.2, 0.9, 0.5])
    header, rows = read_csv(path)
    assert header == ["curve_id", "poifd"]
    assert [r[0] for r in rows] == ["curve_2", "curve_3", "curve_1"]
    depths = [float(r[1]) for r in rows]
    assert depths == sorted(depths, reverse=True)


def test_estimate_csv(tmp_path):
    grid = Grid.uniform(3)
    est = LocationEstimate(
        np.array([1.0, np.nan, 3.0]),
        np.array([True, False, True]),
        np.array([False, False, True]),
    )
    path = tmp_path / "e.csv"
    write_estimate_csv(path, grid, est)
    header, rows = read_csv(path)
    assert header == ["t", "estimate", "defined", "fallback"]
    assert rows[0][1:] == ["1.0", "1", "0"]
    assert rows[1][1:] == ["", "0", "0"]
    assert rows[2][1:] == ["3.0", "1", "1"]
