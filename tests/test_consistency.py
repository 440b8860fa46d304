import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from pofda.core import Grid, PartialCurve
from pofda.consistency import (
    _ndtr,
    centered_coverage,
    convergence_probe,
    default_probe_curves,
    population_coverage,
    population_poifd,
)
from pofda.depths import DepthKind
from pofda.simulate import GpModel, ObservationSpec, _draw_mask


class TestCenteredCoverage:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.9])
    def test_matches_monte_carlo(self, p):
        grid = Grid.uniform(41)
        analytic = centered_coverage(grid, p)
        spec = ObservationSpec("centered", p_obs=p)
        rng = default_rng(17)
        draws = 20_000
        acc = np.zeros(grid.size)
        for _ in range(draws):
            acc += _draw_mask(grid.points, spec, rng)
        mc = acc / draws
        se = np.sqrt(np.maximum(analytic * (1 - analytic), 1e-4) / draws)
        assert np.all(np.abs(mc - analytic) < 5 * se + 1e-3)

    def test_shape_properties(self):
        grid = Grid.uniform(101)
        q = centered_coverage(grid, 0.5)
        assert q[0] == 0.0 and q[-1] == 0.0
        mid = np.argmin(np.abs(grid.points - 0.5))
        assert q[mid] == pytest.approx(1.0)
        assert np.all((q >= 0) & (q <= 1))
        np.testing.assert_allclose(q, q[::-1], atol=1e-12)

    def test_full_proportion(self):
        grid = Grid.uniform(11)
        np.testing.assert_array_equal(centered_coverage(grid, 1.0), np.ones(11))


def test_population_coverage_dispatch():
    grid = Grid.uniform(21)
    np.testing.assert_array_equal(
        population_coverage(ObservationSpec("full"), grid), np.ones(21)
    )
    q = population_coverage(
        ObservationSpec("intervals", p_obs=0.5, n_intervals=2), grid, mc_draws=4000
    )
    assert np.all((q >= 0) & (q <= 1))
    # expected mask measure is p_obs up to the rejection band
    assert abs(q.mean() - 0.5) < 0.1


def test_interval_coverage_pinned():
    # Mask counts over 40 draws, recorded from the nested redraw loops the
    # single one replaced: a change to the draw or rejection rule moves them.
    q = population_coverage(
        ObservationSpec("intervals", p_obs=0.4, n_intervals=2),
        Grid.uniform(11),
        mc_draws=40,
        seed=9,
    )
    counts = [19, 14, 14, 18, 13, 13, 13, 13, 13, 22, 23]
    np.testing.assert_array_equal(q, np.array(counts, dtype=float) / 40)


@pytest.mark.parametrize("mc_draws", [0, -1])
def test_population_coverage_needs_a_draw(mc_draws):
    spec = ObservationSpec("intervals", p_obs=0.5, n_intervals=2)
    with pytest.raises(ValueError):
        population_coverage(spec, Grid.uniform(11), mc_draws=mc_draws)


class TestPopulationPoifd:
    def test_trend_curve_is_deepest(self):
        grid = Grid.uniform(51)
        model = GpModel(grid=grid, theta=1.0)
        trend = model.trend_values()
        coverage = np.ones(grid.size)
        probe = PartialCurve.fully_observed(trend)
        assert population_poifd(probe, grid, trend, coverage, kind="fm") == pytest.approx(1.0)
        assert population_poifd(probe, grid, trend, coverage, kind="tukey") == pytest.approx(0.5)
        assert population_poifd(probe, grid, trend, coverage, kind="simplicial") == pytest.approx(0.5)

    def test_far_curve_is_shallow(self):
        grid = Grid.uniform(31)
        trend = 4.0 * grid.points
        coverage = np.ones(grid.size)
        probe = PartialCurve.fully_observed(trend + 50.0)
        assert population_poifd(probe, grid, trend, coverage, kind="tukey") < 1e-12
        assert population_poifd(probe, grid, trend, coverage, kind="fm") == pytest.approx(0.5)


def test_default_probes_are_lipschitz_bounded():
    grid = Grid.uniform(41)
    probes = default_probe_curves(grid)
    assert len(probes) >= 5
    dt = np.diff(grid.points)
    for p in probes:
        slopes = np.abs(np.diff(p.values) / dt)
        assert slopes.max() <= 8.0 + 1e-9
        assert p.is_fully_observed


def test_convergence_probe_decays():
    grid = Grid.uniform(51)
    model = GpModel(grid=grid, theta=1.0)
    probes = default_probe_curves(grid)
    spec = ObservationSpec("centered", p_obs=0.5)
    table = convergence_probe(model, [20, 400], probes, spec, seed=0)
    assert set(table) == {20, 400}
    assert 0.0 <= table[400] <= 1.0
    assert table[400] < table[20]


def test_convergence_probe_order_independent():
    grid = Grid.uniform(31)
    model = GpModel(grid=grid, theta=1.0)
    probes = default_probe_curves(grid)[:4]
    spec = ObservationSpec("centered", p_obs=0.5)
    a = convergence_probe(model, [30, 60], probes, spec, seed=5)
    b = convergence_probe(model, [60, 30], probes, spec, seed=5)
    assert a == b


def _ndtr_edges() -> np.ndarray:
    """Inputs at and around each branch edge of cephes' ndtr, both signs.

    x = a / sqrt(2) switches from erf to erfc at |x| = 1/sqrt(2), from
    erfc's 1 - erf to P/Q at 1 and to R/S at 8; exp(-x^2) turns
    subnormal and then hits the underflow cut (x^2 > log(DBL_MAX)) for
    |a| in about [37.64, 37.68]. The rest are signed zeros, subnormals,
    the largest double, infinities and NaNs.
    """
    cuts = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 1 / np.sqrt(2.0), 8.0])
    ulps = [cuts]
    up = down = cuts
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        ulps += [up, down]
    special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0e-8,
               np.finfo(float).max, np.inf, np.nan]
    # A signaling NaN and a quiet one with a payload: cephes returns NaN
    # before any arithmetic could raise the invalid flag.
    nans = np.array([0x7FF0000000000001, 0x7FF8000000000123], dtype=np.uint64).view(float)
    a = np.concatenate(ulps + [np.linspace(37.6, 37.72, 4001), special, nans])
    return np.concatenate((a, -a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNdtr:
    """_ndtr is scipy.special.ndtr, bit for bit: the oracle it ports.

    C silently overflows and underflows where numpy would warn, so a
    RuntimeWarning is a failure here whatever the suite's settings.
    """

    @staticmethod
    def assert_scipy_bits(a):
        special = pytest.importorskip("scipy.special")
        a = np.asarray(a, dtype=float)
        np.testing.assert_array_equal(
            _ndtr(a).view(np.uint64), special.ndtr(a).view(np.uint64)
        )

    def test_branch_edges(self):
        a = _ndtr_edges()
        self.assert_scipy_bits(a)
        y = _ndtr(a)
        assert np.array_equal(y[a == np.inf], [1.0]) and np.array_equal(y[a == -np.inf], [0.0])
        # Past the underflow cut the tail is exactly 0, never a subnormal.
        assert np.all(y[(a < -37.7) & np.isfinite(a)] == 0.0)
        assert np.any((y > 0.0) & (y < 2.2250738585072014e-308))

    # Any double, and the range where the CDF is neither 0 nor 1.
    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(-40.0, 40.0),
    ), max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_matches_scipy(self, values):
        self.assert_scipy_bits(values)


def test_population_poifd_pinned():
    # sha256 of the float64 depths (DepthKind order, then probe order),
    # recorded with scipy.special.ndtr as the CDF. The +-40 probes reach
    # ndtr's underflow branch at every grid point.
    grid = Grid.uniform(101)
    trend = 4.0 * grid.points
    coverage = centered_coverage(grid, 0.5)
    far = [PartialCurve.fully_observed(trend + offset) for offset in (40.0, -40.0)]
    probes = default_probe_curves(grid) + far
    depths = np.array(
        [[population_poifd(x, grid, trend, coverage, kind) for x in probes] for kind in DepthKind]
    )
    assert hashlib.sha256(depths.tobytes()).hexdigest() == (
        "7ca6fa4dbc60c1cc9c1103d73d8cd46036ee8c9154ac17f6f9e079efac1b4145"
    )
