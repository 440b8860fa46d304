import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from pofda import consistency
from pofda.core import FunctionalSample, Grid, PartialCurve
from pofda.consistency import (
    _ndtr,
    centered_coverage,
    convergence_probe,
    default_probe_curves,
    population_coverage,
    population_poifd,
)
from pofda.depths import DepthKind
from pofda.poifd import poifd_of
from pofda.simulate import GpModel, ObservationSpec, observe, sample_gp

from conftest import draw_mask_reference, numpy_streams


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
            acc += draw_mask_reference(grid.points, spec, rng)
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

    @pytest.mark.parametrize(
        "p, match",
        [
            pytest.param(p, match, id=str(p))
            for ps, match in [
                ((-0.2, 0.0, 1.5, np.nan, np.inf), r"p_obs must lie in \(0, 1\]"),
                ((True, "0.5"), "p_obs must be a real number"),
            ]
            for p in ps
        ],
    )
    def test_rejects_p_obs_outside_unit_interval(self, p, match):
        # as ObservationSpec does: no all-ones, zeros, NaN or 0-division,
        # and no bool or string
        with pytest.raises(ValueError, match=match):
            centered_coverage(Grid.uniform(11), p)


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
    # Mask counts over 40 draws, recorded from the one-stream reference
    # draw_mask_reference over numpy's 40 spawned children of seed 9, one
    # Generator per draw: a change to the draw or rejection rule moves them.
    q = population_coverage(
        ObservationSpec("intervals", p_obs=0.4, n_intervals=2),
        Grid.uniform(11),
        mc_draws=40,
        seed=9,
    )
    counts = [17, 21, 17, 12, 13, 10, 9, 15, 17, 24, 23]
    np.testing.assert_array_equal(q, np.array(counts, dtype=float) / 40)


@given(
    seed=st.integers(0, 2**64),
    mc_draws=st.integers(1, 8),
    T=st.integers(3, 30),
    p_obs=st.sampled_from([0.05, 0.2, 0.3, 0.5, 0.8, 1.0]),
    n_intervals=st.integers(1, 3),
)
# numpy's tail-shuffle choice: 1000 slots out of 19001, drawn per attempt.
@example(seed=6, mc_draws=3, T=21, p_obs=0.05, n_intervals=1000)
@settings(max_examples=60, deadline=None)
def test_interval_coverage_is_observe_coverage(seed, mc_draws, T, p_obs, n_intervals):
    # Draw d reads child d's stream: the coverage of observe on mc_draws
    # fully observed curves, and the mean of the one-stream reference.
    try:
        spec = ObservationSpec("intervals", p_obs=p_obs, n_intervals=n_intervals)
    except ValueError:
        assume(False)
    grid = Grid.uniform(T)
    q = population_coverage(spec, grid, mc_draws=mc_draws, seed=seed)
    curves = FunctionalSample(grid, np.zeros((mc_draws, T)), np.ones((mc_draws, T), dtype=bool))
    np.testing.assert_array_equal(q, observe(grid, curves, spec, seed).coverage)
    masks = [draw_mask_reference(grid.points, spec, g) for g in numpy_streams(seed, mc_draws)]
    np.testing.assert_array_equal(q, np.sum(masks, axis=0) / mc_draws)


@pytest.mark.parametrize("mc_draws", [0, -1, 2.5, True])
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

    @pytest.mark.parametrize(
        "curve_len, trend_len, coverage_len", [(51, 51, 51), (101, 50, 101), (101, 101, 100)]
    )
    def test_rejects_lengths_off_the_grid(self, curve_len, trend_len, coverage_len):
        probe = PartialCurve.fully_observed(np.zeros(curve_len))
        with pytest.raises(ValueError, match="grid point"):
            population_poifd(probe, Grid.uniform(101), np.zeros(trend_len), np.ones(coverage_len))

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


@pytest.mark.parametrize("sizes", [[50.7], [True], ["20"], [20, 0], [20, -3]])
def test_convergence_probe_checks_sizes_before_drawing(sizes, monkeypatch):
    grid = Grid.uniform(21)
    draws = []
    monkeypatch.setattr(consistency, "_gp_values", lambda *args: draws.append(args))
    spec = ObservationSpec("centered", p_obs=0.5)
    with pytest.raises(ValueError, match="sizes"):
        convergence_probe(GpModel(grid=grid, theta=1.0), sizes, default_probe_curves(grid), spec, seed=0)
    assert draws == []


@pytest.mark.parametrize("seed", [True, None, 1.5, "a"])
def test_convergence_probe_checks_seed_before_drawing(seed, monkeypatch):
    grid = Grid.uniform(21)
    draws = []
    monkeypatch.setattr(consistency, "_gp_values", lambda *args: draws.append(args))
    spec = ObservationSpec("intervals", p_obs=0.5, n_intervals=2)
    with pytest.raises(ValueError, match="seed must be an integer"):
        convergence_probe(GpModel(grid=grid, theta=1.0), [20], default_probe_curves(grid), spec, seed)
    assert draws == []


def test_interval_coverage_requires_a_seed():
    # a None seed would give a different Monte Carlo coverage on every call
    spec = ObservationSpec("intervals", p_obs=0.5, n_intervals=2)
    with pytest.raises(ValueError, match="seed must be"):
        population_coverage(spec, Grid.uniform(11), mc_draws=50, seed=None)


@pytest.mark.parametrize(
    "probes, match",
    [
        ([], "probes is empty"),
        (iter([]), "probes is empty"),
        ([PartialCurve.fully_observed(np.zeros(20))], "one value per grid point"),
    ],
)
def test_convergence_probe_checks_probes_before_drawing(probes, match, monkeypatch):
    grid = Grid.uniform(21)
    draws = []
    monkeypatch.setattr(consistency, "_gp_values", lambda *args: draws.append(args))
    spec = ObservationSpec("centered", p_obs=0.5)
    with pytest.raises(ValueError, match=match):
        convergence_probe(GpModel(grid=grid, theta=1.0), [20], probes, spec, seed=0)
    assert draws == []


def test_convergence_probe_draws_each_distinct_size_once(monkeypatch):
    grid = Grid.uniform(31)
    model = GpModel(grid=grid, theta=1.0)
    probes = default_probe_curves(grid)[:3]
    spec = ObservationSpec("centered", p_obs=0.5)
    expected = convergence_probe(model, [30, 45], probes, spec, seed=4)
    draws = []
    gp_values = consistency._gp_values

    def counted(model, n, seed):
        draws.append(n)
        return gp_values(model, n, seed)

    monkeypatch.setattr(consistency, "_gp_values", counted)
    table = convergence_probe(model, [30, 45, 30, np.int64(45), 30], probes, spec, seed=4)
    assert draws == [30, 45]
    assert table == expected and list(table) == [30, 45]


def test_convergence_probe_accepts_a_generator_of_probes():
    grid = Grid.uniform(31)
    model = GpModel(grid=grid, theta=1.0)
    probes = default_probe_curves(grid)[:3]
    spec = ObservationSpec("centered", p_obs=0.5)
    expected = convergence_probe(model, [30], probes, spec, seed=2)
    assert convergence_probe(model, [30], iter(probes), spec, seed=2) == expected


def test_convergence_probe_interval_masks():
    grid = Grid.uniform(51)
    model = GpModel(grid=grid, theta=1.0)
    probes = default_probe_curves(grid)[:4]
    spec = ObservationSpec("intervals", p_obs=0.5, n_intervals=2)
    table = convergence_probe(model, [20, 80], probes, spec, seed=3)
    assert list(table) == [20, 80]
    assert all(0.0 <= v <= 1.0 for v in table.values())
    assert convergence_probe(model, [80, 20], probes, spec, seed=3) == table


@pytest.mark.parametrize(
    "spec",
    [ObservationSpec("centered", p_obs=0.5), ObservationSpec("intervals", p_obs=0.5, n_intervals=2)],
)
def test_convergence_probe_samples_are_observe_of_sample_gp(spec):
    # The probe draws into one matrix; its table is that of the chained stages.
    grid = Grid.uniform(41)
    model = GpModel(grid=grid, theta=1.0)
    probes = default_probe_curves(grid)[:4]
    coverage = population_coverage(spec, grid, seed=7)
    trend = model.trend_values()
    pop = np.array([population_poifd(x, grid, trend, coverage) for x in probes])
    expected = {}
    for n in (25, 60):
        sample = observe(grid, sample_gp(model, n, (7, n, 0)), spec, (7, n, 1))
        emp = np.array([poifd_of(sample, x) for x in probes])
        expected[n] = float(np.max(np.abs(emp - pop)))
    assert convergence_probe(model, [25, 60], probes, spec, seed=7) == expected


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
