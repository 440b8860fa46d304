from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pofda import poifd
from pofda.core import Grid, PartialCurve, build_sample, ecdf_at
from pofda.depths import DepthKind, depth_from_counts, pointwise_depth
from pofda.poifd import (
    ifd,
    k_functional,
    poifd_all,
    poifd_of,
    poifd_sample,
    pointwise_depth_field,
    resolve_phi,
)

from conftest import constant_sample, random_masked_sample

ALL_KINDS = list(DepthKind)


class TestIfd:
    def test_three_constant_curves_fm(self):
        s = constant_sample([1.0, 2.0, 3.0])
        assert ifd(s, s.curves[1], kind="fm") == pytest.approx(5 / 6, abs=1e-15)

    def test_uniform_two_point_grid_averages_depths(self):
        grid = Grid(np.array([0.0, 1.0]))
        curves = [
            PartialCurve.fully_observed([1.0, 2.0]),
            PartialCurve.fully_observed([2.0, 1.0]),
            PartialCurve.fully_observed([3.0, 3.0]),
        ]
        s = build_sample(grid, curves)
        for kind in ALL_KINDS:
            d0 = pointwise_depth(ecdf_at(s, 0), 1.0, kind)
            d1 = pointwise_depth(ecdf_at(s, 1), 2.0, kind)
            assert ifd(s, curves[0], kind=kind) == pytest.approx((d0 + d1) / 2, abs=1e-15)

    def test_constant_depth_field_returns_it(self):
        # identical curves: the pointwise depth is the same at every t,
        # so any normalized weighting returns that constant
        grid = Grid.uniform(4)
        curves = [PartialCurve.fully_observed(np.ones(4)) for _ in range(3)]
        s = build_sample(grid, curves)
        d = pointwise_depth(ecdf_at(s, 0), 1.0, "tukey")
        assert ifd(s, curves[0], kind="tukey") == pytest.approx(d, abs=1e-15)
        assert ifd(s, curves[0], kind="tukey", w="trapezoid") == pytest.approx(d, abs=1e-15)

    def test_rejects_partial_inputs(self):
        grid = Grid.uniform(3)
        partial = PartialCurve(np.array([1.0, 0.0, 2.0]), np.array([True, False, True]))
        full = PartialCurve.fully_observed([1.0, 1.0, 1.0])
        s_partial = build_sample(grid, [partial, full])
        s_full = build_sample(grid, [full, full])
        with pytest.raises(ValueError):
            ifd(s_partial, full)
        with pytest.raises(ValueError):
            ifd(s_full, partial)

    def test_rejects_bad_weight_vector(self):
        s = constant_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            ifd(s, s.curves[0], w=np.array([0.9, 0.9, 0.9]))


class TestPoifd:
    def test_constant_curves_fm_value(self):
        s = constant_sample([1.0, 2.0, 3.0])
        assert poifd_sample(s, 1, kind="fm", phi="identity") == pytest.approx(
            5 / 6, abs=1e-15
        )

    def test_constant_curves_depth_order(self):
        # strict center under tukey and simplicial; FM ties the lower
        # neighbor of the median because its ECDF distance to 1/2 is equal
        s = constant_sample([1.0, 2.0, 3.0])
        for kind in ("tukey", "simplicial"):
            d = poifd_all(s, kind=kind).poifd
            assert d[1] > d[0] and d[1] > d[2]
        d = poifd_all(s, kind="fm").poifd
        assert d[0] == d[1] > d[2]
        np.testing.assert_allclose(d, [5 / 6, 5 / 6, 0.5], atol=1e-15)

    def test_full_observation_reduces_to_ifd(self, rng):
        s = random_masked_sample(rng, 8, 11, p_missing=0.0)
        for kind in ALL_KINDS:
            for phi in ("identity", lambda q: 0.25 + 0.5 * q**2):
                res = poifd_all(s, kind=kind, phi=phi)
                for i in range(s.n_curves):
                    assert abs(res.poifd[i] - ifd(s, s.curves[i], kind=kind)) <= 1e-12

    def test_identical_curves_equal_depths(self):
        s = constant_sample([2.0] * 6, grid_size=5)
        d = poifd_all(s).poifd
        assert np.all(d == d[0])

    def test_permutation_equivariance(self, rng):
        s = random_masked_sample(rng, 7, 9)
        perm = rng.permutation(7)
        s_perm = build_sample(s.grid, [s.curves[i] for i in perm])
        for kind in ALL_KINDS:
            d = poifd_all(s, kind=kind).poifd
            d_perm = poifd_all(s_perm, kind=kind).poifd
            np.testing.assert_allclose(d_perm, d[perm], atol=1e-15)

    def test_single_point_curve_equals_pointwise_depth(self):
        grid = Grid.uniform(3)
        curves = [
            PartialCurve.fully_observed([1.0, 5.0, 1.0]),
            PartialCurve.fully_observed([2.0, 6.0, 2.0]),
            PartialCurve(np.array([0.0, 5.5, 0.0]), np.array([False, True, False])),
        ]
        s = build_sample(grid, curves)
        for kind in ALL_KINDS:
            expected = pointwise_depth(ecdf_at(s, 1), 5.5, kind)
            assert poifd_sample(s, 2, kind=kind) == pytest.approx(expected, abs=1e-15)

    def test_weights_normalized_and_recheckable(self, rng):
        s = random_masked_sample(rng, 9, 12)
        res = poifd_all(s, kind="fm")
        sums = np.nansum(res.weights, axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        recomputed = np.nansum(res.weights * res.contributions, axis=1)
        np.testing.assert_allclose(recomputed, res.poifd, atol=1e-12)
        assert np.isnan(res.weights[~s.mask]).all()
        assert np.isnan(res.contributions[~s.mask]).all()

    def test_range_zero_one(self, rng):
        # tukey and fm always land in [0, 1]; the plug-in simplicial
        # formula can exceed 1 on tied values, so use tie-free data
        for _ in range(5):
            s = random_masked_sample(rng, 6, 8)
            for kind in ALL_KINDS:
                d = poifd_all(s, kind=kind).poifd
                assert np.all((d >= 0.0) & (d <= 1.0))

    def test_monotone_transform_invariance(self, rng):
        grid = Grid.uniform(6)
        curves = []
        for _ in range(5):
            mask = rng.random(6) > 0.3
            if not mask.any():
                mask[0] = True
            vals = rng.integers(-50, 50, size=6).astype(float)
            curves.append(PartialCurve(vals, mask))
        s = build_sample(grid, curves)
        transformed = build_sample(
            grid, [PartialCurve(c.values**3, c.mask) for c in curves]
        )
        for kind in ALL_KINDS:
            np.testing.assert_array_equal(
                poifd_all(s, kind=kind).poifd, poifd_all(transformed, kind=kind).poifd
            )

    def test_poifd_sample_matches_poifd_all(self, rng):
        s = random_masked_sample(rng, 6, 10)
        res = poifd_all(s, kind="tukey")
        for i in range(s.n_curves):
            assert poifd_sample(s, i, kind="tukey") == pytest.approx(
                res.poifd[i], abs=1e-12
            )

    def test_degenerate_phi_raises(self):
        s = constant_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            poifd_all(s, phi=lambda q: np.zeros_like(q))

    def test_negative_phi_rejected(self):
        s = constant_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            poifd_all(s, phi=lambda q: q - 1.0)

    def test_unknown_phi_name(self):
        with pytest.raises(ValueError):
            resolve_phi("nope")

    def test_trapezoid_weighting_runs(self, rng):
        s = random_masked_sample(rng, 5, 9)
        d = poifd_all(s, weighting="trapezoid").poifd
        assert np.all((d >= 0.0) & (d <= 1.0))
        with pytest.raises(ValueError):
            poifd_all(s, weighting="simpson")

    def test_poifd_of_skips_zero_coverage_points(self):
        grid = Grid.uniform(4)
        # nobody observes point 3
        curves = [
            PartialCurve(np.array([1.0, 2.0, 1.0, 0.0]), np.array([True, True, True, False])),
            PartialCurve(np.array([2.0, 3.0, 2.0, 0.0]), np.array([True, True, True, False])),
        ]
        s = build_sample(grid, curves)
        probe_full = PartialCurve.fully_observed([1.5, 2.5, 1.5, 9.0])
        probe_restricted = PartialCurve(
            np.array([1.5, 2.5, 1.5, 0.0]), np.array([True, True, True, False])
        )
        assert poifd_of(s, probe_full) == poifd_of(s, probe_restricted)

    def test_poifd_of_errors_when_nothing_usable(self):
        grid = Grid.uniform(3)
        curves = [
            PartialCurve(np.array([1.0, 0.0, 0.0]), np.array([True, False, False]))
        ]
        s = build_sample(grid, curves)
        probe = PartialCurve(np.array([0.0, 0.0, 5.0]), np.array([False, False, True]))
        with pytest.raises(ValueError):
            poifd_of(s, probe)


class TestKFunctional:
    def test_constant_curves_uniform_weights(self):
        s = constant_sample([1.0, 2.0, 3.0])
        assert k_functional(s, s.curves[1], w="uniform") == pytest.approx(
            2 / 3, abs=1e-15
        )

    def test_curve_above_all(self):
        s = constant_sample([1.0, 2.0, 3.0])
        high = PartialCurve.fully_observed([9.0, 9.0, 9.0])
        assert k_functional(s, high, w="uniform") == 1.0
        assert k_functional(s, high, phi="identity") == 1.0

    def test_curve_below_all(self):
        s = constant_sample([1.0, 2.0, 3.0])
        low = PartialCurve.fully_observed([-9.0, -9.0, -9.0])
        assert k_functional(s, low, w="uniform") == 0.0

    def test_rejects_both_modes(self):
        s = constant_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            k_functional(s, s.curves[0], w="uniform", phi="identity")

    def test_fixed_weights_restricted_to_observed(self):
        grid = Grid.uniform(4)
        curves = [
            PartialCurve.fully_observed([1.0, 1.0, 1.0, 1.0]),
            PartialCurve.fully_observed([2.0, 2.0, 2.0, 2.0]),
        ]
        s = build_sample(grid, curves)
        probe = PartialCurve(
            np.array([1.5, 0.0, 0.0, 1.5]), np.array([True, False, False, True])
        )
        # F = 1/2 at both observed points regardless of renormalization
        assert k_functional(s, probe, w="uniform") == pytest.approx(0.5, abs=1e-15)


def _column_counts(sample, ell, x):
    """(#<= x, #< x, k) at one grid point by sorting its observed values."""
    sorted_vals = np.sort(sample.values[sample.mask[:, ell], ell])
    return (
        np.searchsorted(sorted_vals, x, side="right"),
        np.searchsorted(sorted_vals, x, side="left"),
        sorted_vals.size,
    )


def _field_reference(sample, kind):
    """Depth field by one sort per grid column."""
    out = np.full(sample.values.shape, np.nan)
    for ell in range(sample.grid.size):
        col = sample.mask[:, ell]
        if col.any():
            out[col, ell] = depth_from_counts(
                kind, *_column_counts(sample, ell, sample.values[col, ell])
            )
    return out


def _query_reference(sample, curve, kind):
    """Usable points of a query curve with its depths and ECDF heights there."""
    points = np.nonzero(curve.mask & (sample.counts > 0))[0]
    depth = np.empty(points.size)
    F = np.empty(points.size)
    for j, ell in enumerate(points):
        c_le, c_lt, k = _column_counts(sample, ell, curve.values[ell])
        depth[j] = depth_from_counts(kind, c_le, c_lt, k)
        F[j] = c_le / k
    return points, depth, F


def _check_against_reference(sample, query):
    full = build_sample(
        sample.grid, [PartialCurve.fully_observed(np.nan_to_num(c.values)) for c in sample.curves]
    )
    full_query = PartialCurve.fully_observed(np.nan_to_num(query.values))
    for kind in ALL_KINDS:
        field = pointwise_depth_field(sample, kind)
        assert field.tobytes() == _field_reference(sample, kind).tobytes()

        points, depth, F = _query_reference(sample, query, kind)
        cov = sample.coverage[points]
        assert poifd_of(sample, query, kind) == float((depth * cov).sum() / cov.sum())
        if kind is DepthKind.FRAIMAN_MUNIZ:
            assert k_functional(sample, query) == float((F * cov).sum() / cov.sum())
            uniform = sample.grid.uniform_weights()[points]
            assert k_functional(sample, query, w="uniform") == float(
                (F * uniform).sum() / uniform.sum()
            )

        _, depth, _ = _query_reference(full, full_query, kind)
        assert ifd(full, full_query, kind) == float(
            (depth * full.grid.uniform_weights()).sum()
        )


def _integer_case(values, mask, gap, query_values, query_mask):
    """Sample and query curve on a uniform grid from raw value/mask arrays.

    Column `gap`, if given, is observed by no curve; a curve left with no
    observed point is observed at the next column instead. The query is
    observed at the first column the sample observes.
    """
    values = np.asarray(values, dtype=float)
    mask = np.array(mask, dtype=bool)
    if gap is not None:
        mask[:, gap] = False
    mask[~mask.any(axis=1), (gap or 0) + 1] = True
    grid = Grid.uniform(values.shape[1])
    sample = build_sample(grid, [PartialCurve(v, m) for v, m in zip(values, mask)])
    query_mask = np.array(query_mask, dtype=bool)
    query_mask[np.flatnonzero(sample.counts)[0]] = True
    return sample, PartialCurve(np.asarray(query_values, dtype=float), query_mask)


@st.composite
def _tied_cases(draw):
    """Small integer values, so ties are frequent, with random masks."""
    n = draw(st.integers(1, 7))
    T = draw(st.integers(2, 9))

    def matrix(elements, shape):
        size = int(np.prod(shape))
        return np.reshape(draw(st.lists(elements, min_size=size, max_size=size)), shape)

    return _integer_case(
        matrix(st.integers(0, 3), (n, T)),
        matrix(st.booleans(), (n, T)),
        draw(st.none() | st.integers(0, T - 2)),
        matrix(st.integers(0, 3), (T,)),
        matrix(st.booleans(), (T,)),
    )


def _random_tied_case(n, T, gap):
    rng = np.random.default_rng(n * T)
    return _integer_case(
        rng.integers(0, 4, size=(n, T)),
        rng.random((n, T)) < 0.6,
        gap,
        rng.integers(0, 4, size=T),
        rng.random(T) < 0.7,
    )


class TestRankKernel:
    @given(case=_tied_cases(), block_cells=st.sampled_from([1, 4, 16, poifd._BLOCK_CELLS]))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_column_sort(self, case, block_cells):
        with mock.patch.object(poifd, "_BLOCK_CELLS", block_cells):
            _check_against_reference(*case)

    @pytest.mark.parametrize(
        "n, T, gap",
        [
            (1, 5, None),  # a single curve
            (6, 8, 3),  # a column no curve observes
            (33, 2000, 7),  # wider than one column block at n = 33
        ],
    )
    def test_edge_cases(self, n, T, gap):
        _check_against_reference(*_random_tied_case(n, T, gap))
        if T > 100:
            assert T > poifd._BLOCK_CELLS // n
