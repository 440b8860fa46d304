import itertools
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pofda import poifd
from pofda.core import FunctionalSample, Grid, PartialCurve, build_sample
from pofda.depths import DepthKind, depth_from_counts
from pofda.poifd import (
    ifd,
    poifd_all,
    poifd_of,
    pointwise_depth_field,
    resolve_phi,
)

from conftest import (
    constant_sample,
    depth_oracle,
    odd_nans,
    query_counts,
    random_masked_sample,
    sorted_counts,
)

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
            d0 = depth_oracle(kind, s.values[:, 0], 1.0)
            d1 = depth_oracle(kind, s.values[:, 1], 2.0)
            assert ifd(s, curves[0], kind=kind) == pytest.approx((d0 + d1) / 2, abs=1e-15)

    def test_constant_depth_field_returns_it(self):
        # identical curves: the pointwise depth is the same at every t,
        # so its uniform average is that constant
        grid = Grid.uniform(4)
        curves = [PartialCurve.fully_observed(np.ones(4)) for _ in range(3)]
        s = build_sample(grid, curves)
        d = depth_oracle("tukey", s.values[:, 0], 1.0)
        assert ifd(s, curves[0], kind="tukey") == pytest.approx(d, abs=1e-15)

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


class TestPoifd:
    def test_constant_curves_fm_value(self):
        s = constant_sample([1.0, 2.0, 3.0])
        assert poifd_of(s, s.curves[1], kind="fm", phi="identity") == pytest.approx(
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
            expected = depth_oracle(kind, s.values[:, 1], 5.5)
            assert poifd_of(s, s.curves[2], kind=kind) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("phi", ["identity", "sqrt"])
    def test_weighted_mean_of_the_depth_field(self, rng, kind, phi):
        # each depth is the phi(q_n)-weighted mean of the curve's pointwise
        # depths over its observed points
        for n, T in [(9, 12), (1, 5), (30, 17)]:
            s = random_masked_sample(rng, n, T)
            field = pointwise_depth_field(s, kind)
            assert np.isnan(field[~s.mask]).all()
            weights = resolve_phi(phi)(s.coverage)
            expected = [
                np.average(field[i, s.mask[i]], weights=weights[s.mask[i]]) for i in range(n)
            ]
            got = poifd_all(s, kind=kind, phi=phi).poifd
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

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
            assert poifd_of(s, s.curves[i], kind="tukey") == pytest.approx(
                res.poifd[i], abs=1e-12
            )

    def test_degenerate_phi_raises(self):
        s = constant_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            poifd_all(s, phi=lambda q: np.zeros_like(q))

    def test_degenerate_phi_names_curve_in_later_row_block(self):
        # curve 9, in the third block of 4 weight rows, observes only
        # point 0, where the weight is 0; curve 7 is made bad next. phi and
        # its weights are checked before the field is ranked, so on 1 CPU
        # or 2 no thread pool starts and `_depth_field` never runs, for an
        # unknown or negative phi either
        n, T = 12, 5
        mask = np.ones((n, T), bool)
        mask[:, 0] = False
        values = np.arange(n * T, dtype=float).reshape(n, T)
        phi = lambda q: np.where(q < 0.5, 0.0, q)  # noqa: E731
        cases = []
        for bad, first in [([9], 9), ([7, 9], 7)]:
            mask[bad] = np.arange(T) == 0
            s = FunctionalSample(Grid.uniform(T), values, mask)
            cases.append((s, phi, f"weights of curve {first} sum to zero"))
        cases += [(s, "nope", "unknown phi"), (s, lambda q: q - 1.0, "nonnegative")]
        for s, phi, match in cases:
            for cpus in (1, 2):
                with (
                    mock.patch.object(poifd, "_BLOCK_CELLS", 4 * T),
                    mock.patch.object(poifd, "_cpu_count", return_value=cpus),
                    mock.patch.object(
                        poifd, "ThreadPoolExecutor", wraps=ThreadPoolExecutor
                    ) as pool,
                    mock.patch.object(poifd, "_depth_field", wraps=poifd._depth_field) as field,
                    pytest.raises(ValueError, match=match),
                ):
                    poifd_all(s, phi=phi)
                assert pool.call_count == 0 and field.call_count == 0

    def test_zero_weight_at_an_observed_point_is_no_error(self):
        # point 0 weighs 0 and only curve 9 observes it, next to point 1:
        # the depths are the weighted means over the other points
        n, T = 12, 5
        mask = np.ones((n, T), bool)
        mask[:, 0] = False
        mask[9, 0] = True
        values = np.arange(n * T, dtype=float).reshape(n, T)
        s = FunctionalSample(Grid.uniform(T), values, mask)
        phi = lambda q: np.where(q < 0.5, 0.0, q)  # noqa: E731
        field = pointwise_depth_field(s, "fm")
        weights = phi(s.coverage)
        expected = [np.average(field[i, s.mask[i]], weights=weights[s.mask[i]]) for i in range(n)]
        np.testing.assert_allclose(poifd_all(s, phi=phi).poifd, expected, rtol=0, atol=1e-12)

    def test_negative_phi_rejected(self):
        s = constant_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            poifd_all(s, phi=lambda q: q - 1.0)

    def test_unknown_phi_name(self):
        with pytest.raises(ValueError):
            resolve_phi("nope")

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


def _column_counts(sample, ell, x):
    """(#<= x, #< x, k) at one grid point by sorting its observed values."""
    return sorted_counts(sample.values[sample.mask[:, ell], ell], x)


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
    """Usable points of a query curve with its depths there."""
    points = np.nonzero(curve.mask & (sample.counts > 0))[0]
    depth = np.empty(points.size)
    for j, ell in enumerate(points):
        depth[j] = depth_from_counts(
            kind, *_column_counts(sample, ell, curve.values[ell])
        )
    return points, depth


def _check_against_reference(sample, query):
    full = build_sample(
        sample.grid, [PartialCurve.fully_observed(np.nan_to_num(c.values)) for c in sample.curves]
    )
    full_query = PartialCurve.fully_observed(np.nan_to_num(query.values))
    for kind in ALL_KINDS:
        # the field ranked on 1, 2 and 4 threads, and poifd_all's bytes
        # the same under all three
        want = _field_reference(sample, kind).tobytes()
        depths = set()
        for cpus in (1, 2, 4):
            with mock.patch.object(poifd, "_cpu_count", return_value=cpus):
                assert pointwise_depth_field(sample, kind).tobytes() == want
                depths.add(poifd_all(sample, kind).poifd.tobytes())
        assert len(depths) == 1

        points, depth = _query_reference(sample, query, kind)
        cov = sample.coverage[points]
        assert poifd_of(sample, query, kind) == float((depth * cov).sum() / cov.sum())

        _, depth = _query_reference(full, full_query, kind)
        T = full.grid.size
        assert ifd(full, full_query, kind) == float((depth * np.full(T, 1.0 / T)).sum())


def _integer_case(values, mask, gap, query_values, query_mask):
    """Sample and query curve on a uniform grid from raw value/mask arrays.

    Column `gap`, if given, is observed by no curve; a curve left with no
    observed point is observed at the next column instead (the first,
    after the last). The query is observed at the first column the sample
    observes.
    """
    values = np.asarray(values, dtype=float)
    mask = np.array(mask, dtype=bool)
    if gap is not None:
        mask[:, gap] = False
    mask[~mask.any(axis=1), ((gap or 0) + 1) % mask.shape[1]] = True
    grid = Grid.uniform(values.shape[1])
    sample = build_sample(grid, [PartialCurve(v, m) for v, m in zip(values, mask)])
    query_mask = np.array(query_mask, dtype=bool)
    query_mask[np.flatnonzero(sample.counts)[0]] = True
    return sample, PartialCurve(np.asarray(query_values, dtype=float), query_mask)


@st.composite
def _tied_cases(draw):
    """Small integer values, so ties are frequent, with random masks. T
    reaches past two blocks of the least width, with remainder blocks."""
    n = draw(st.integers(1, 7))
    T = draw(st.integers(2, 20))

    def matrix(elements, shape):
        size = int(np.prod(shape))
        return np.reshape(draw(st.lists(elements, min_size=size, max_size=size)), shape)

    return _integer_case(
        matrix(st.integers(0, 3), (n, T)),
        matrix(st.booleans(), (n, T)),
        draw(st.none() | st.integers(0, T - 1)),
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


def _chain(base, width):
    """`base` and the `width` floats on each side of it, ascending."""
    below, above = [base], [base]
    for _ in range(width):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


_DBL_MAX = np.finfo(float).max
# signed zeros, the extreme subnormals and normals, and the top of the range
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]
_EXTREMES += [_DBL_MAX, -_DBL_MAX, np.nextafter(_DBL_MAX, 0.0), np.nextafter(-_DBL_MAX, 0.0)]
# floats a few ulps apart, and up to 300 ulps apart, which spans the low
# bits the depth field packs a curve index into for n <= 129
_NEAR_POOLS = [
    _chain(base, width) + _EXTREMES for base in (1.0, -1.0, 0.0) for width in (3, 300)
]


@st.composite
def _near_tie_cases(draw):
    """Samples of near-tied floats under random masks, n on both sides of
    the widths of the curve index packed into the sort keys (0, 1, 2, 6,
    7 and 8 bits), and T past two blocks of the least width."""
    n = draw(st.sampled_from([1, 2, 3, 63, 64, 65, 127, 128, 129]))
    T = draw(st.integers(2, 20))
    pool = draw(st.sampled_from(_NEAR_POOLS))
    values = draw(hnp.arrays(float, (n, T), elements=st.sampled_from(pool)))
    p_obs = draw(st.sampled_from([1.0, 0.6, 0.2]))
    mask = draw(hnp.arrays(float, (n, T), elements=st.floats(0.0, 1.0))) < p_obs
    mask[~mask.any(axis=1), 0] = True
    return FunctionalSample(Grid.uniform(T), values, mask)


def _field_matches(sample, cpus=(1, 2)):
    for kind in ALL_KINDS:
        want = _field_reference(sample, kind).tobytes()
        for count in cpus:
            with mock.patch.object(poifd, "_cpu_count", return_value=count):
                assert pointwise_depth_field(sample, kind).tobytes() == want


# the least, a small and the default cell budget of a depth-field block
_BLOCK_BUDGETS = (1, 16, 1 << 16)


def _never_argsorted(sample):
    """The field matches the reference on 1 and 2 CPUs at every block
    budget, and no block falls back to `np.argsort`."""
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        for block_cells in _BLOCK_BUDGETS:
            with mock.patch.object(poifd, "_BLOCK_CELLS", block_cells):
                _field_matches(sample)
    assert argsort.call_count == 0


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
            (6, 8, 3),  # a column no curve observes, within a block
            # the last column, which no curve observes, is a block of its
            # own after two blocks of the least width
            (6, 17, 16),
            (33, 2000, 7),  # wider than one column block at n = 33
        ],
    )
    def test_edge_cases(self, n, T, gap):
        case = _random_tied_case(n, T, gap)
        for block_cells in (16, poifd._BLOCK_CELLS):
            with mock.patch.object(poifd, "_BLOCK_CELLS", block_cells):
                _check_against_reference(*case)
        if T > 100:
            assert T > poifd._BLOCK_CELLS // n

    @pytest.mark.parametrize("block_cells", [1, 16, poifd._BLOCK_CELLS])
    def test_group_scan_only_for_blocks_with_a_tie(self, block_cells):
        # columns 0-7 hold distinct floats, columns 8-15 integers 0..2,
        # which tie; half the curves miss every third column, so the sort
        # rows of those columns end in equal padding
        n, T = 8, 16
        rng = np.random.default_rng(12)
        values = np.hstack([rng.normal(size=(n, 8)), rng.integers(0, 3, size=(n, 8))])
        mask = np.ones((n, T), bool)
        mask[: n // 2, ::3] = False
        query = rng.normal(size=T), rng.random(T) < 0.7
        tie_free = _integer_case(values[:, :8], mask[:, :8], None, query[0][:8], query[1][:8])
        mixed = _integer_case(values, mask, None, *query)
        with (
            mock.patch.object(poifd, "_BLOCK_CELLS", block_cells),
            mock.patch.object(poifd, "_tied_counts", wraps=poifd._tied_counts) as scan,
        ):
            # equal padding is no tie: the tie-free sample never scans
            _check_against_reference(*tie_free)
            assert scan.call_count == 0
            _check_against_reference(*mixed)
            assert scan.call_count > 0
            if block_cells < poifd._BLOCK_CELLS:
                # two blocks of the least width: only the integer one scans
                calls = scan.call_count
                pointwise_depth_field(mixed[0], "tukey")
                assert scan.call_count - calls == 1

    @given(
        sample=_near_tie_cases(),
        block_cells=st.sampled_from([1, 16, poifd._BLOCK_CELLS]),
        cpus=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_near_ties_match_per_column_sort(self, sample, block_cells, cpus):
        with mock.patch.object(poifd, "_BLOCK_CELLS", block_cells):
            _field_matches(sample, (cpus,))

    def test_argsort_only_for_disordered_keys(self):
        # continuous and integer-tied samples keep the key order
        n, T = 300, 40
        rng = np.random.default_rng(n)
        mask = rng.random((n, T)) < 0.7
        mask[:, 0] = True
        continuous = FunctionalSample(Grid.uniform(T), rng.normal(size=(n, T)), mask)
        tied = FunctionalSample(Grid.uniform(T), rng.integers(0, 5, size=(n, T)), mask)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            for sample in (continuous, tied):
                for block_cells in (16, poifd._BLOCK_CELLS):
                    with mock.patch.object(poifd, "_BLOCK_CELLS", block_cells):
                        _field_matches(sample)
            assert argsort.call_count == 0

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0, but their bit patterns differ in the sign bit, which
        # no packed index reaches: the field adds 0.0 before packing
        values = np.array([[-0.0, 1.0, 0.0, -2.0, 3.0], [5.0, 4.0, 3.0, 2.0, 1.0]]).T
        sample = FunctionalSample(Grid.uniform(2), values, np.ones(values.shape, bool))
        with mock.patch.object(poifd, "_tied_counts", wraps=poifd._tied_counts) as scan:
            _field_matches(sample)
        assert scan.call_count > 0

    @pytest.mark.parametrize(
        "values, mask",
        [
            # one row per curve. In column 0, one ulp apart, the larger value
            # on the lower curve index: the keys share their top bits and
            # sort in index order
            ([[np.nextafter(1.0, 2.0), 1.0], [1.0, 2.0]], [[1, 1], [1, 1]]),
            # the same beside an unobserved slot that the block keeps: the
            # argsort's padding entry still points at the spare slot
            pytest.param(
                [[np.nextafter(1.0, 2.0), 1.0], [1.0, 2.0], [0.0, 3.0]],
                [[1, 1], [1, 1], [0, 1]],
                id="beside-padding",
            ),
        ],
    )
    def test_argsort_for_disordered_keys(self, values, mask):
        values, mask = np.array(values, float), np.array(mask, bool)
        sample = FunctionalSample(Grid.uniform(values.shape[1]), values, mask)
        for block_cells, cpus in itertools.product(_BLOCK_BUDGETS, (1, 2)):
            with (
                mock.patch.object(poifd, "_BLOCK_CELLS", block_cells),
                mock.patch.object(np, "argsort", wraps=np.argsort) as argsort,
            ):
                _field_matches(sample, (cpus,))
            assert argsort.call_count > 0

    @pytest.mark.parametrize(
        "values, mask",
        [
            # one row per curve. An observed DBL_MAX on a higher curve index
            # than unobserved slots
            (
                [[0.5, 1.0], [0.0, 2.0], [_DBL_MAX, 3.0], [0.0, 4.0]],
                [[1, 1], [0, 1], [1, 1], [0, 1]],
            ),
            # the same, where every column has 2 observed values, so the
            # DBL_MAX column keeps its first two keys only
            (
                [[0.5, 1.0, 0.0], [0.0, 2.0, 5.0], [_DBL_MAX, 3.0, 0.0], [0.0, 4.0, 6.0]],
                [[1, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 1]],
            ),
        ],
    )
    def test_observed_dbl_max_sorts_ahead_of_padding(self, values, mask):
        values, mask = np.array(values, float), np.array(mask, bool)
        _never_argsorted(FunctionalSample(Grid.uniform(values.shape[1]), values, mask))

    @pytest.mark.parametrize("n", [2, 64, 1024])
    def test_top_of_range_at_a_power_of_two_n(self, n):
        # n = 2^j packs one more index bit than n - 1 does, so that the
        # padding index n fits. Column 0 holds DBL_MAX on the last curve and
        # the float below it on curve 0, with curves 1 to n - 3 unobserved
        # there; no curve observes column 1, and every curve column 2
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, 3))
        values[-1, 0], values[0, 0] = _DBL_MAX, np.nextafter(_DBL_MAX, 0.0)
        mask = np.ones((n, 3), bool)
        mask[1 : n - 2, 0] = False
        mask[:, 1] = False
        _never_argsorted(FunctionalSample(Grid.uniform(3), values, mask))

    def test_nan_bits_of_the_input_do_not_reach_the_field(self):
        # -NaN and NaNs with low-bit payloads in the unobserved slots; the
        # sample stores canonical +NaN there, whose bits the padding reads
        rng = np.random.default_rng(5)
        n, T = 40, 9
        mask = rng.random((n, T)) < 0.6
        mask[:, 0] = True
        values = rng.normal(size=(n, T))
        values[~mask] = odd_nans(int((~mask).sum()))
        for sample in (
            FunctionalSample(Grid.uniform(T), values, mask),
            FunctionalSample._adopt(Grid.uniform(T), values.copy(), mask),
        ):
            for block_cells in _BLOCK_BUDGETS:
                with mock.patch.object(poifd, "_BLOCK_CELLS", block_cells):
                    _field_matches(sample)

    def test_weighting_threads_keep_the_bytes(self):
        # 700 x 200 cells: over 2 * _BLOCK_CELLS, so both the field and the
        # weighting run on 2 threads, and the weight blocks split the rows
        n, T = 700, 200
        rng = np.random.default_rng(n)
        mask = rng.random((n, T)) < 0.6
        mask[:, 0] = True
        sample = FunctionalSample(Grid.uniform(T), rng.normal(size=(n, T)), mask)
        assert n * T >= 2 * poifd._BLOCK_CELLS
        for kind in ALL_KINDS:
            # the whole-matrix weighting, row by row as poifd_all's blocks
            weights = np.where(mask, sample.coverage, 0.0)
            weights /= weights.sum(axis=1)[:, None]
            weights *= np.nan_to_num(_field_reference(sample, kind))
            want = weights.sum(axis=1).tobytes()
            for cpus in (1, 2):
                with (
                    mock.patch.object(poifd, "_cpu_count", return_value=cpus),
                    mock.patch.object(
                        poifd, "ThreadPoolExecutor", wraps=ThreadPoolExecutor
                    ) as pool,
                ):
                    assert poifd_all(sample, kind).poifd.tobytes() == want
                # the field and the weighting each start a pool of their own
                assert pool.call_count == 2 * (cpus - 1)

    def test_threads_only_for_large_samples_and_joined(self):
        # 33 x 2000 cells: at least 2 blocks of 16 cells, under 2 blocks
        # of the default size
        sample, _ = _random_tied_case(33, 2000, 7)
        with (
            mock.patch.object(poifd, "_BLOCK_CELLS", 16),
            mock.patch.object(poifd, "_cpu_count", return_value=1),
        ):
            want = pointwise_depth_field(sample, "fm").tobytes()
        before = threading.active_count()
        interval = sys.getswitchinterval()
        try:
            # threads switch often, so a write lost between them would show
            sys.setswitchinterval(1e-6)
            with (
                mock.patch.object(poifd, "_cpu_count", return_value=4),
                mock.patch.object(poifd, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool,
            ):
                poifd_all(sample, "tukey")
                assert pool.call_count == 0
                with mock.patch.object(poifd, "_BLOCK_CELLS", 16):
                    assert pointwise_depth_field(sample, "fm").tobytes() == want
                    assert threading.active_count() == before
                    poifd_all(sample, "tukey")
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        # the calling thread ranks a share itself; poifd_all's weighting
        # starts the third pool
        assert [c.args for c in pool.call_args_list] == [(3,), (3,), (3,)]

    @pytest.mark.parametrize("least", [1, 8])
    def test_share_covers_every_index_once(self, least):
        # a 16-cell budget over odd extents, so most block sizes leave a
        # short last block, each index 1 or 3 cells across: under 32 cells
        # run on the calling thread alone, the rest on up to `cpus` threads
        caller = threading.get_ident()
        before = threading.active_count()
        for extent, across, cpus in itertools.product((1, 7, 37, 101), (1, 3), (1, 2, 3, 4)):
            blocks, threads = [], set()

            def task(block):
                blocks.append(range(extent)[block])
                threads.add(threading.get_ident())

            with (
                mock.patch.object(poifd, "_BLOCK_CELLS", 16),
                mock.patch.object(poifd, "_cpu_count", return_value=cpus),
            ):
                poifd._share(task, extent, across, least)
            blocks.sort(key=lambda block: block.start)
            assert [i for block in blocks for i in block] == list(range(extent))
            assert all(len(block) >= least for block in blocks[:-1])
            assert caller in threads
            assert threading.active_count() == before

        def fail(block):
            if threading.get_ident() != caller:
                raise ZeroDivisionError

        # an error on another thread reaches the caller
        with (
            mock.patch.object(poifd, "_BLOCK_CELLS", 16),
            mock.patch.object(poifd, "_cpu_count", return_value=2),
            pytest.raises(ZeroDivisionError),
        ):
            poifd._share(fail, 101, 3, least)
        assert threading.active_count() == before

    def test_cpu_count_falls_back_without_affinity(self, monkeypatch):
        assert poifd._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert poifd._cpu_count() == 3

    def test_query_counts_beyond_16_bits(self):
        # n = 2^16 + 1 with integer values: at points 0 and 1 the query
        # ties the sample maximum, so #<= x(t) exceeds 2^16 - 1 there.
        # Point 2 is half observed, and the query does not observe point 3.
        n, T = (1 << 16) + 1, 4
        rng = np.random.default_rng(n)
        mask = np.ones((n, T), dtype=bool)
        mask[: n // 2, 2] = False
        mask[:5, 1] = False
        sample = FunctionalSample(Grid.uniform(T), rng.integers(0, 4, size=(n, T)), mask)
        query = PartialCurve(np.array([3.0, 3.0, 1.0, 2.0]), np.array([1, 1, 1, 0], bool))

        points, c_le, c_lt = query_counts(sample, query)
        np.testing.assert_array_equal(points, [0, 1, 2])
        np.testing.assert_array_equal(
            np.column_stack([c_le, c_lt, sample.counts[points]]),
            [_column_counts(sample, ell, query.values[ell]) for ell in points],
        )
        assert c_le[0] == n
        for kind in ALL_KINDS:
            _, depth = _query_reference(sample, query, kind)
            cov = sample.coverage[points]
            assert poifd_of(sample, query, kind) == float((depth * cov).sum() / cov.sum())

    def test_field_counts_beyond_15_bits(self):
        # n = 2^15 + 3 with values 0..3: ties push #<= x(t) past 2^15, so
        # 2 * #<= x(t) would wrap in counts held in uint16
        n, T = (1 << 15) + 3, 3
        rng = np.random.default_rng(n)
        mask = rng.random((n, T)) < 0.9
        mask[:, 0] = True
        sample = FunctionalSample(Grid.uniform(T), rng.integers(0, 4, size=(n, T)), mask)
        # every curve observes point 0, so there #<= 3 is n
        assert sample.counts[0] == n and sample.values[:, 0].max() == 3
        for kind in ALL_KINDS:
            field = pointwise_depth_field(sample, kind)
            assert field.tobytes() == _field_reference(sample, kind).tobytes()


class TestQueryCounts:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 127, 128, 129, 255, 256, 257, 1000, (1 << 16) + 1]
    )
    def test_count_columns_matches_sum(self, n):
        # columns all True, all False and random; the byte folds must
        # neither wrap at 2^8 nor drop the odd middle row of a fold
        rng = np.random.default_rng(n)
        hits = np.column_stack(
            [np.ones(n, bool), np.zeros(n, bool), rng.random((n, 3)) < [0.1, 0.5, 0.97]]
        )
        expected = hits.sum(axis=0)
        counts = poifd._count_columns(hits.copy())
        assert counts.dtype == np.intp
        np.testing.assert_array_equal(counts, expected)
        assert counts[0] == n and counts[1] == 0

    def test_lt_counted_only_for_kinds_that_read_it(self):
        sample, query = _random_tied_case(300, 9, 4)
        points, c_le, c_lt = query_counts(sample, query)
        np.testing.assert_array_equal(
            np.column_stack([c_le, c_lt, sample.counts[points]]),
            [_column_counts(sample, ell, query.values[ell]) for ell in points],
        )
        full = FunctionalSample(
            sample.grid, np.nan_to_num(sample.values), np.ones(sample.mask.shape, bool)
        )
        full_query = PartialCurve.fully_observed(np.nan_to_num(query.values))
        # poifd_of and ifd count #< x(t) only for the kinds whose formula
        # reads it; Fraiman-Muniz takes one comparison
        for kind in ALL_KINDS:
            with mock.patch.object(poifd, "_compare_counts", wraps=poifd._compare_counts) as spy:
                poifd_of(sample, query, kind)
                ifd(full, full_query, kind)
            reads_lt = {"fm": False, "tukey": True, "simplicial": True}[kind.value]
            assert [call.args[3] for call in spy.call_args_list] == [reads_lt, reads_lt]

    @pytest.mark.parametrize(
        "cells, T",
        [
            (24, 5),  # 5-row stretches
            (poifd._STRETCH_CELLS, 101),  # the default stretch at the probes' grid
            (poifd._STRETCH_CELLS, poifd._STRETCH_CELLS + 3),  # a stretch is one row
        ],
    )
    def test_stretched_compare_matches_column_counts(self, cells, T):
        # integer values, so the query ties sample values; masked slots
        # hold NaN and the query is partially observed
        rows = -(-cells // T)
        sizes = sorted({n for n in (1, rows - 1, rows, rows + 1, 2 * rows + 3) if n >= 1})
        with mock.patch.object(poifd, "_STRETCH_CELLS", cells):
            for n in sizes:
                sample, query = _random_tied_case(n, T, None)
                assert np.isnan(sample.values).any() or n == 1
                assert not query.is_fully_observed
                points, c_le, c_lt = query_counts(sample, query)
                np.testing.assert_array_equal(
                    np.column_stack([c_le, c_lt, sample.counts[points]]),
                    [_column_counts(sample, ell, query.values[ell]) for ell in points],
                )
                # the one-comparison form gives the same #<= x(t) and no #< x(t)
                le_only = poifd._compare_counts(sample.values, query.values, points, False)
                np.testing.assert_array_equal(le_only[0], c_le)
                assert le_only[1] is None
                for kind in ALL_KINDS:
                    _, depth = _query_reference(sample, query, kind)
                    cov = sample.coverage[points]
                    assert poifd_of(sample, query, kind) == float((depth * cov).sum() / cov.sum())

    @pytest.mark.parametrize(
        "phi, match",
        [
            ("nope", "unknown phi"),
            (lambda q: q - 1.0, "finite and nonnegative"),
            # zero at every point some curve observes
            (lambda q: np.where(q > 0.0, 0.0, 1.0), "sum to zero"),
        ],
    )
    def test_bad_phi_raises_before_counting(self, phi, match):
        sample, query = _random_tied_case(300, 9, 4)
        with mock.patch.object(poifd, "_count_columns", wraps=poifd._count_columns) as counted:
            with pytest.raises(ValueError, match=match):
                poifd_of(sample, query, "tukey", phi)
            assert counted.call_count == 0
            poifd_of(sample, query, "tukey", "sqrt")
            assert counted.call_count == 2
