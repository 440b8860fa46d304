import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pofda.core import (
    FunctionalSample,
    Grid,
    PartialCurve,
    build_sample,
)

from conftest import odd_nans, query_counts, random_masked_sample


class TestGrid:
    def test_uniform(self):
        g = Grid.uniform(5)
        assert g.size == 5
        assert g.points[0] == 0.0 and g.points[-1] == 1.0

    @pytest.mark.parametrize(
        "points",
        [
            [0.0],
            [0.1, 1.0],
            [0.0, 0.9],
            [0.0, 0.5, 0.5, 1.0],
            [0.0, 0.7, 0.3, 1.0],
            [0.0, np.nan, 1.0],
        ],
    )
    def test_rejects_bad_points(self, points):
        with pytest.raises(ValueError):
            Grid(np.array(points))

    @pytest.mark.parametrize("size", [2.5, 3.0, True, "4", None])
    def test_uniform_rejects_a_non_integer_size(self, size):
        with pytest.raises(ValueError, match=f"size must be an integer, got {size!r}"):
            Grid.uniform(size)

    def test_points_immutable(self):
        g = Grid.uniform(4)
        with pytest.raises(ValueError):
            g.points[0] = 0.5


class TestPartialCurve:
    def test_rejects_all_missing(self):
        with pytest.raises(ValueError):
            PartialCurve(np.zeros(3), np.zeros(3, dtype=bool))

    def test_rejects_nonfinite_observed(self):
        with pytest.raises(ValueError):
            PartialCurve(np.array([1.0, np.inf]), np.array([True, True]))

    def test_masked_slots_become_nan(self):
        c = PartialCurve(np.array([1.0, 999.0, 3.0]), np.array([True, False, True]))
        assert np.isnan(c.values[1])
        assert c.mask.sum() == 2
        np.testing.assert_array_equal(c.values[c.mask], [1.0, 3.0])

    def test_nonfinite_allowed_at_unobserved_slots(self):
        c = PartialCurve(np.array([np.nan, 2.0]), np.array([False, True]))
        assert c.values[1] == 2.0


class TestBuildSample:
    def test_coverage_three_of_four(self):
        grid = Grid.uniform(2)
        curves = [
            PartialCurve(np.array([1.0, 1.0]), np.array([True, True])),
            PartialCurve(np.array([2.0, 2.0]), np.array([True, True])),
            PartialCurve(np.array([3.0, 3.0]), np.array([True, True])),
            PartialCurve(np.array([0.0, 4.0]), np.array([False, True])),
        ]
        s = build_sample(grid, curves)
        assert s.coverage[0] == 3 / 4
        assert s.coverage[1] == 1.0

    def test_full_observation_coverage_one(self, rng):
        s = random_masked_sample(rng, 5, 6, p_missing=0.0)
        np.testing.assert_array_equal(s.coverage, np.ones(6))

    def test_length_mismatch(self):
        grid = Grid.uniform(3)
        with pytest.raises(ValueError):
            build_sample(grid, [PartialCurve.fully_observed([1.0, 2.0])])

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            build_sample(Grid.uniform(3), [])

    def test_removing_curve_changes_counts_by_its_mask(self, rng):
        s = random_masked_sample(rng, 7, 9)
        for drop in range(s.n_curves):
            rest = [c for i, c in enumerate(s.curves) if i != drop]
            s2 = build_sample(s.grid, rest)
            np.testing.assert_array_equal(
                s.counts - s.curves[drop].mask.astype(int), s2.counts
            )

    def test_roundtrip_lossless(self, rng):
        s = random_masked_sample(rng, 6, 8)
        for original, stored in zip(s.curves, build_sample(s.grid, s.curves).curves):
            np.testing.assert_array_equal(original.mask, stored.mask)
            np.testing.assert_array_equal(
                original.values[original.mask], stored.values[stored.mask]
            )

    def test_reads_a_samples_curves_once(self, rng, monkeypatch):
        s = random_masked_sample(rng, 6, 8)
        built = []
        real_view = PartialCurve._row_view.__func__
        monkeypatch.setattr(
            PartialCurve,
            "_row_view",
            classmethod(lambda cls, *a: built.append(1) or real_view(cls, *a)),
        )
        rebuilt = build_sample(s.grid, s.curves)
        assert len(built) == s.n_curves
        np.testing.assert_array_equal(rebuilt.values, s.values)
        np.testing.assert_array_equal(rebuilt.mask, s.mask)

    def test_matrix_validation(self):
        grid = Grid.uniform(3)
        ok = np.ones((2, 3), dtype=bool)
        with pytest.raises(ValueError):
            FunctionalSample(grid, np.zeros((0, 3)), np.ones((0, 3), dtype=bool))
        with pytest.raises(ValueError):
            FunctionalSample(grid, np.zeros((2, 4)), np.ones((2, 4), dtype=bool))
        with pytest.raises(ValueError):
            FunctionalSample(grid, np.zeros((2, 3)), ok[:, :2])
        with pytest.raises(ValueError, match="curve 1 is unobserved"):
            FunctionalSample(grid, np.zeros((2, 3)), np.array([[1, 0, 0], [0, 0, 0]], bool))
        with pytest.raises(ValueError, match="finite"):
            FunctionalSample(grid, np.array([[0.0, np.inf, 0.0], [0.0] * 3]), ok)

    def test_matrix_input_copied_and_masked_slots_nan(self):
        values = np.asfortranarray([[1.0, 999.0, 3.0], [np.inf, 2.0, 2.0]])
        mask = np.asfortranarray([[True, False, True], [False, True, True]])
        s = FunctionalSample(Grid.uniform(3), values, mask)
        values[0, 0] = mask[0, 0] = 0
        assert s.values[0, 0] == 1.0 and s.mask[0, 0]
        assert np.isnan(s.values[~s.mask]).all()
        for arr in (s.values, s.mask):
            assert arr.flags.c_contiguous and not arr.flags.writeable

    def test_unobserved_slots_hold_canonical_nan(self):
        # -NaN and NaNs with low payload bits, quiet and signalling, in the
        # unobserved slots: both constructors store +NaN's one bit pattern
        # there, which the depth field's padding keys are built from
        values = np.vstack([odd_nans(5), np.arange(5.0)])
        mask = np.array([[1, 0, 0, 0, 0], [1, 1, 1, 1, 1]], bool)
        values[0, 0] = 7.0
        for s in (
            FunctionalSample(Grid.uniform(5), values, mask),
            FunctionalSample._adopt(Grid.uniform(5), values.copy(), mask),
        ):
            bits = s.values.view(np.uint64)
            assert (bits[~mask] == 0x7FF8000000000000).all()
            np.testing.assert_array_equal(s.values[mask], [7.0, 0.0, 1.0, 2.0, 3.0, 4.0])

    def test_arrays_immutable(self, rng):
        s = random_masked_sample(rng, 3, 4)
        for arr in (s.values, s.mask, s.counts, s.coverage):
            with pytest.raises(ValueError):
                arr[0] = 0


def _point_query(x, T=2):
    """A query curve observed at grid point 0 only, with value x there."""
    values = np.zeros(T)
    values[0] = x
    return PartialCurve(values, np.arange(T) == 0)


def _ecdf(values, x):
    """(F(x), F(x-)) at grid point 0 of a sample observing `values` there,
    from the counts the depth kernels use."""
    column = np.asarray(values, dtype=float)
    s = FunctionalSample(
        Grid.uniform(2), np.column_stack([column, column]), np.ones((column.size, 2), bool)
    )
    _, c_le, c_lt = query_counts(s, _point_query(x))
    return c_le[0] / s.counts[0], c_lt[0] / s.counts[0]


class TestEcdf:
    """Pointwise empirical CDFs, read off the runtime counts (#<= x, #< x)."""

    def test_hand_counts(self):
        assert _ecdf([1.0, 2.0, 3.0], 2.0) == (2 / 3, 1 / 3)

    def test_below_minimum(self):
        assert _ecdf([1.0, 2.0, 3.0], 0.5)[0] == 0.0

    def test_at_and_above_maximum(self):
        assert _ecdf([1.0, 2.0, 3.0], 3.0)[0] == 1.0
        assert _ecdf([1.0, 2.0, 3.0], 99.0)[0] == 1.0

    def test_ecdf_at_uses_observed_only(self):
        grid = Grid.uniform(2)
        curves = [
            PartialCurve(np.array([1.0, 5.0]), np.array([True, True])),
            PartialCurve(np.array([0.0, 7.0]), np.array([False, True])),
        ]
        s = build_sample(grid, curves)
        np.testing.assert_array_equal(s.counts, [1, 2])
        # the unobserved 0.0 at point 0 would count as <= 0.0
        _, c_le, c_lt = query_counts(s, _point_query(0.0))
        assert (c_le[0], c_lt[0]) == (0, 0)

    def test_ecdf_at_coverage_gap(self):
        grid = Grid.uniform(3)
        curves = [PartialCurve(np.array([1.0, 0.0, 2.0]), np.array([True, False, True]))]
        s = build_sample(grid, curves)
        gap_only = PartialCurve(np.array([0.0, 1.0, 0.0]), np.array([False, True, False]))
        with pytest.raises(ValueError):
            query_counts(s, gap_only)
        with pytest.raises(ValueError):
            query_counts(s, _point_query(1.0, T=7))

    @given(
        values=st.lists(
            st.integers(min_value=-50, max_value=50), min_size=1, max_size=40
        ),
        query=st.integers(min_value=-55, max_value=55),
    )
    @settings(max_examples=60, deadline=None)
    def test_jump_equals_multiplicity(self, values, query):
        F, F_left = _ecdf(values, query)
        jump = F - F_left
        assert jump == pytest.approx(values.count(query) / len(values), abs=1e-15)

    @given(
        values=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, values):
        qs = np.sort(np.array(values + [-150.0, 150.0, 0.0]))
        F, Fm = np.array([_ecdf(values, q) for q in qs]).T
        assert np.all(np.diff(F) >= 0)
        assert np.all((F >= 0) & (F <= 1))
        assert np.all(Fm <= F)
