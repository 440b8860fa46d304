import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pofda import trimming
from pofda.core import FunctionalSample, Grid, PartialCurve, build_sample
from pofda.poifd import poifd_all
from pofda.trimming import (
    TrimSpec,
    ordinary_mean,
    resolved_keep_count,
    select_trim,
    trimmed_mean,
)

from conftest import constant_sample, random_masked_sample


class TestSelectTrim:
    def test_hand_example(self):
        t = select_trim([0.2, 0.4, 0.6, 0.4, 0.2], alpha=0.4)
        assert t.keep_count == 3
        np.testing.assert_array_equal(t.kept, [1, 2, 3])
        assert t.beta == 0.4

    def test_alpha_zero_keeps_all(self):
        depths = [0.5, 0.1, 0.9]
        t = select_trim(depths, alpha=0.0)
        np.testing.assert_array_equal(t.kept, [0, 1, 2])
        assert t.beta == 0.1

    def test_all_equal_tie_break_by_index(self):
        t = select_trim([0.7] * 5, alpha=0.4)
        np.testing.assert_array_equal(t.kept, [0, 1, 2])

    def test_kept_dominate_dropped(self, rng):
        for _ in range(20):
            depths = np.round(rng.random(rng.integers(1, 12)), 1)
            t = select_trim(depths, alpha=float(rng.choice([0.0, 0.2, 0.5, 0.8])))
            dropped = np.setdiff1d(np.arange(depths.size), t.kept)
            if dropped.size:
                assert depths[t.kept].min() >= depths[dropped].max()
            assert depths[t.kept].min() == t.beta
            share = np.mean(depths >= t.beta)
            assert share >= 1.0 - t.alpha - 1e-12

    def test_empty_depths(self):
        with pytest.raises(ValueError):
            select_trim([], alpha=0.1)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            select_trim([0.5], alpha=1.0)
        with pytest.raises(ValueError):
            select_trim([0.5], alpha=-0.1)

    @pytest.mark.parametrize(
        "depths, alpha, first_bad",
        [([np.nan, 0.5, 0.2], 0.34, 0), ([np.nan, 0.5, 0.2], 0.0, 0), ([0.5, np.inf, -np.inf], 0.0, 1)],
        ids=["nan", "nan_alpha_zero", "inf"],
    )
    def test_rejects_non_finite_depths(self, depths, alpha, first_bad):
        with pytest.raises(ValueError, match=f"depth of curve {first_bad} is not finite"):
            select_trim(depths, alpha)

    def test_keep_count_matches_decimal_floor(self):
        # float 30 * 0.7 is slightly below 21; the snap keeps the
        # decimal-arithmetic answer
        for n in range(1, 31):
            for tenth in range(10):
                alpha = tenth / 10
                expected = n - math.floor(Fraction(tenth, 10) * n)
                assert resolved_keep_count(n, alpha) == expected, (n, alpha)

    @pytest.mark.parametrize("n", [5.5, 5.0, True, "5", None])
    def test_keep_count_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            resolved_keep_count(n, 0.2)


class TestTrimSpec:
    @pytest.mark.parametrize(
        "kept",
        [[0, 0, 1], [1, 0], [0.7, 1.2], [[0], [1]], []],
        ids=["repeated", "decreasing", "float", "two_d", "empty"],
    )
    def test_rejects_malformed_kept(self, kept):
        with pytest.raises(ValueError):
            TrimSpec(0.2, 0.5, kept)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_kept_copied_and_read_only(self, dtype):
        kept = np.array([1, 3], dtype=dtype)
        trim = TrimSpec(0.2, 0.5, kept)
        assert not np.shares_memory(trim.kept, kept) and kept.flags.writeable
        assert not trim.kept.flags.writeable and trim.kept.dtype == int

    def test_keep_count_is_the_kept_size(self):
        trim = TrimSpec(0.2, 0.5, [1, 3, 4])
        assert trim.keep_count == 3
        with pytest.raises(AttributeError):
            trim.keep_count = 2


class TestTrimmedMean:
    def test_constant_curves_hand_example(self):
        s = constant_sample([0.0, 1.0, 2.0, 3.0, 4.0], grid_size=4)
        depths = poifd_all(s, kind="tukey").poifd
        np.testing.assert_allclose(depths, [0.2, 0.4, 0.6, 0.4, 0.2], atol=1e-15)
        est = trimmed_mean(s, select_trim(depths, alpha=0.4))
        np.testing.assert_allclose(est.values, 2.0, atol=1e-15)
        assert est.defined_mask.all()
        assert not est.fallback_mask.any()

    def test_alpha_zero_equals_ordinary_mean_exactly(self, rng):
        for _ in range(5):
            s = random_masked_sample(rng, 6, 9)
            depths = poifd_all(s).poifd
            est_t = trimmed_mean(s, select_trim(depths, alpha=0.0))
            est_o = ordinary_mean(s)
            np.testing.assert_array_equal(est_t.values, est_o.values)
            np.testing.assert_array_equal(est_t.defined_mask, est_o.defined_mask)
            assert not est_t.fallback_mask.any()

    def test_fallback_at_point_covered_only_by_dropped(self):
        grid = Grid.uniform(3)
        curves = [
            PartialCurve(np.array([0.0, 0.0, 0.0]), np.array([True, True, False])),
            PartialCurve(np.array([1.0, 1.0, 0.0]), np.array([True, True, False])),
            PartialCurve(np.array([9.0, 9.0, 9.0]), np.array([True, True, True])),
        ]
        s = build_sample(grid, curves)
        trim = select_trim([0.9, 0.8, 0.1], alpha=1 / 3)
        np.testing.assert_array_equal(trim.kept, [0, 1])
        est = trimmed_mean(s, trim)
        assert est.fallback_mask[2]
        assert est.values[2] == 9.0  # all-curve mean there
        assert est.defined_mask.all()
        np.testing.assert_allclose(est.values[:2], 0.5)

    def test_all_curve_mean_only_at_coverage_gaps(self, monkeypatch):
        read = []
        real = trimming._pointwise_mean

        def recorded(values, where, counts):
            # the curves whose values this mean reads
            read.append(np.flatnonzero(where.any(axis=1)).tolist())
            return real(values, where, counts)

        monkeypatch.setattr(trimming, "_pointwise_mean", recorded)
        trim = select_trim([0.9, 0.8, 0.1], alpha=1 / 3)
        trimmed_mean(constant_sample([0.0, 1.0, 9.0], grid_size=3), trim)
        assert read == [[0, 1]]  # kept rows only: no coverage gap
        read.clear()
        mask = np.array([[True, True, False], [True, True, False], [True, True, True]])
        gap = FunctionalSample(Grid.uniform(3), np.zeros((3, 3)), mask)
        assert trimmed_mean(gap, trim).fallback_mask[2]
        assert read == [[0, 1], [0, 1, 2]]

    @pytest.mark.parametrize("ties", [False, True], ids=["normal", "integer_ties"])
    def test_means_match_explicit_formula_bytes(self, rng, ties):
        # where(mask, values, 0).sum(0) / counts, written out; column 3 is
        # all -0.0, whose sum is +0.0 in both forms
        n, T = 300, 12
        values = rng.integers(-3, 4, size=(n, T)) if ties else rng.normal(scale=5.0, size=(n, T))
        values = values.astype(float)
        values[:, 3] = -0.0
        mask = rng.random((n, T)) < 0.6
        mask[:, 0] = True
        mask[: n // 2, -2:] = False  # observed by dropped curves only
        sample = FunctionalSample(Grid.uniform(T), values, mask)
        trim = select_trim(np.r_[np.ones(n // 2), np.zeros(n - n // 2)], alpha=0.5)

        def explicit(rows):
            m = mask[rows]
            return np.where(m, values[rows], 0.0).sum(axis=0) / m.sum(axis=0)

        plain = explicit(slice(None))
        assert ordinary_mean(sample).values.tobytes() == plain.tobytes()
        est = trimmed_mean(sample, trim)
        with np.errstate(invalid="ignore"):
            expected = np.where(est.fallback_mask, plain, explicit(trim.kept))
        np.testing.assert_array_equal(est.fallback_mask, np.arange(T) >= T - 2)
        assert est.values.tobytes() == expected.tobytes()
        assert not np.signbit(plain[3]) and not np.signbit(est.values[3])

    def test_fallback_sums_like_ordinary_mean(self, rng):
        # Only the 50 dropped curves observe the last 10 columns; the
        # fallback there must round exactly as ordinary_mean does.
        values = rng.normal(scale=10.0, size=(200, 30))
        mask = rng.random((200, 30)) < 0.7
        mask[:, 0] = True
        mask[:150, 20:] = False
        sample = FunctionalSample(Grid.uniform(30), values, mask)
        est = trimmed_mean(sample, select_trim(np.r_[np.ones(150), np.zeros(50)], alpha=0.25))
        fallback = np.arange(30) >= 20
        np.testing.assert_array_equal(est.fallback_mask, fallback)
        assert est.values[fallback].tobytes() == ordinary_mean(sample).values[fallback].tobytes()

    def test_undefined_where_nothing_observed(self):
        grid = Grid.uniform(3)
        curves = [
            PartialCurve(np.array([1.0, 0.0, 1.0]), np.array([True, False, True])),
            PartialCurve(np.array([3.0, 0.0, 3.0]), np.array([True, False, True])),
        ]
        s = build_sample(grid, curves)
        est = trimmed_mean(s, select_trim([0.5, 0.4], alpha=0.0))
        assert not est.defined_mask[1]
        assert np.isnan(est.values[1])

    def test_bounds_within_retained_range(self, rng):
        for _ in range(10):
            s = random_masked_sample(rng, 8, 7)
            trim = select_trim(poifd_all(s).poifd, alpha=0.25)
            est = trimmed_mean(s, trim)
            kept_vals = s.values[trim.kept]
            kept_mask = s.mask[trim.kept]
            for ell in range(7):
                if est.defined_mask[ell] and not est.fallback_mask[ell]:
                    col = kept_vals[kept_mask[:, ell], ell]
                    assert col.min() - 1e-12 <= est.values[ell] <= col.max() + 1e-12

    def test_translation_equivariance(self, rng):
        s = random_masked_sample(rng, 7, 8)
        base_depths = poifd_all(s).poifd
        base_trim = select_trim(base_depths, alpha=0.3)
        base_est = trimmed_mean(s, base_trim)
        for c in (-10.0, 0.5, 1e3):
            shifted = build_sample(
                s.grid, [PartialCurve(cv.values + c, cv.mask) for cv in s.curves]
            )
            depths = poifd_all(shifted).poifd
            np.testing.assert_array_equal(depths, base_depths)
            trim = select_trim(depths, alpha=0.3)
            np.testing.assert_array_equal(trim.kept, base_trim.kept)
            est = trimmed_mean(shifted, trim)
            defined = est.defined_mask
            np.testing.assert_allclose(
                est.values[defined], base_est.values[defined] + c, atol=1e-9
            )

    def test_outlier_rejected(self):
        s = constant_sample([0.0] * 9 + [100.0], grid_size=5)
        for kind in ("tukey", "simplicial", "fm"):
            depths = poifd_all(s, kind=kind).poifd
            trim = select_trim(depths, alpha=0.2)
            assert 9 not in trim.kept
            est = trimmed_mean(s, trim)
            np.testing.assert_allclose(est.values, 0.0, atol=1e-15)

    def test_invalid_trim_spec(self, rng):
        s = random_masked_sample(rng, 3, 4)
        trim = select_trim([0.1, 0.2, 0.3, 0.4], alpha=0.0)
        with pytest.raises(ValueError):
            trimmed_mean(s, trim)


class TestOrdinaryMean:
    def test_identical_curves(self):
        grid = Grid.uniform(4)
        mask = np.array([True, False, True, True])
        vals = np.array([1.0, 0.0, 3.0, 4.0])
        s = build_sample(grid, [PartialCurve(vals, mask)] * 3)
        est = ordinary_mean(s)
        np.testing.assert_array_equal(est.defined_mask, mask)
        np.testing.assert_allclose(est.values[mask], vals[mask])

    def test_two_observed(self):
        grid = Grid.uniform(2)
        s = build_sample(
            grid,
            [
                PartialCurve.fully_observed([0.0, 0.0]),
                PartialCurve.fully_observed([4.0, 4.0]),
            ],
        )
        assert ordinary_mean(s).values[0] == 2.0

    def test_skips_unobserved_curve(self):
        grid = Grid.uniform(2)
        curves = [
            PartialCurve.fully_observed([1.0, 1.0]),
            PartialCurve.fully_observed([3.0, 3.0]),
            PartialCurve(np.array([0.0, 5.0]), np.array([False, True])),
        ]
        s = build_sample(grid, curves)
        assert ordinary_mean(s).values[0] == 2.0
        assert ordinary_mean(s).values[1] == 3.0


@given(
    n=st.integers(1, 40),
    tenth=st.integers(0, 9),
)
@settings(max_examples=80, deadline=None)
def test_keep_count_property(n, tenth):
    alpha = tenth / 10
    expected = n - math.floor(Fraction(tenth, 10) * n)
    assert resolved_keep_count(n, alpha) == expected
    depths = np.linspace(0.0, 1.0, n)
    assert select_trim(depths, alpha).kept.size == expected
