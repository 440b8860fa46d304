from itertools import combinations_with_replacement

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pofda import depths
from pofda.depths import DepthKind, depth_from_counts

from conftest import depth_oracle, sorted_counts

V123 = [1.0, 2.0, 3.0]


class TestTukey:
    def test_hand_count(self):
        assert depth_oracle("tukey", V123, 2.0) == 2 / 3

    def test_below_all(self):
        assert depth_oracle("tukey", V123, 0.0) == 0.0

    def test_median_of_odd_sample_at_least_half(self):
        assert depth_oracle("tukey", [5.0, 1.0, 9.0, 3.0, 7.0], 5.0) >= 0.5

    def test_bounded_by_cdf(self):
        for x in (0.5, 1.0, 2.5, 3.0):
            c_le, _, k = sorted_counts(V123, x)
            assert depth_oracle("tukey", V123, x) <= c_le / k


class TestSimplicial:
    def test_hand_count(self):
        assert depth_oracle("simplicial", V123, 2.0) == 8 / 9

    def test_below_all(self):
        assert depth_oracle("simplicial", V123, 0.0) == 0.0

    def test_atom_can_exceed_one(self):
        # Plug-in formula 2 F (1 - F-) tops out at 2 for a point atom.
        assert depth_oracle("simplicial", [2.0, 2.0], 2.0) == 2.0


class TestFraimanMuniz:
    def test_hand_count(self):
        assert depth_oracle("fm", V123, 2.0) == 5 / 6

    def test_maximal_at_half(self):
        assert depth_oracle("fm", [1.0, 2.0], 1.0) == 1.0

    def test_half_when_cdf_zero(self):
        assert depth_oracle("fm", V123, 0.0) == 0.5

    def test_range(self):
        for x in (-5.0, 1.0, 1.7, 3.0, 9.0):
            assert 0.5 <= depth_oracle("fm", V123, x) <= 1.0


def _population_depth(kind, F):
    """Population depth of an atomless marginal: F(x-) = F(x), k = 1."""
    return depth_from_counts(kind, F, F, 1.0)


def test_population_depths_at_median():
    assert _population_depth(DepthKind.TUKEY, 0.5) == 0.5
    assert _population_depth(DepthKind.SIMPLICIAL, 0.5) == 0.5
    assert _population_depth(DepthKind.FRAIMAN_MUNIZ, 0.5) == 1.0


def test_population_depth_vectorized():
    F = np.array([0.0, 0.25, 0.5, 1.0])
    np.testing.assert_allclose(_population_depth("tukey", F), [0.0, 0.25, 0.5, 0.0])
    np.testing.assert_allclose(_population_depth("fm", F), [0.5, 0.75, 1.0, 0.5])
    # bit for bit the closed forms in F, subnormal F included
    F = np.concatenate(
        [F, [5e-324, 1e-310, 0.5 - 2**-54, 0.5 + 2**-53], np.random.default_rng(3).random(1000)]
    )
    closed = {
        DepthKind.TUKEY: np.minimum(F, 1.0 - F),
        DepthKind.SIMPLICIAL: 2.0 * F * (1.0 - F),
        DepthKind.FRAIMAN_MUNIZ: 1.0 - np.abs(0.5 - F),
    }
    for kind, expected in closed.items():
        assert _population_depth(kind, F).tobytes() == expected.tobytes()


def test_dispatch_matches_direct():
    counts = sorted_counts(V123, np.array([0.0, 1.0, 2.5, 3.0]))
    for kind, fn in [
        (DepthKind.TUKEY, depths._tukey_counts),
        (DepthKind.SIMPLICIAL, depths._simplicial_counts),
        (DepthKind.FRAIMAN_MUNIZ, depths._fm_counts),
    ]:
        for name in (kind, kind.value):
            np.testing.assert_array_equal(depth_from_counts(name, *counts), fn(*counts))


def test_kinds_that_skip_lt_do_not_read_it():
    # A query counting for a kind outside _READS_LT skips #< x and passes
    # c_lt=None: such a formula must give the same bytes without it.
    assert depths._READS_LT == {DepthKind.TUKEY, DepthKind.SIMPLICIAL}
    c_le, c_lt, k = sorted_counts([1.0, 2.0, 2.0, 3.0, 5.0], np.array([0.0, 1.0, 2.0, 4.0, 9.0]))
    for kind in set(DepthKind) - depths._READS_LT:
        assert (
            depth_from_counts(kind, c_le, None, k).tobytes()
            == depth_from_counts(kind, c_le, c_lt, k).tobytes()
        )


@given(
    values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=25),
    query=st.integers(-1000, 1000),
)
@settings(max_examples=80, deadline=None)
def test_rank_invariance_under_increasing_transform(values, query):
    # Cubing integers is strictly increasing and exact in float64.
    cubed = [v**3 for v in values]
    for kind in DepthKind:
        assert depth_oracle(kind, values, query) == depth_oracle(
            kind, cubed, float(query) ** 3
        )


def test_max_over_sample_attained_at_a_median():
    # Exhaustive over multisets of size <= 5 from {1..5}. Tukey always
    # peaks at a middle order statistic; with ties the simplicial and
    # FM maximizers can move off the median, so those two are checked
    # on tie-free samples only.
    for k in range(1, 6):
        for vals in combinations_with_replacement(range(1, 6), k):
            sv = sorted(vals)
            medians = {sv[(k - 1) // 2], sv[k // 2]}
            tie_free = len(set(vals)) == len(vals)
            for kind in DepthKind:
                if kind is not DepthKind.TUKEY and not tie_free:
                    continue
                best = max(depth_oracle(kind, vals, float(x)) for x in vals)
                assert any(
                    depth_oracle(kind, vals, float(m)) == best for m in medians
                ), (kind, vals)


def _same_bytes_from_float_counts(c_le, c_lt, k):
    for kind in DepthKind:
        want = depth_from_counts(kind, c_le, c_lt, k)
        got = depth_from_counts(kind, *(np.asarray(c, float) for c in (c_le, c_lt, k)))
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), kind


def test_float_counts_give_the_integer_bytes_up_to_300():
    # every 0 <= c_lt <= c_le <= k for each 1 <= k <= 300: the pairs of
    # tril_indices run through c_le in ascending order
    c_le, c_lt = np.tril_indices(301)
    for k in range(1, 301):
        pairs = (k + 1) * (k + 2) // 2
        _same_bytes_from_float_counts(c_le[:pairs], c_lt[:pairs], np.full(pairs, k))


def test_float_counts_give_the_integer_bytes_near_a_million():
    rng = np.random.default_rng(6)
    k = rng.integers(10**6 - 1000, 10**6 + 1000, size=200_000)
    c_le = rng.integers(0, k + 1)
    c_lt = rng.integers(0, c_le + 1)
    _same_bytes_from_float_counts(c_le, c_lt, k)
