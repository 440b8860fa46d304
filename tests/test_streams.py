"""numpy's stream contract: `_streams` draws what numpy's spawned children draw.

Curve i's stream must equal Generator(PCG64(child)) for the i-th child
of the seed, byte for byte, both through the per-curve Generators that
sample_gp reads and through the vectorized `_Streams` that contaminate
and observe draw from.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence

from pofda import simulate
from pofda._streams import _curve_rngs, _curve_states, _Streams
from pofda.core import FunctionalSample, Grid
from pofda.simulate import (
    ContaminationKind,
    ContaminationSpec,
    GpModel,
    ObservationSpec,
    _shift,
    contaminate,
    observe,
    sample_gp,
)

from conftest import draw_mask_reference, flat_curves, numpy_streams


def stream_bytes(rng):
    return (
        rng.random(3).tobytes()
        + rng.standard_normal(4).tobytes()
        + rng.choice(50, size=5, replace=False).tobytes()
    )


def assert_streams_match_numpy(seed, n):
    """_curve_rngs(seed, n) draws what numpy's spawned children draw, byte for byte."""
    seq = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    fresh = SeedSequence(
        seq.entropy,
        spawn_key=seq.spawn_key,
        pool_size=seq.pool_size,
        n_children_spawned=seq.n_children_spawned,
    )
    expected = [stream_bytes(Generator(PCG64(child))) for child in fresh.spawn(n)]
    assert [stream_bytes(rng) for rng in _curve_rngs(seed, n)] == expected


class TestCurveStreams:
    @pytest.mark.parametrize(
        "make_seed",
        [
            lambda: 0,
            lambda: 13,
            lambda: 2**32 - 1,
            lambda: 2**32,
            lambda: 2**70 + 5,
            lambda: (3, 2**40, 0),
            lambda: SeedSequence(5).spawn(3)[2],
            lambda: SeedSequence(5).spawn(3)[1].spawn(4)[3],
            lambda: SeedSequence(7, n_children_spawned=9),
            lambda: SeedSequence(3, pool_size=8),
            lambda: SeedSequence(tuple(range(1, 11)), spawn_key=(4,), pool_size=8),
        ],
        ids=[
            "zero", "int", "int_max32", "int_2_32", "int_wide", "tuple",
            "child", "nested_child", "children_spawned", "pool_8", "long_entropy_pool_8",
        ],
    )
    def test_named_seeds_match_numpy(self, make_seed):
        for n in (1, 2, 9):
            assert_streams_match_numpy(make_seed(), n)

    @given(
        entropy=st.one_of(
            st.integers(0, 2**128),
            st.lists(st.integers(0, 2**64), max_size=10).map(tuple),
        ),
        spawn_key=st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
        pool_size=st.sampled_from([4, 5, 8]),
        spawned=st.integers(0, 10**6),
        n=st.integers(1, 12),
        as_sequence=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_streams_match_numpy(self, entropy, spawn_key, pool_size, spawned, n, as_sequence):
        # Fails loudly if numpy ever changes its seeding instead of
        # silently changing every simulated byte.
        seed = (
            SeedSequence(
                entropy, spawn_key=spawn_key, pool_size=pool_size, n_children_spawned=spawned
            )
            if as_sequence
            else entropy
        )
        assert_streams_match_numpy(seed, n)

    def test_last_child_below_2_32_matches_numpy(self):
        seq = SeedSequence(0, n_children_spawned=2**32 - 2)
        got = [stream_bytes(rng) for rng in _curve_rngs(seq, 2)]
        children = [SeedSequence(0, spawn_key=(2**32 - 2 + i,)) for i in range(2)]
        assert got == [stream_bytes(Generator(PCG64(c))) for c in children]

    def test_child_index_2_32_rejected(self):
        # numpy keeps n_children_spawned in 32 bits: it refuses 2**32 at
        # construction, so index 2**32 is reached by spawning past it.
        with pytest.raises(ValueError, match=re.escape("2**32")):
            next(_curve_rngs(SeedSequence(0, n_children_spawned=2**32 - 1), 2))


# Bounds that hit Lemire's rejection about half the time (2**31 + 1) or
# never (powers of two), plus the widest 32-bit range.
BOUNDS = [0, 1, 2, 3, 6, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2]


@st.composite
def stream_draws(draw, n):
    """One vectorized draw: a nonempty subset of the rows and what they draw."""
    rows = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(rows.size)
    kind = draw(st.sampled_from(["doubles", "bounded", "choice"]))
    if kind == "doubles":
        return rows, kind, (draw(st.integers(0, 6)),)
    if kind == "bounded":
        return rows, kind, (draw(st.sampled_from(BOUNDS) | st.integers(0, 2**32 - 2)),)
    pop = draw(st.integers(1, 40))
    return rows, kind, (pop, draw(st.integers(1, pop)))


class TestVectorStreams:
    """_Streams draws what numpy's Generator draws per curve, byte for byte.

    These fail loudly if numpy ever changes a bit generator or sampler
    that observe and contaminate reproduce.
    """

    @given(seed=st.integers(0, 2**64), n=st.integers(1, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_draws_match_generator(self, seed, n, data):
        # Draws interleave over changing row subsets, as observe's redraws
        # do, so each row's buffered 32-bit half carries across them.
        streams = _Streams(*_curve_states(seed, n))
        gens = numpy_streams(seed, n)
        for _ in range(data.draw(st.integers(1, 12))):
            rows, kind, args = data.draw(stream_draws(n))
            if kind == "doubles":
                got = streams.doubles(rows, *args)
                want = [gens[r].random(*args) for r in rows]
            elif kind == "bounded":
                got = streams.bounded(rows, *args)
                want = [gens[r].integers(0, args[0] + 1) for r in rows]
            else:
                got = streams.choice(rows, *args)
                want = [gens[r].choice(args[0], args[1], replace=False) for r in rows]
            np.testing.assert_array_equal(got, np.array(want).reshape(got.shape))

    def test_lemire_rejection_and_full_choice(self):
        rows = np.arange(5)
        streams = _Streams(*_curve_states(8, 5))
        gens = numpy_streams(8, 5)
        for _ in range(20):
            np.testing.assert_array_equal(
                streams.bounded(rows, 2**31 + 1), [g.integers(0, 2**31 + 2) for g in gens]
            )
            np.testing.assert_array_equal(
                streams.choice(rows, 4, 4), [g.choice(4, 4, replace=False) for g in gens]
            )

    def test_tail_shuffle_choice_matches_generator(self):
        # numpy shuffles a whole arange(pop) when pop > 10000 and
        # m > pop // 50; this spec's interval draw reaches that branch.
        spec = ObservationSpec("intervals", p_obs=0.05, n_intervals=1000)
        pop, m = spec._n_cells() - spec.n_intervals + 1, spec.n_intervals
        assert pop > 10000 and m > pop // 50
        rows = np.arange(2)
        streams = _Streams(*_curve_states(4, 2))
        gens = numpy_streams(4, 2)
        np.testing.assert_array_equal(
            streams.choice(rows, pop, m), [g.choice(pop, m, replace=False) for g in gens]
        )
        np.testing.assert_array_equal(streams.doubles(rows, 2), [g.random(2) for g in gens])
        grid = Grid.uniform(21)
        sample = flat_curves(grid, 2)
        expected = [draw_mask_reference(grid.points, spec, g) for g in numpy_streams(6, 2)]
        np.testing.assert_array_equal(observe(grid, sample, spec, seed=6).mask, expected)

    def test_single_cell_intervals_draw_no_cut(self):
        # One interval at p_obs > 1/2 is a single cell: zero uniforms per
        # attempt, then a choice from one slot, which draws nothing. The
        # cell's length 1 passes the length check from 0.8 on, never below,
        # so a spec between 1/2 and 0.8 is refused at construction.
        grid = Grid.uniform(7)
        curves = flat_curves(grid, 3)
        for p_obs in (0.8, 0.9):
            spec = ObservationSpec("intervals", p_obs=p_obs, n_intervals=1)
            assert spec._n_cells() == 1
            expected = [draw_mask_reference(grid.points, spec, g) for g in numpy_streams(0, 3)]
            np.testing.assert_array_equal(observe(grid, curves, spec, seed=0).mask, expected)
        for p_obs in (0.55, 0.79):
            with pytest.raises(ValueError, match="always covers"):
                ObservationSpec("intervals", p_obs=p_obs, n_intervals=1)

    def test_bounded_needs_32_bit_range(self):
        streams = _Streams(*_curve_states(0, 1))
        with pytest.raises(ValueError, match=re.escape("2**32 - 1")):
            streams.bounded(np.arange(1), 2**32 - 1)

    @given(
        seed=st.integers(0, 2**64),
        n=st.integers(1, 9),
        T=st.integers(3, 30),
        kind=st.sampled_from(["full", "centered", "intervals"]),
        p_obs=st.sampled_from([0.02, 0.05, 0.2, 0.5, 0.55, 0.8, 1.0]),
        n_intervals=st.integers(1, 3),
        premasked=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_observe_matches_per_curve_reference(
        self, seed, n, T, kind, p_obs, n_intervals, premasked, data
    ):
        try:
            spec = ObservationSpec(kind, p_obs=p_obs, n_intervals=n_intervals)
        except ValueError:
            assume(False)
        grid = Grid.uniform(T)
        within = np.ones((n, T), dtype=bool)
        if premasked:
            # Sparse prior masks make tiny p_obs redraw-heavy.
            within = np.array(data.draw(st.lists(
                st.lists(st.booleans(), min_size=T, max_size=T), min_size=n, max_size=n
            )))
            within[np.arange(n), data.draw(st.lists(st.integers(0, T - 1), min_size=n, max_size=n))] = True
        sample = FunctionalSample(grid, np.zeros((n, T)), within)
        try:
            expected = [
                draw_mask_reference(grid.points, spec, g, within[i])
                for i, g in enumerate(numpy_streams(seed, n))
            ]
        except RuntimeError:
            with pytest.raises(RuntimeError, match="stayed empty"):
                observe(grid, sample, spec, seed)
            return
        np.testing.assert_array_equal(observe(grid, sample, spec, seed).mask, expected)

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    @pytest.mark.parametrize(
        "spec",
        [ObservationSpec("centered", p_obs=0.03), ObservationSpec("intervals", p_obs=0.3, n_intervals=2)],
        ids=["centered", "intervals"],
    )
    def test_row_blocks_change_no_byte(self, spec, block_rows):
        # 20 grid points put none at 0.5, so narrow centered masks miss
        # most curves and are redrawn; prior masks add misses for both kinds.
        grid = Grid.uniform(20)
        within = np.add.outer(np.arange(17), np.arange(20)) % 2 == 0
        sample = FunctionalSample(grid, np.zeros((17, 20)), within)
        whole = observe(grid, sample, spec, seed=5).mask
        with mock.patch.object(simulate, "_BLOCK_BYTES", block_rows * grid.size):
            blocked = observe(grid, sample, spec, seed=5).mask
        expected = [
            draw_mask_reference(grid.points, spec, g, within[i])
            for i, g in enumerate(numpy_streams(5, 17))
        ]
        np.testing.assert_array_equal(whole, expected)
        np.testing.assert_array_equal(blocked, expected)

    @given(
        seed=st.integers(0, 2**64),
        n=st.integers(1, 12),
        kind=st.sampled_from(["sym", "asym", "partial"]),
        q=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_contaminate_matches_per_curve_reference(self, seed, n, kind, q):
        grid = Grid.uniform(15)
        curves = sample_gp(GpModel(grid=grid, theta=3.0), n, seed=1)
        u = np.array([g.random(3) for g in numpy_streams(seed, n)])
        expected = curves.values + _shift(
            grid.points, ContaminationKind(kind), 5.0,
            flags=np.where(u[:, 0] < q, 1.0, 0.0),
            signs=np.where(u[:, 1] < 0.5, 1.0, -1.0),
            onsets=u[:, 2],
        )
        got = contaminate(grid, curves, ContaminationSpec(kind, q=q, magnitude=5.0), seed)
        np.testing.assert_array_equal(got.values, expected)
