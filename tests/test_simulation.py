import hashlib
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence, default_rng

from pofda import simulate
from pofda.core import FunctionalSample, Grid, PartialCurve, build_sample
from pofda.simulate import (
    ContaminationSpec,
    GpModel,
    ObservationSpec,
    _cached_factor,
    _curve_rngs,
    _curve_states,
    _draw_mask,
    _Streams,
    apply_contamination,
    contaminate,
    observe,
    sample_gp,
    simulate_sample,
)

from conftest import count_mask_runs


@pytest.fixture
def grid():
    return Grid.uniform(21)


@pytest.fixture
def model(grid):
    return GpModel(grid=grid, theta=4.0)


def flat_curves(grid, n, level=0.0):
    return build_sample(
        grid, [PartialCurve.fully_observed(np.full(grid.size, level)) for _ in range(n)]
    )


def other_grids(grid):
    """A grid of the same size with other points, and a grid of another size."""
    return Grid(grid.points**2), Grid.uniform(grid.size + 1)


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


def numpy_streams(seed, n):
    """Generator(PCG64(child)) for numpy's own spawned children of the seed."""
    return [Generator(PCG64(child)) for child in SeedSequence(seed).spawn(n)]


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
        expected = [_draw_mask(grid.points, spec, g) for g in numpy_streams(6, 2)]
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
            expected = [_draw_mask(grid.points, spec, g) for g in numpy_streams(0, 3)]
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
                _draw_mask(grid.points, spec, g, within[i])
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
            _draw_mask(grid.points, spec, g, within[i]) for i, g in enumerate(numpy_streams(5, 17))
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
        expected = apply_contamination(
            grid, curves, kind, 5.0,
            flags=np.where(u[:, 0] < q, 1.0, 0.0),
            signs=np.where(u[:, 1] < 0.5, 1.0, -1.0),
            onsets=u[:, 2],
        )
        got = contaminate(grid, curves, ContaminationSpec(kind, q=q, magnitude=5.0), seed)
        np.testing.assert_array_equal(got.values, expected.values)


class TestGpModel:
    def test_covariance_unit_diagonal(self, model):
        cov = model.covariance()
        np.testing.assert_array_equal(np.diag(cov), np.ones(model.grid.size))
        np.testing.assert_allclose(cov, cov.T)

    def test_covariance_decay(self, model):
        cov = model.covariance()
        t = model.grid.points
        assert cov[0, -1] == pytest.approx(0.5 ** (abs(t[-1] - t[0]) * 4.0))

    def test_theta_validation(self, grid):
        with pytest.raises(ValueError):
            GpModel(grid=grid, theta=0.0)
        with pytest.raises(ValueError):
            GpModel(grid=grid, theta=np.inf)

    def test_trend_values(self, model):
        np.testing.assert_allclose(model.trend_values(), 4.0 * model.grid.points)


class TestSampleGp:
    def test_deterministic(self, model):
        a = sample_gp(model, 5, seed=42)
        b = sample_gp(model, 5, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_per_curve_streams_are_order_independent(self, model):
        # curve i depends only on the i-th spawned child, not on n
        curves = sample_gp(model, 4, seed=9)
        L = np.linalg.cholesky(model.covariance())
        g = model.trend_values()
        children = SeedSequence(9).spawn(4)
        for i, child in enumerate(children):
            z = default_rng(child).standard_normal(model.grid.size)
            np.testing.assert_array_equal(curves.values[i], g + L @ z)

    def test_reused_seed_sequence_gives_same_sample(self, model):
        # A SeedSequence seed is read, not spawned from: reusing the object
        # repeats the sample, as reusing an int seed does.
        seq = SeedSequence(42)
        first = sample_gp(model, 5, seq)
        np.testing.assert_array_equal(first.values, sample_gp(model, 5, seq).values)
        np.testing.assert_array_equal(first.values, sample_gp(model, 5, 42).values)
        assert seq.n_children_spawned == 0

    def test_fully_observed_output(self, model):
        assert sample_gp(model, 3, seed=1).mask.all()

    def test_near_singular_covariance_survives_jitter(self, grid):
        # theta -> 0 makes the covariance nearly all ones (rank one)
        model = GpModel(grid=grid, theta=1e-9)
        assert np.isfinite(sample_gp(model, 2, seed=3).values).all()

    def test_mean_close_to_trend(self, model):
        X = sample_gp(model, 2000, seed=11).values
        dev = np.abs(X.mean(axis=0) - model.trend_values())
        assert dev.max() < 4.0 / np.sqrt(2000) * 2  # generous CLT envelope


class TestContaminate:
    def test_q_zero_is_identity(self, grid):
        curves = flat_curves(grid, 4, level=1.5)
        out = contaminate(grid, curves, ContaminationSpec("sym", q=0.0, magnitude=25.0), seed=5)
        np.testing.assert_array_equal(curves.values, out.values)

    def test_magnitude_zero_is_identity(self, grid):
        curves = flat_curves(grid, 4)
        out = contaminate(grid, curves, ContaminationSpec("asym", q=1.0, magnitude=0.0), seed=5)
        np.testing.assert_array_equal(curves.values, out.values)

    def test_none_kind_passthrough(self, grid):
        curves = flat_curves(grid, 2)
        out = contaminate(grid, curves, ContaminationSpec("none"), seed=0)
        assert out.values.tolist() == curves.values.tolist()

    def test_partial_forced_draws(self, grid):
        curves = flat_curves(grid, 1)
        out = apply_contamination(
            grid, curves, "partial", 25.0, flags=[1.0], signs=[1.0], onsets=[0.5]
        )
        shifted = grid.points >= 0.5
        np.testing.assert_array_equal(out.values[0, shifted], 25.0)
        np.testing.assert_array_equal(out.values[0, ~shifted], 0.0)

    def test_sym_equals_asym_with_positive_signs(self, grid):
        curves = flat_curves(grid, 3, level=2.0)
        flags = [1.0, 0.0, 1.0]
        sym = apply_contamination(
            grid, curves, "sym", 5.0, flags=flags, signs=[1.0] * 3, onsets=[0.0] * 3
        )
        asym = apply_contamination(
            grid, curves, "asym", 5.0, flags=flags, signs=[-1.0] * 3, onsets=[0.0] * 3
        )
        np.testing.assert_array_equal(sym.values, asym.values)

    def test_unflagged_curves_exact(self, grid):
        curves = flat_curves(grid, 2, level=3.0)
        out = apply_contamination(
            grid, curves, "sym", 25.0, flags=[0.0, 1.0], signs=[1.0, -1.0], onsets=[0.0, 0.0]
        )
        np.testing.assert_array_equal(out.values[0], curves.values[0])
        np.testing.assert_array_equal(out.values[1], curves.values[1] - 25.0)

    def test_deterministic(self, grid):
        curves = flat_curves(grid, 10)
        spec = ContaminationSpec("partial", q=0.5, magnitude=7.0)
        a = contaminate(grid, curves, spec, seed=3)
        b = contaminate(grid, curves, spec, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_partial_curve_input(self, grid):
        partial = PartialCurve(np.zeros(grid.size), np.arange(grid.size) % 2 == 0)
        with pytest.raises(ValueError):
            contaminate(
                grid,
                build_sample(grid, [partial]),
                ContaminationSpec("sym", q=1.0, magnitude=1.0),
                seed=0,
            )

    def test_rejects_other_grid(self, grid):
        curves = flat_curves(grid, 3)
        for other in other_grids(grid):
            for kind in ("sym", "asym", "partial"):
                spec = ContaminationSpec(kind, q=1.0, magnitude=1.0)
                with pytest.raises(ValueError, match="sample's grid"):
                    contaminate(other, curves, spec, seed=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ContaminationSpec("sym", q=1.5, magnitude=1.0)
        with pytest.raises(ValueError):
            ContaminationSpec("sym", q=0.5, magnitude=-1.0)


class TestObserve:
    def test_full_coverage_one(self, grid):
        s = observe(grid, flat_curves(grid, 4), ObservationSpec("full"), seed=0)
        np.testing.assert_array_equal(s.coverage, np.ones(grid.size))

    def test_centered_single_run_and_straddles_half(self, grid):
        s = observe(
            grid, flat_curves(grid, 50), ObservationSpec("centered", p_obs=0.5), seed=2
        )
        below = np.searchsorted(grid.points, 0.5, side="right") - 1
        above = below + 1
        for i in range(s.n_curves):
            assert count_mask_runs(s.mask[i]) == 1
            assert s.mask[i, below] or s.mask[i, above]

    def test_centered_masks_deterministic(self, grid):
        spec = ObservationSpec("centered", p_obs=0.5)
        a = observe(grid, flat_curves(grid, 6), spec, seed=8)
        b = observe(grid, flat_curves(grid, 6), spec, seed=8)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_centered_fraction_near_p(self):
        grid = Grid.uniform(201)
        curves = build_sample(
            grid, [PartialCurve.fully_observed(np.zeros(201)) for _ in range(2000)]
        )
        s = observe(grid, curves, ObservationSpec("centered", p_obs=0.5), seed=4)
        assert abs(s.mask.mean() - 0.5) < 0.02

    def test_intervals_run_count_bounded(self, grid):
        spec = ObservationSpec("intervals", p_obs=0.5, n_intervals=3)
        s = observe(grid, flat_curves(grid, 40), spec, seed=6)
        for i in range(s.n_curves):
            assert 1 <= count_mask_runs(s.mask[i]) <= 3

    def test_redraw_budget_is_per_curve(self):
        # Centered intervals with p_obs 0.2 lie inside [0.3, 0.7], so a curve
        # seen only at t = 0 is never hit: each draw takes two uniforms, and
        # the curve gives up after 1000 draws, however the misses arise.
        grid = Grid.uniform(11)
        base = build_sample(grid, [PartialCurve(np.zeros(11), grid.points == 0.0)])

        class CountingRng:
            calls = 0

            def random(self):
                CountingRng.calls += 1
                return 0.5

        with pytest.raises(RuntimeError, match="stayed empty"):
            _draw_mask(grid.points, ObservationSpec("centered", p_obs=0.2),
                       CountingRng(), base.mask[0])
        assert CountingRng.calls == 2 * 1000
        with pytest.raises(RuntimeError, match="stayed empty"):
            observe(grid, base, ObservationSpec("centered", p_obs=0.2), seed=1)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_n_intervals_must_be_integer(self, bad):
        message = re.escape(f"n_intervals must be an integer, got {bad!r}")
        for kind in ("intervals", "centered"):
            with pytest.raises(ValueError, match=message):
                ObservationSpec(kind, p_obs=0.5, n_intervals=bad)

    def test_intervals_infeasible_combo_rejected(self):
        with pytest.raises(ValueError):
            ObservationSpec("intervals", p_obs=0.9, n_intervals=5)

    def test_p_obs_validation(self):
        with pytest.raises(ValueError):
            ObservationSpec("centered", p_obs=0.0)
        with pytest.raises(ValueError):
            ObservationSpec("centered", p_obs=1.2)

    def test_respects_existing_masks(self, grid):
        keep = grid.points <= 0.6
        base = PartialCurve(np.zeros(grid.size), keep)
        s = observe(
            grid, build_sample(grid, [base] * 5), ObservationSpec("centered", p_obs=0.5), seed=9
        )
        assert not s.mask[:, ~keep].any()

    def test_curve_length_checked(self, grid):
        wrong = flat_curves(Grid.uniform(grid.size + 1), 1)
        with pytest.raises(ValueError):
            observe(grid, wrong, ObservationSpec("full"), seed=0)

    def test_rejects_other_grid(self, grid):
        curves = flat_curves(grid, 3)
        for other in other_grids(grid):
            for spec in (ObservationSpec("full"), ObservationSpec("centered", p_obs=0.5)):
                with pytest.raises(ValueError, match="sample's grid"):
                    observe(other, curves, spec, seed=0)


class TestSimulateSampleSeeds:
    def test_stage_split_past_spawn_counter_rejected(self, model):
        # numpy's spawn(3) never returns once the root's 32-bit spawn
        # counter would reach 2**32; the split must refuse it first.
        root = SeedSequence(0, n_children_spawned=2**32 - 3)
        spec = (ContaminationSpec("none"), ObservationSpec("full"))
        with pytest.raises(ValueError, match=re.escape("2**32 - 1")):
            simulate_sample(model, 2, *spec, root_seed=root)
        assert root.n_children_spawned == 2**32 - 3

    def test_last_stage_split_below_counter_limit(self, model):
        root = SeedSequence(0, n_children_spawned=2**32 - 4)
        spec = (ContaminationSpec("none"), ObservationSpec("full"))
        s = simulate_sample(model, 2, *spec, root_seed=root)
        gp_seed = SeedSequence(0, spawn_key=(2**32 - 4,))
        np.testing.assert_array_equal(s.values, sample_gp(model, 2, gp_seed).values)


def test_pipeline_determinism_end_to_end(grid):
    model = GpModel(grid=grid, theta=4.0)

    def run():
        curves = sample_gp(model, 12, seed=100)
        curves = contaminate(
            grid, curves, ContaminationSpec("sym", q=0.2, magnitude=10.0), seed=101
        )
        return observe(grid, curves, ObservationSpec("centered", p_obs=0.6), seed=102)

    a, b = run(), run()
    np.testing.assert_array_equal(a.mask, b.mask)
    np.testing.assert_array_equal(
        a.values[a.mask], b.values[b.mask]
    )


# sha256 of values.tobytes() + mask.tobytes() for simulate_sample(model, 9,
# ...) with theta 6 on a 17-point grid, root seed 11, q 0.5, M 3, p_obs 0.5,
# two intervals. Recorded from the per-curve object pipeline this one
# replaced; a change in any stage's bytes shows up here.
PINNED_SAMPLE_SHA256 = {
    ("none", "full"): "63afa29c8b4135eb78752801044daca9a5b457ed1684d3169b2bc94a7f44a407",
    ("none", "intervals"): "1ac408e08aec4b997eb32601267f8c9cd07e08503507eed490330c054c107def",
    ("none", "centered"): "40659db69c11d24d7d712f37134b9f2b55b184bc40e9e91133fd1de9e3d266f7",
    ("sym", "full"): "3a9e67a13c6d011d1480a7f37b3db6b55a2f6645d31dc8e829952ca80a4f8987",
    ("sym", "intervals"): "dd346d65c50aa5a68d8f49c72dc56d65151fdc6292703c496e2b6c66a9e0acac",
    ("sym", "centered"): "5552cc17060d2cd8beb0936e5ccfc20bcee2445306744245e92d35c2a7f92b88",
    ("asym", "full"): "7a5aa41bc424d01b3f658f1e0c4cead5b85517f5b5a7e37894ab74bd158e7ce2",
    ("asym", "intervals"): "ad4fdfc24c985e1825f0d0b5bdd3a523183370d5d9b66da25a505f064f97095b",
    ("asym", "centered"): "fe093d1b46888fff3edc9e2006ceb897d50e2514b535676d692f3dcf2dbde840",
    ("partial", "full"): "9c41683b77a7602f55be1a39bc400aff8f8029b4b003c198d1a0659cbfc63316",
    ("partial", "intervals"): "872b2b0e3916ca249146425d5fc34697a7ae069af36649c06c0457b0dbf3619f",
    ("partial", "centered"): "41e313c8fc0965db5af26af55a93f397fcf64ce7d1753055b95d6ebb40990fd0",
}


@pytest.mark.parametrize(
    "contamination, observation",
    list(itertools.product(["none", "sym", "asym", "partial"], ["full", "intervals", "centered"])),
)
def test_pipeline_bytes_pinned(contamination, observation):
    model = GpModel(grid=Grid.uniform(17), theta=6.0)
    s = simulate_sample(
        model,
        9,
        ContaminationSpec(contamination, q=0.5, magnitude=3.0),
        ObservationSpec(observation, p_obs=0.5, n_intervals=2),
        root_seed=11,
    )
    digest = hashlib.sha256(s.values.tobytes() + s.mask.tobytes()).hexdigest()
    assert digest == PINNED_SAMPLE_SHA256[(contamination, observation)]


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("centered", "6d0059109f01a2c737b504a6801586c4209a742af865458d35b568814b2ed43a"),
        ("intervals", "12db368811b76d58b2186894ac46a86bc61b71f68a4ac762a398b1c00d615ad4"),
    ],
)
def test_redrawn_masks_pinned(kind, digest):
    # Curves seen only on [0.15, 0.32]: 5 (centered) and 2 (intervals) of
    # the 12 first draws miss that window and are redrawn. Digests
    # recorded from the per-curve loop.
    grid = Grid.uniform(101)
    keep = (grid.points >= 0.15) & (grid.points <= 0.32)
    base = build_sample(grid, [PartialCurve(np.arange(101.0), keep) for _ in range(12)])
    s = observe(grid, base, ObservationSpec(kind, p_obs=0.5, n_intervals=2), seed=21)
    assert hashlib.sha256(s.mask.tobytes()).hexdigest() == digest


class TestCovarianceFactorCache:
    def test_equal_grids_share_one_factor(self):
        a = GpModel(grid=Grid.uniform(30), theta=7.0)
        b = GpModel(grid=Grid.uniform(30), theta=7.0)
        assert a.grid is not b.grid
        assert a.covariance_factor() is b.covariance_factor()

    def test_same_size_other_points_or_theta_differ(self):
        uniform = GpModel(grid=Grid.uniform(30), theta=7.0)
        uneven = GpModel(grid=Grid(np.linspace(0.0, 1.0, 30) ** 2), theta=7.0)
        faster = GpModel(grid=Grid.uniform(30), theta=8.0)
        L = uniform.covariance_factor()
        for other in (uneven, faster):
            assert other.covariance_factor() is not L
            np.testing.assert_array_equal(
                other.covariance_factor(), np.linalg.cholesky(other.covariance())
            )
        assert not np.array_equal(uneven.covariance_factor(), L)
        assert not np.array_equal(faster.covariance_factor(), L)

    def test_factor_read_only(self):
        L = GpModel(grid=Grid.uniform(12), theta=3.0).covariance_factor()
        with pytest.raises(ValueError):
            L[0, 0] = 2.0

    def test_factor_is_computed_once(self, monkeypatch):
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or real(a))
        _cached_factor.cache_clear()
        model = GpModel(grid=Grid.uniform(14), theta=5.0)
        first = sample_gp(model, 3, seed=1)
        second = sample_gp(GpModel(grid=Grid.uniform(14), theta=5.0), 3, seed=1)
        assert len(calls) == 1
        np.testing.assert_array_equal(first.values, second.values)


def test_curves_are_read_only_row_views(model):
    s = sample_gp(model, 4, seed=2)
    for i, curve in enumerate(s.curves):
        assert np.shares_memory(curve.values, s.values[i])
        assert np.shares_memory(curve.mask, s.mask[i])
        with pytest.raises(ValueError):
            curve.values[0] = 0.0
        with pytest.raises(ValueError):
            curve.mask[0] = False
    assert s.curves is s.curves
