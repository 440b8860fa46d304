import hashlib
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from pofda.consistency import population_coverage
from pofda.core import Grid, PartialCurve, build_sample
from pofda.simulate import (
    ContaminationKind,
    ContaminationSpec,
    GpModel,
    ObservationKind,
    ObservationSpec,
    _BLOCK_BYTES,
    _cached_factor,
    _gp_values,
    _shift,
    contaminate,
    observe,
    sample_gp,
    simulate_sample,
)
from pofda.trimming import resolved_keep_count

from conftest import count_mask_runs, draw_mask_reference, flat_curves


@pytest.fixture
def grid():
    return Grid.uniform(21)


@pytest.fixture
def model(grid):
    return GpModel(grid=grid, theta=4.0)


def forced_shift(grid, kind, magnitude, flags, signs, onsets):
    """`_shift` on the grid with explicitly supplied per-curve draws."""
    draws = (np.asarray(d, dtype=float) for d in (flags, signs, onsets))
    return _shift(grid.points, ContaminationKind(kind), magnitude, *draws)


def other_grids(grid):
    """A grid of the same size with other points, and a grid of another size."""
    return Grid(grid.points**2), Grid.uniform(grid.size + 1)


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

    @pytest.mark.parametrize(
        "bad, message",
        [(True, "n must be an integer, got True"), (2.0, "n must be an integer, got 2.0"),
         (0, "need at least one curve")],
    )
    def test_n_must_be_a_positive_integer(self, model, bad, message):
        spec = (ContaminationSpec("none"), ObservationSpec("full"))
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_gp(model, bad, seed=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_sample(model, bad, *spec, root_seed=1)

    def test_fully_observed_output(self, model):
        assert sample_gp(model, 3, seed=1).mask.all()

    def test_near_singular_covariance_survives_jitter(self):
        # theta -> 0 makes the covariance nearly all ones (rank one): on 200
        # points at theta = 1e-15 the plain factorization fails and a
        # jittered one succeeds. No other test factors this (grid, theta)
        # pair, so the factor cache cannot skip the retries
        model = GpModel(grid=Grid.uniform(200), theta=1e-15)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(model.covariance())
        with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
            values = sample_gp(model, 2, seed=3).values
        assert cholesky.call_count > 1
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("T, theta", [(200, 80.0), (1000, 10.0)])
    def test_rows_follow_the_ou_recursion(self, T, theta):
        # the exponential covariance is Markov (Ornstein-Uhlenbeck): each
        # row minus the trend is the scalar recursion x_0 = z_0,
        # x_k = s_k z_k + rho_k x_{k-1} on the curve's own normals z, with
        # rho_k = 0.5 ** (theta * dt_k) and s_k = sqrt(1 - rho_k^2)
        model = GpModel(grid=Grid.uniform(T), theta=theta)
        n = 4
        rows = sample_gp(model, n, seed=5).values - model.trend_values()
        rho = 0.5 ** (theta * np.diff(model.grid.points))
        scale = np.sqrt(1.0 - rho**2)
        for row, child in zip(rows, SeedSequence(5).spawn(n)):
            z = default_rng(child).standard_normal(T)
            x = np.empty(T)
            x[0] = z[0]
            for k in range(1, T):
                x[k] = scale[k - 1] * z[k] + rho[k - 1] * x[k - 1]
            np.testing.assert_allclose(row, x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("T", [2, 3, 101, 200])
    @pytest.mark.parametrize(
        "make_seed",
        [
            lambda: 17,
            lambda: (4, 2**40, 9),
            lambda: SeedSequence((5, 6, 7), spawn_key=(2, 1), pool_size=8, n_children_spawned=3),
        ],
        ids=["int", "tuple", "sequence"],
    )
    def test_stacked_rows_equal_lone_products(self, T, make_seed):
        # each block of rows is one stacked matmul; every row keeps the
        # bytes of a lone L @ z on its child's normals, on either side of
        # a block edge
        model = GpModel(grid=Grid.uniform(T), theta=30.0)
        L = model.covariance_factor()
        block = min(T, _BLOCK_BYTES // (8 * T))
        for n in sorted({1, 2, block - 1, block, block + 1} - {0}):
            seq = make_seed()
            seq = seq if isinstance(seq, SeedSequence) else SeedSequence(seq)
            rows = [L @ default_rng(child).standard_normal(T) for child in seq.spawn(n)]
            expected = np.array(rows) + model.trend_values()
            assert _gp_values(model, n, make_seed()).tobytes() == expected.tobytes(), n

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

    # The shift step fed explicit draws: contaminate adds its result to
    # the fully observed values.

    def test_partial_forced_draws(self, grid):
        curves = flat_curves(grid, 1)
        out = curves.values + forced_shift(grid, "partial", 25.0, [1.0], [1.0], [0.5])
        shifted = grid.points >= 0.5
        np.testing.assert_array_equal(out[0, shifted], 25.0)
        np.testing.assert_array_equal(out[0, ~shifted], 0.0)

    def test_sym_equals_asym_with_positive_signs(self, grid):
        curves = flat_curves(grid, 3, level=2.0)
        flags = [1.0, 0.0, 1.0]
        sym = curves.values + forced_shift(grid, "sym", 5.0, flags, [1.0] * 3, [0.0] * 3)
        asym = curves.values + forced_shift(grid, "asym", 5.0, flags, [-1.0] * 3, [0.0] * 3)
        np.testing.assert_array_equal(sym, asym)

    def test_unflagged_curves_exact(self, grid):
        curves = flat_curves(grid, 2, level=3.0)
        out = curves.values + forced_shift(grid, "sym", 25.0, [0.0, 1.0], [1.0, -1.0], [0.0, 0.0])
        np.testing.assert_array_equal(out[0], curves.values[0])
        np.testing.assert_array_equal(out[1], curves.values[1] - 25.0)

    def test_deterministic(self, grid):
        curves = flat_curves(grid, 10)
        spec = ContaminationSpec("partial", q=0.5, magnitude=7.0)
        a = contaminate(grid, curves, spec, seed=3)
        b = contaminate(grid, curves, spec, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_partial_curve_input(self, grid):
        partial = PartialCurve(np.zeros(grid.size), np.arange(grid.size) % 2 == 0)
        for kind in ("none", "sym"):
            with pytest.raises(ValueError, match="fully observed"):
                contaminate(
                    grid,
                    build_sample(grid, [partial]),
                    ContaminationSpec(kind, q=1.0, magnitude=1.0),
                    seed=0,
                )

    def test_rejects_other_grid(self, grid):
        curves = flat_curves(grid, 3)
        for other in other_grids(grid):
            for kind in ("none", "sym", "asym", "partial"):
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
            draw_mask_reference(
                grid.points, ObservationSpec("centered", p_obs=0.2), CountingRng(), base.mask[0]
            )
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


def staged(model, n, contamination, observation, seeds):
    """The three stages fed explicit stage seeds: simulate_sample's oracle."""
    gp_seed, cont_seed, obs_seed = seeds
    sample = contaminate(model.grid, sample_gp(model, n, gp_seed), contamination, cont_seed)
    return observe(model.grid, sample, observation, obs_seed)


def assert_same_sample(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert a.mask.tobytes() == b.mask.tobytes()


class TestSimulateSampleSeeds:
    SPEC = (ContaminationSpec("sym", q=0.5, magnitude=3.0), ObservationSpec("centered", p_obs=0.5))

    def test_stage_split_past_spawn_counter_rejected(self, model):
        # The stage seeds are the root's children first .. first + 2, and
        # numpy's spawn keeps child indices below 2**32.
        root = SeedSequence(0, n_children_spawned=2**32 - 2)
        with pytest.raises(ValueError, match=re.escape("2**32")):
            simulate_sample(model, 2, *self.SPEC, root_seed=root)
        assert root.n_children_spawned == 2**32 - 2
        root = SeedSequence(0, n_children_spawned=2**32 - 3)
        s = simulate_sample(model, 2, *self.SPEC, root_seed=root)
        stages = [SeedSequence(0, spawn_key=(2**32 - 3 + i,)) for i in range(3)]
        assert_same_sample(s, staged(model, 2, *self.SPEC, stages))
        assert root.n_children_spawned == 2**32 - 3

    def test_reused_root_sequence_repeats_sample(self, model):
        # The root is read, not spawned from: reusing the object repeats
        # the sample, whose stages are numpy's own spawn(3) children.
        root = SeedSequence(5)
        first = simulate_sample(model, 6, *self.SPEC, root_seed=root)
        second = simulate_sample(model, 6, *self.SPEC, root_seed=root)
        assert root.n_children_spawned == 0
        expected = staged(model, 6, *self.SPEC, SeedSequence(5).spawn(3))
        assert_same_sample(first, expected)
        assert_same_sample(second, expected)

    def test_last_stage_split_below_counter_limit(self, model):
        root = SeedSequence(0, n_children_spawned=2**32 - 4)
        spec = (ContaminationSpec("none"), ObservationSpec("full"))
        s = simulate_sample(model, 2, *spec, root_seed=root)
        gp_seed = SeedSequence(0, spawn_key=(2**32 - 4,))
        np.testing.assert_array_equal(s.values, sample_gp(model, 2, gp_seed).values)


@pytest.mark.parametrize(
    "seed",
    [
        None,
        True,
        False,
        pytest.param((True, 3), id="nested_bool"),
        pytest.param((1, None), id="nested_none"),
        pytest.param([0, [False]], id="deep_bool"),
        pytest.param((1, "2"), id="nested_str"),
        pytest.param(SeedSequence((1, "2")), id="sequence_entropy_str"),
        pytest.param(bytearray(b"ab"), id="bytearray"),
        pytest.param(memoryview(b"ab"), id="memoryview"),
        pytest.param([bytearray(b"a")], id="nested_bytearray"),
        pytest.param((1, [memoryview(b"a")]), id="deep_memoryview"),
    ],
)
def test_every_stage_requires_a_repeatable_seed(model, grid, seed):
    # None would draw fresh OS entropy on every call, a bool is no seed,
    # numpy would parse text as an int, and bytes are no ints though a
    # bytearray or memoryview yields them: at any depth of a sequence.
    # Every kind reads the seed, also those that draw nothing.
    full = sample_gp(model, 3, seed=1)
    with pytest.raises(ValueError, match="seed must be"):
        sample_gp(model, 3, seed)
    for kind in ("none", "sym"):
        with pytest.raises(ValueError, match="seed must be"):
            contaminate(grid, full, ContaminationSpec(kind, q=0.5, magnitude=1.0), seed)
    with pytest.raises(ValueError, match="seed must be"):
        observe(grid, full, ObservationSpec("full"), seed)
    with pytest.raises(ValueError, match="seed must be"):
        simulate_sample(model, 3, ContaminationSpec("none"), ObservationSpec("full"), seed)
    for kind in ObservationKind:
        spec = ObservationSpec(kind, p_obs=0.5, n_intervals=2)
        with pytest.raises(ValueError, match="seed must be"):
            population_coverage(spec, grid, mc_draws=10, seed=seed)


@pytest.mark.parametrize("bad", [True, "a", None])
def test_real_parameters_reject_non_real_numbers(grid, bad):
    # each type checks the numbers it reads, bools included
    builds = {
        "theta": lambda: GpModel(grid=grid, theta=bad),
        "q": lambda: ContaminationSpec("sym", q=bad),
        "magnitude": lambda: ContaminationSpec("sym", magnitude=bad),
        "p_obs": lambda: ObservationSpec("centered", p_obs=bad),
        "alpha": lambda: resolved_keep_count(5, bad),
    }
    for name, build in builds.items():
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, got {bad!r}")):
            build()


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
# replaced; a change in any stage's bytes shows up here. The public stages
# chained on the root's spawn(3) must give the same bytes: simulate_sample
# runs their steps on bare matrices, a second code path.
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


def chained_stages(model, n, contamination, observation, root_seed):
    return staged(model, n, contamination, observation, SeedSequence(root_seed).spawn(3))


@pytest.mark.parametrize(
    "pipeline, contamination, observation",
    [
        pytest.param(pipeline, c, o, id=f"{prefix}{c}-{o}")
        for pipeline, prefix in ((simulate_sample, ""), (chained_stages, "stages-"))
        for c, o in itertools.product(
            ["none", "sym", "asym", "partial"], ["full", "intervals", "centered"]
        )
    ],
)
def test_pipeline_bytes_pinned(pipeline, contamination, observation):
    model = GpModel(grid=Grid.uniform(17), theta=6.0)
    s = pipeline(
        model,
        9,
        ContaminationSpec(contamination, q=0.5, magnitude=3.0),
        ObservationSpec(observation, p_obs=0.5, n_intervals=2),
        11,
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


@pytest.mark.parametrize("kind", ["sym", "asym", "partial"])
def test_stages_adopt_only_their_own_arrays(model, kind):
    """Each stage takes over the value matrix it builds, never its input's."""
    grid = model.grid
    stages = [
        lambda _: sample_gp(model, 30, seed=3),
        lambda s: contaminate(grid, s, ContaminationSpec(kind, q=0.5, magnitude=4.0), seed=4),
        lambda s: observe(grid, s, ObservationSpec("intervals", p_obs=0.5, n_intervals=2), seed=5),
    ]
    inputs = []
    sample = None
    for stage in stages:
        before = [(s, s.values.tobytes(), s.mask.tobytes()) for s in inputs]
        out = stage(sample)
        for s, values, mask in before:
            assert s.values.tobytes() == values and s.mask.tobytes() == mask
        for arr in (out.values, out.mask, out.counts, out.coverage):
            assert not arr.flags.writeable
        for s in inputs:
            assert not np.shares_memory(out.values, s.values)
        assert np.isnan(out.values[~out.mask]).all()
        inputs.append(out)
        sample = out
    assert not inputs[-1].mask.all()  # observe wrote NaN into its own copy only
