"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here, not calibrated elsewhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import math
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from pofda.consistency import convergence_probe, default_probe_curves
from pofda.core import FunctionalSample, Grid, PartialCurve, build_sample
from pofda.depths import DepthKind
from pofda.harness import reproduce_tables
from pofda.metrics import integrated_error
from pofda.poifd import ifd, poifd_all, poifd_of
from pofda.simulate import (
    ContaminationSpec,
    GpModel,
    ObservationSpec,
    observe,
    sample_gp,
    simulate_sample,
)
from pofda.trimming import ordinary_mean, select_trim, trimmed_mean

from conftest import read_csv

TABLE_SEEDS = (7, 42, 88)
# sha256 of the seed-13 table1..table4 bytes, concatenated in that order
SEED13_TABLES_SHA256 = "98970605e31e1789525d2e62b97ce6bdf480f4b3ab457ff24a9aa83327d7a5f1"
# the same four tables as text; a re-pin regenerates them, so the diff
# shows each cell that moved
SEED13_TABLES = Path(__file__).parent / "data" / "seed13"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def test_criterion_1_robustness_reproduction(tmp_path):
    """Heavy contamination rows: trimmed beats ordinary, ratio >= 3 in >= 20/24."""
    failures = []
    ratio_counts = {}
    for seed in TABLE_SEEDS:
        paths = reproduce_tables(tmp_path / f"seed{seed}", seed=seed)
        heavy = [
            row
            for header, rows in map(read_csv, paths)
            for row in (dict(zip(header, cells)) for cells in rows)
            if float(row["M"]) == 25.0
        ]
        assert len(heavy) == 24
        good_ratio = 0
        for row in heavy:
            e, e_trim, med, med_trim = (float(row[k]) for k in ("E", "E_trim", "Med", "Med_trim"))
            if not (e_trim < e):
                failures.append((seed, row["pollution_type"], "E_trim >= E"))
            if not (med_trim < med):
                failures.append((seed, row["pollution_type"], "Med_trim >= Med"))
            if e / e_trim >= 3.0:
                good_ratio += 1
        ratio_counts[seed] = good_ratio
        if good_ratio < 20:
            failures.append((seed, "ratio>=3 count", good_ratio))
    ok = not failures
    report(1, "robustness-reproduction", ok, f"ratio counts {ratio_counts}")
    assert ok, failures


def test_criterion_2_full_observation_reduction():
    """POIFD on fully observed samples equals IFD(uniform) to 1e-12."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        T = int(rng.integers(2, 201))
        grid = Grid.uniform(T)
        values = rng.normal(size=(n, T))
        sample = build_sample(grid, [PartialCurve.fully_observed(v) for v in values])
        kind = DepthKind(rng.choice(["tukey", "simplicial", "fm"]))
        res = poifd_all(sample, kind=kind, phi="identity")
        for i in range(n):
            gap = abs(res.poifd[i] - ifd(sample, sample.curves[i], kind=kind))
            worst = max(worst, gap)
    ok = worst <= 1e-12
    report(2, "full-observation-reduction", ok, f"max |POIFD - IFD| = {worst:.2e}")
    assert ok


def test_criterion_3_consistency_probe():
    """Sample-vs-population depth discrepancy shrinks from n=50 to n=1000."""
    grid = Grid.uniform(101)
    model = GpModel(grid=grid, theta=1.0)
    probes = default_probe_curves(grid)
    spec = ObservationSpec("centered", p_obs=0.5)
    small, large = [], []
    for seed in range(10):
        table = convergence_probe(model, [50, 1000], probes, spec, seed=seed)
        small.append(table[50])
        large.append(table[1000])
    med_small = float(np.median(small))
    med_large = float(np.median(large))
    ok = med_large < med_small and med_large <= 0.05
    report(
        3,
        "consistency-probe",
        ok,
        f"median sup-discrepancy n=50: {med_small:.4f}, n=1000: {med_large:.4f}",
    )
    assert ok


def _brute_force_trim(values, mask, depths, alpha):
    """Independent oracle: sort depths, keep top m, average per point."""
    n = len(depths)
    m = n - math.floor(Fraction(str(alpha)) * n)
    order = sorted(range(n), key=lambda i: (-depths[i], i))
    kept = sorted(order[:m])
    beta = min(depths[i] for i in kept)
    T = values.shape[1]
    est = []
    for ell in range(T):
        retained = [values[i, ell] for i in kept if mask[i, ell]]
        anyone = [values[i, ell] for i in range(n) if mask[i, ell]]
        if retained:
            est.append(sum(retained) / len(retained))
        elif anyone:
            est.append(sum(anyone) / len(anyone))
        else:
            est.append(None)
    return kept, beta, est


def test_criterion_4_trimming_oracle_equivalence():
    """select_trim + trimmed_mean match a brute-force oracle on 1000 cases."""
    rng = np.random.default_rng(404)
    alphas = ["0", "0.1", "0.15", "0.2", "0.25", "0.3", "0.4", "0.5", "0.7", "0.9"]
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        T = int(rng.integers(2, 5))
        grid = Grid.uniform(T)
        values = rng.normal(size=(n, T))
        mask = rng.random((n, T)) > 0.35
        for i in range(n):
            if not mask[i].any():
                mask[i, rng.integers(T)] = True
        # occasional ties exercise the index tie-break
        depths = np.round(rng.random(n), 1)
        alpha = float(rng.choice(alphas))
        sample = build_sample(grid, [PartialCurve(v, m) for v, m in zip(values, mask)])

        trim = select_trim(depths, alpha)
        est = trimmed_mean(sample, trim)
        kept_bf, beta_bf, est_bf = _brute_force_trim(values, mask, depths.tolist(), alpha)

        if trim.kept.tolist() != kept_bf or trim.beta != beta_bf:
            mismatches += 1
            continue
        for ell in range(T):
            if est_bf[ell] is None:
                if est.defined_mask[ell]:
                    mismatches += 1
            elif abs(est.values[ell] - est_bf[ell]) > 1e-12:
                mismatches += 1
    ok = mismatches == 0
    report(4, "trimming-oracle-equivalence", ok, f"{mismatches} mismatches / 1000 cases")
    assert ok


def test_criterion_5_depth_unit_oracles():
    """Exact rational agreement with hand-count oracles, exhaustively.

    The depth under test is `poifd_of` for a query observed only at grid
    point 0 of a sample that observes that point fully: with coverage 1
    there, it is exactly the pointwise sample depth.
    """

    def oracle(kind, vals, x):
        k = len(vals)
        c_le = Fraction(sum(1 for v in vals if v <= x), k)
        c_lt = Fraction(sum(1 for v in vals if v < x), k)
        if kind is DepthKind.TUKEY:
            return min(c_le, 1 - c_lt)
        if kind is DepthKind.SIMPLICIAL:
            return 2 * c_le * (1 - c_lt)
        return 1 - abs(Fraction(1, 2) - c_le)

    queries = [x / 2 for x in range(1, 12)]  # 0.5, 1.0, ..., 5.5
    grid = Grid.uniform(2)
    at_point_0 = np.array([True, False])
    checked = 0
    mismatches = 0
    for k in range(1, 6):
        for vals in combinations_with_replacement(range(1, 6), k):
            values = np.array(vals, dtype=float)
            sample = FunctionalSample(
                grid, np.column_stack([values, values]), np.ones((k, 2), dtype=bool)
            )
            for kind in DepthKind:
                for x in queries:
                    query = PartialCurve(np.array([x, 0.0]), at_point_0)
                    got = poifd_of(sample, query, kind)
                    expected = float(oracle(kind, vals, x))
                    checked += 1
                    if got != expected:
                        mismatches += 1
    ok = mismatches == 0
    report(5, "depth-unit-oracles", ok, f"{checked} comparisons, {mismatches} mismatches")
    assert ok


def test_criterion_6_estimator_invariants():
    """alpha=0 reduction, translation equivariance, keep-count exactness."""
    rng = np.random.default_rng(606)
    problems = []

    # alpha = 0 reduction, exact
    for _ in range(20):
        n, T = int(rng.integers(1, 12)), int(rng.integers(2, 15))
        grid = Grid.uniform(T)
        mask = rng.random((n, T)) > 0.3
        for i in range(n):
            if not mask[i].any():
                mask[i, rng.integers(T)] = True
        values = rng.normal(size=(n, T))
        sample = build_sample(grid, [PartialCurve(v, m) for v, m in zip(values, mask)])
        est_t = trimmed_mean(sample, select_trim(poifd_all(sample).poifd, 0.0))
        est_o = ordinary_mean(sample)
        if not (
            np.array_equal(est_t.values, est_o.values, equal_nan=True)
            and np.array_equal(est_t.defined_mask, est_o.defined_mask)
        ):
            problems.append("alpha0-reduction")

    # translation equivariance
    grid = Grid.uniform(25)
    mask = rng.random((12, 25)) > 0.3
    for i in range(12):
        if not mask[i].any():
            mask[i, rng.integers(25)] = True
    values = rng.normal(size=(12, 25))
    base = build_sample(grid, [PartialCurve(v, m) for v, m in zip(values, mask)])
    base_trim = select_trim(poifd_all(base).poifd, 0.25)
    base_est = trimmed_mean(base, base_trim)
    base_ord = ordinary_mean(base)
    for c in (-10.0, 0.5, 1e3):
        shifted = build_sample(
            grid, [PartialCurve(v + c, m) for v, m in zip(values, mask)]
        )
        trim = select_trim(poifd_all(shifted).poifd, 0.25)
        if trim.kept.tolist() != base_trim.kept.tolist():
            problems.append(f"kept-set-changed c={c}")
            continue
        est = trimmed_mean(shifted, trim)
        orde = ordinary_mean(shifted)
        d = est.defined_mask
        if np.max(np.abs(est.values[d] - (base_est.values[d] + c))) > 1e-9:
            problems.append(f"trimmed-shift c={c}")
        if np.max(np.abs(orde.values[d] - (base_ord.values[d] + c))) > 1e-9:
            problems.append(f"ordinary-shift c={c}")

    # keep-count exactness over the grid
    for n in range(1, 31):
        for tenth in range(10):
            alpha = tenth / 10
            expected = n - math.floor(Fraction(tenth, 10) * n)
            got = select_trim(np.linspace(0, 1, n), alpha).keep_count
            if got != expected:
                problems.append(f"keep-count n={n} alpha={alpha}")

    ok = not problems
    report(6, "estimator-invariants", ok, f"{len(problems)} problems")
    assert ok, problems


def test_criterion_7_simulation_statistical_checks():
    """GP covariance within 5 SE; centered mask fraction within 3 SE."""
    problems = []

    grid = Grid.uniform(25)
    model = GpModel(grid=grid, theta=4.0)
    draws = 10_000
    resid = sample_gp(model, draws, seed=5).values - model.trend_values()
    pair_rng = np.random.default_rng(9)
    pairs = pair_rng.integers(0, grid.size, size=(5, 2))
    for a, b in pairs:
        target = 0.5 ** (abs(grid.points[a] - grid.points[b]) * model.theta)
        sample_cov = float(np.mean(resid[:, a] * resid[:, b]))
        se = math.sqrt((1.0 + target**2) / draws)
        if abs(sample_cov - target) > 5 * se:
            problems.append(f"cov pair ({a},{b}): {sample_cov:.4f} vs {target:.4f}")

    fine = Grid.uniform(1001)
    base = build_sample(
        fine, [PartialCurve.fully_observed(np.zeros(1001)) for _ in range(draws)]
    )
    masked = observe(fine, base, ObservationSpec("centered", p_obs=0.5), seed=77)
    fractions = masked.mask.mean(axis=1)
    se = float(fractions.std(ddof=1) / math.sqrt(draws))
    gap = abs(float(fractions.mean()) - 0.5)
    if gap > 3 * se:
        problems.append(f"fraction gap {gap:.5f} > 3*{se:.5f}")

    ok = not problems
    report(7, "simulation-statistical-checks", ok, f"{len(problems)} problems")
    assert ok, problems


def test_criterion_8_determinism(tmp_path, seed13_serial_tables):
    """Byte-identical tables for equal seeds, serial and parallel, equal
    to the committed seed-13 tables and to the pinned digest of table1..4
    concatenated."""
    a, _, _ = seed13_serial_tables
    b = reproduce_tables(tmp_path / "serial_b", seed=13, jobs=1)
    c = reproduce_tables(tmp_path / "parallel", seed=13, jobs=4)
    identical = all(
        pa.read_bytes() == pb.read_bytes() and pa.read_bytes() == pc.read_bytes()
        for pa, pb, pc in zip(a, b, c)
    )
    moved = [p.name for p in a if p.read_bytes() != (SEED13_TABLES / p.name).read_bytes()]
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in a)).hexdigest()
    pinned = digest == SEED13_TABLES_SHA256
    report(8, "determinism", identical and not moved and pinned, f"sha256 {digest[:12]}")
    assert identical
    assert not moved, f"differ from {SEED13_TABLES}: {moved}"
    assert pinned, digest


def test_criterion_9_estimator_limit():
    """The trimmed mean converges: on clean samples n * mean(ei) stays
    within [0.5, 2] from n=50 to n=1000 under centered masks and under
    random intervals; under one-sided contamination at n=1000 it is
    closer to the trend than the ordinary mean."""
    model = GpModel(grid=Grid.uniform(101), theta=10.0)
    trend = model.trend_values()
    clean = ContaminationSpec("none")
    asym = ContaminationSpec("asym", q=0.1, magnitude=25.0)

    def mean_errors(n, contamination, observation):
        trimmed, ordinary = [], []
        for seed in range(10):
            sample = simulate_sample(model, n, contamination, observation, (seed, n))
            trim = select_trim(poifd_all(sample, DepthKind.FRAIMAN_MUNIZ, "identity").poifd, 0.2)
            trimmed.append(integrated_error(trimmed_mean(sample, trim), trend).ei)
            ordinary.append(integrated_error(ordinary_mean(sample), trend).ei)
        return float(np.mean(trimmed)), float(np.mean(ordinary))

    failures, details = [], []
    masks = {
        "centered": ObservationSpec("centered", p_obs=0.5),
        "intervals": ObservationSpec("intervals", p_obs=0.5, n_intervals=2),
    }
    for name, observation in masks.items():
        small, large = (mean_errors(n, clean, observation)[0] for n in (50, 1000))
        ratio = 1000 * large / (50 * small)
        trim_ei, ordinary_ei = mean_errors(1000, asym, observation)
        details.append(f"{name}: n*MSE ratio {ratio:.2f}, asym {trim_ei:.3f} vs {ordinary_ei:.2f}")
        if not 0.5 <= ratio <= 2.0:
            failures.append((name, "clean n*MSE ratio", ratio))
        if not trim_ei < ordinary_ei:
            failures.append((name, "asym trimmed >= ordinary", trim_ei, ordinary_ei))
    ok = not failures
    report(9, "estimator-limit", ok, "; ".join(details))
    assert ok, failures
