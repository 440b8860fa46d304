"""Synthetic curve generation: Gaussian process draws, contamination, masking.

Curves follow the trend 4t plus a zero-mean Gaussian process with covariance
0.5 ** (|t - s| * theta). Contamination adds magnitude shifts to a
random fraction of curves (symmetric or one-sided sign, full path or
only beyond a random onset). Observation mechanisms then mask each
curve to a random union of grid intervals. Each stage takes and returns
a :class:`FunctionalSample`; :func:`simulate_sample` chains all three.

Every draw is keyed to (seed, curve index): curve i reads the stream of
numpy's i-th spawned child of the stage seed, Generator(PCG64(child)),
with the seeding of all n children computed in one pass. Generating
curves serially or in parallel therefore yields bit-identical output.
Each stage reads its curves through one generator whose state is reset
per curve, so it consumes a curve's stream before taking the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from numbers import Integral
from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .core import FunctionalSample, Grid, _readonly

__all__ = [
    "GpModel",
    "ContaminationKind",
    "ContaminationSpec",
    "ObservationKind",
    "ObservationSpec",
    "sample_gp",
    "apply_contamination",
    "contaminate",
    "observe",
    "simulate_sample",
]

_MAX_MASK_RETRIES = 1000

# numpy's SeedSequence hash constants (NEP 19 fixes them) and PCG64's
# 128-bit multiplier. The uint32 ones wrap as numpy's C code does.
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _check_integer(name: str, value) -> None:
    """Reject a count that is not an integer, bools included."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def seed_sequence(seed) -> SeedSequence:
    """Normalize int / tuple / SeedSequence seeds to a SeedSequence."""
    if isinstance(seed, SeedSequence):
        return seed
    return SeedSequence(seed)


def _words(x) -> list[int]:
    """An int or nested int sequence as little-endian 32-bit words, as numpy reads seeds."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _MASK32]
        while x > _MASK32:
            x >>= 32
            words.append(x & _MASK32)
        return words
    return [w for v in x for w in _words(v)]


def _mix_entropy(words: list, pool_size: int) -> list:
    """SeedSequence's entropy pool from its entropy words, as pool_size words.

    Each word is a uint32 scalar or a column of them; columns give one
    pool per row. The run entropy is already padded to pool_size words.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A
        value = value * hash_const
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> _XSHIFT

    pool = [hashmix(w) for w in words[:pool_size]]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[pool_size:]:
        for dst in range(pool_size):
            pool[dst] = mix(pool[dst], hashmix(w))
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words, uint32) from the pool words."""
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % len(pool)] ^ hash_const
        hash_const = hash_const * _MULT_B
        value = value * hash_const
        out.append(value ^ value >> _XSHIFT)
    return out


def _curve_rngs(seed, n: int) -> Iterator[Generator]:
    """The streams of curves 0 .. n-1: numpy's spawned children of the seed.

    Curve i's stream is Generator(PCG64(child)) for the i-th child of
    seed_sequence(seed).spawn(n), byte for byte, but every child's
    SeedSequence hash and PCG64 seed step is computed in one pass over
    n rows. A SeedSequence seed is read, not advanced: its
    n_children_spawned is the first child index, so passing the same
    object twice yields the same streams, as an int seed does.

    One generator is yielded n times with its state reset per curve, so
    each stream must be consumed before the next is taken.
    """
    seq = seed_sequence(seed)
    first = seq.n_children_spawned
    if first + n > 1 << 32:
        raise ValueError(
            f"curve streams need child indices {first} .. {first + n - 1}; "
            "numpy spawns at most 2**32 children per seed"
        )
    run = _words(seq.entropy)
    run += [0] * (seq.pool_size - len(run))
    # Children differ only in their last entropy word, the child index:
    # the shared words are uint32 scalars, that one a column over n rows.
    words = [np.uint32(w) for w in run + _words(seq.spawn_key)]
    words.append(np.arange(first, first + n, dtype=np.uint32))
    with np.errstate(over="ignore"):
        u32 = _generate_state(_mix_entropy(words, seq.pool_size), 8)
    # generate_state(4, uint64) reads the 32-bit words little-endian.
    w = [(hi.astype(np.uint64) << 32 | lo).tolist() for lo, hi in zip(u32[::2], u32[1::2])]
    gen = Generator(PCG64())
    for w0, w1, w2, w3 in zip(*w):
        # PCG64's set-seed step: state = 0, step, add the initial state, step.
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


@dataclass(frozen=True)
class GpModel:
    """Gaussian process curve model: linear trend 4t plus exponential-decay noise.

    The noise covariance is C(s, t) = 0.5 ** (|t - s| * theta) with unit
    marginal variance; larger theta decorrelates faster.
    """

    grid: Grid
    theta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError("theta must be a positive finite rate")

    def trend_values(self) -> np.ndarray:
        """The trend 4t on the grid, as a fresh array."""
        return 4.0 * self.grid.points

    def covariance(self) -> np.ndarray:
        """Covariance matrix on the grid, before any jitter."""
        return _exp_covariance(self.grid.points, self.theta)

    def covariance_factor(self) -> np.ndarray:
        """Read-only lower Cholesky factor of the covariance, shared per value.

        Models with equal grid points and theta share one factor, so a
        run that builds a fresh model per replication factors each
        distinct covariance once.
        """
        return _cached_factor(self.grid.points.tobytes(), float(self.theta))


def _exp_covariance(pts: np.ndarray, theta: float) -> np.ndarray:
    dist = np.abs(pts[:, None] - pts[None, :])
    return 0.5 ** (dist * theta)


@lru_cache(maxsize=8)
def _cached_factor(points: bytes, theta: float) -> np.ndarray:
    # Keyed on the grid's point values, not its size or identity: equal
    # sizes can hold different points, and every replication builds a
    # fresh Grid.
    return _readonly(_factor_covariance(_exp_covariance(np.frombuffer(points), theta)))


def _factor_covariance(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor with escalating diagonal jitter 1e-10 .. 1e-6."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(cov.shape[0])
    for exponent in range(-10, -5):
        try:
            return np.linalg.cholesky(cov + (10.0**exponent) * eye)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "covariance factorization failed after jitter up to 1e-6; "
        "the model covariance is ill-conditioned on this grid"
    )


def sample_gp(model: GpModel, n: int, seed) -> FunctionalSample:
    """Draw n fully observed curves trend + L z with i.i.d. normal z.

    Curve i is produced from the i-th spawned child of the seed, so the
    result does not depend on generation order. A SeedSequence seed is
    not advanced: passing the same object again repeats the sample, as
    an int seed does. Each row is its own matrix-vector product: the
    batched Z @ L.T rounds differently.
    """
    if n < 1:
        raise ValueError("need at least one curve")
    L = model.covariance_factor()
    g = model.trend_values()
    T = model.grid.size
    values = np.empty((n, T))
    for i, rng in enumerate(_curve_rngs(seed, n)):
        values[i] = L @ rng.standard_normal(T)
    values += g
    return FunctionalSample(model.grid, values, np.ones((n, T), dtype=bool))


class ContaminationKind(str, Enum):
    NONE = "none"
    SYMMETRIC = "sym"
    ASYMMETRIC = "asym"
    PARTIAL = "partial"


@dataclass(frozen=True)
class ContaminationSpec:
    """Shift contamination: probability q, magnitude, and shape kind."""

    kind: ContaminationKind
    q: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ContaminationKind(self.kind))
        if not (np.isfinite(self.q) and 0.0 <= self.q <= 1.0):
            raise ValueError("q must lie in [0, 1]")
        if not (np.isfinite(self.magnitude) and self.magnitude >= 0.0):
            raise ValueError("magnitude must be finite and nonnegative")


def _check_grid(grid: Grid, sample: FunctionalSample) -> None:
    """Reject a stage grid other than the one the sample lives on."""
    if not np.array_equal(grid.points, sample.grid.points):
        raise ValueError("grid does not match the sample's grid")


def apply_contamination(
    grid: Grid,
    sample: FunctionalSample,
    kind: ContaminationKind,
    magnitude: float,
    flags,
    signs,
    onsets,
) -> FunctionalSample:
    """Apply shift contamination with explicitly supplied draws.

    flags (0/1 per curve) select contaminated curves, signs (+-1) the
    direction for the symmetric kinds, onsets the per-curve threshold
    beyond which the partial kind shifts. Curves must be fully observed:
    contamination happens before masking.
    """
    _check_grid(grid, sample)
    kind = ContaminationKind(kind)
    flags = np.asarray(flags, dtype=float)
    signs = np.asarray(signs, dtype=float)
    onsets = np.asarray(onsets, dtype=float)
    n = sample.n_curves
    if flags.shape != (n,) or signs.shape != (n,) or onsets.shape != (n,):
        raise ValueError("flags, signs, and onsets must have one entry per curve")
    if not sample.mask.all():
        raise ValueError("contamination applies to fully observed curves")

    if kind is ContaminationKind.NONE:
        return sample
    if kind is ContaminationKind.ASYMMETRIC:
        shift = (flags * magnitude)[:, None]
    else:
        shift = (flags * signs * magnitude)[:, None]
    if kind is ContaminationKind.PARTIAL:  # shift only where t >= onset
        shift = np.where(grid.points >= onsets[:, None], shift, 0.0)
    return FunctionalSample(grid, sample.values + shift, sample.mask)


def contaminate(
    grid: Grid, sample: FunctionalSample, spec: ContaminationSpec, seed
) -> FunctionalSample:
    """Draw contamination indicators per curve and apply the shifts.

    All three draws (flag, sign, onset) are consumed for every curve
    regardless of kind, so the same seed contaminates the same curves
    under each kind.
    """
    if spec.kind is ContaminationKind.NONE:
        return sample
    u = np.array([rng.random(3) for rng in _curve_rngs(seed, sample.n_curves)])
    flags = np.where(u[:, 0] < spec.q, 1.0, 0.0)
    signs = np.where(u[:, 1] < 0.5, 1.0, -1.0)
    return apply_contamination(
        grid, sample, spec.kind, spec.magnitude, flags, signs, u[:, 2]
    )


class ObservationKind(str, Enum):
    FULL = "full"
    RANDOM_INTERVALS = "intervals"
    CENTERED_INTERVAL = "centered"


@dataclass(frozen=True)
class ObservationSpec:
    """Masking mechanism and its expected observation proportion."""

    kind: ObservationKind
    p_obs: float = 1.0
    n_intervals: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ObservationKind(self.kind))
        _check_integer("n_intervals", self.n_intervals)
        if not (np.isfinite(self.p_obs) and 0.0 < self.p_obs <= 1.0):
            raise ValueError("p_obs must lie in (0, 1]")
        if self.kind is ObservationKind.RANDOM_INTERVALS:
            if self.n_intervals < 1:
                raise ValueError("need at least one interval")
            cells = self._n_cells()
            if cells < 2 * self.n_intervals - 1:
                raise ValueError(
                    f"cannot place {self.n_intervals} disjoint intervals with "
                    f"expected proportion {self.p_obs}; reduce n_intervals"
                )

    def _n_cells(self) -> int:
        # floor((m - p) / p) uniform draws partition [0, 1] into that + 1 cells.
        return math.floor((self.n_intervals - self.p_obs) / self.p_obs) + 1


def _centered_bounds(p: float, rng: Generator) -> tuple[float, float]:
    # start in [mid - p, mid) and end in (mid, mid + p] for p <= 1/2;
    # start in [0, 1 - p) and end in (p, 1] otherwise.
    if p <= 0.5:
        start = (0.5 - p) + p * rng.random()
        end = 0.5 + p * (1.0 - rng.random())
    else:
        start = (1.0 - p) * rng.random()
        end = p + (1.0 - p) * (1.0 - rng.random())
    return start, end


def _intervals_mask(
    pts: np.ndarray, m: int, p: float, cells: int, rng: Generator
) -> np.ndarray:
    """One draw of m random intervals; all False when its length is rejected."""
    cuts = np.sort(rng.random(cells - 1))
    edges = np.concatenate(([0.0], cuts, [1.0]))
    # m non-adjacent cells, uniform over all such subsets: pick
    # combinations from cells - m + 1 slots and re-spread.
    picks = np.sort(rng.choice(cells - m + 1, size=m, replace=False)) + np.arange(m)
    lengths = edges[picks + 1] - edges[picks]
    mask = np.zeros(pts.shape, dtype=bool)
    if abs(lengths.sum() - p) <= 0.25 * p:
        for j in picks:
            mask |= (pts >= edges[j]) & (pts <= edges[j + 1])
    return mask


def _draw_mask(
    pts: np.ndarray, spec: ObservationSpec, rng: Generator, within: np.ndarray | bool = True
) -> np.ndarray:
    """A nonempty mask inside `within`: the package's one redraw loop.

    A draw that is rejected or leaves no point of `within` observed is
    redrawn from the same stream, at most _MAX_MASK_RETRIES times.
    """
    for _ in range(_MAX_MASK_RETRIES):
        if spec.kind is ObservationKind.FULL:
            mask = np.ones(pts.shape, dtype=bool)
        elif spec.kind is ObservationKind.CENTERED_INTERVAL:
            start, end = _centered_bounds(spec.p_obs, rng)
            mask = (pts >= start) & (pts <= end)
        else:
            mask = _intervals_mask(
                pts, spec.n_intervals, spec.p_obs, spec._n_cells(), rng
            )
        mask &= within
        if mask.any():
            return mask
    raise RuntimeError("observation mask stayed empty after maximum retries")


def observe(
    grid: Grid, sample: FunctionalSample, spec: ObservationSpec, seed
) -> FunctionalSample:
    """Mask each curve with an independently drawn observation set.

    Masks intersect any preexisting curve masks; a draw leaving a curve
    with no observed grid point is redrawn up to a bounded retry count.
    """
    _check_grid(grid, sample)
    mask = np.empty(sample.mask.shape, dtype=bool)
    for i, rng in enumerate(_curve_rngs(seed, sample.n_curves)):
        mask[i] = _draw_mask(grid.points, spec, rng, sample.mask[i])
    return FunctionalSample(grid, sample.values, mask)


def simulate_sample(
    model: GpModel,
    n: int,
    contamination: ContaminationSpec,
    observation: ObservationSpec,
    root_seed,
) -> FunctionalSample:
    """Draw, contaminate and mask n curves: the package's one simulation pipeline.

    The root seed is split into three children, one per stage, so each
    stage's draws are independent of the others' settings.
    """
    gp_seed, cont_seed, obs_seed = seed_sequence(root_seed).spawn(3)
    sample = sample_gp(model, n, gp_seed)
    sample = contaminate(model.grid, sample, contamination, cont_seed)
    return observe(model.grid, sample, observation, obs_seed)
