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
Contamination and masks are drawn from the curves' PCG64 streams in one
vectorized pass over all rows (`_Streams`), byte-equal to what numpy's
Generator draws per curve; `_draw_mask` is that per-curve reference.
`sample_gp` still reads one Generator per curve, whose state is reset
per curve, because its ziggurat normals need numpy's own tables.
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
_LO32 = np.uint64(_MASK32)
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Rows per block of a vectorized mask draw: about this many bytes in each
# of its (rows, T) bool masks and (draws, rows) 8-byte stream words.
_BLOCK_BYTES = 1 << 21


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


def _check_children(seq: SeedSequence, n: int, what: str, spawns: bool = False) -> int:
    """The first of n child indices of seq, which must lie below 2**32.

    numpy's spawn also stores the count after its last child in 32 bits
    and never returns when that count would reach 2**32, so a spawn
    stops one index lower.
    """
    first = seq.n_children_spawned
    if first + n > (1 << 32) - spawns:
        raise ValueError(
            f"{what} need child indices {first} .. {first + n - 1}; "
            f"numpy spawns at most {'2**32 - 1' if spawns else '2**32'} children per seed"
        )
    return first


def _curve_states(seed, n: int) -> tuple[np.ndarray, ...]:
    """PCG64 states of curves 0 .. n-1 as uint64 columns (state_hi, state_lo, inc_hi, inc_lo).

    Curve i's stream is Generator(PCG64(child)) for the i-th child of
    seed_sequence(seed).spawn(n), byte for byte, but every child's
    SeedSequence hash and PCG64 seed step is computed in one pass over
    n rows. A SeedSequence seed is read, not advanced: its
    n_children_spawned is the first child index, so passing the same
    object twice yields the same streams, as an int seed does.
    """
    seq = seed_sequence(seed)
    first = _check_children(seq, n, "curve streams")
    run = _words(seq.entropy)
    run += [0] * (seq.pool_size - len(run))
    # Children differ only in their last entropy word, the child index:
    # the shared words are uint32 scalars, that one a column over n rows.
    words = [np.uint32(w) for w in run + _words(seq.spawn_key)]
    words.append(np.arange(first, first + n, dtype=np.uint32))
    with np.errstate(over="ignore"):
        u32 = _generate_state(_mix_entropy(words, seq.pool_size), 8)
    # generate_state(4, uint64) reads the 32-bit words little-endian.
    w0, w1, w2, w3 = (hi.astype(np.uint64) << 32 | lo for lo, hi in zip(u32[::2], u32[1::2]))
    # PCG64's set-seed step: inc = (w2, w3) << 1 | 1; state = 0, step,
    # add the initial state (w0, w1), step.
    inc_hi = w2 << 1 | w3 >> 63
    inc_lo = w3 << 1 | 1
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < inc_lo)
    hi, lo = _advance(hi, lo, inc_hi, inc_lo, 1)
    return hi[0], lo[0], inc_hi, inc_lo


@lru_cache(maxsize=16)
def _jumps(k: int) -> tuple[np.ndarray, ...]:
    """PCG64's c-step jumps for c = 1 .. k as (k, 1) uint64 word columns.

    c steps of s -> s * MULT + inc give s * MULT**c + inc * G_c with
    G_c = 1 + MULT + ... + MULT**(c-1), all mod 2**128. The columns are
    (MULT**c high, low, G_c high, low).
    """
    mult, g = 1, 0
    words = []
    for _ in range(k):
        mult, g = mult * _PCG_MULT & _MASK128, (g * _PCG_MULT + 1) & _MASK128
        words.append((mult >> 64, mult & _MASK64, g >> 64, g & _MASK64))
    return tuple(np.array(words, dtype=np.uint64).reshape(k, 4).T[:, :, None])


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2**128 on uint64 word arrays, broadcast.

    uint64 arithmetic wraps mod 2**64; the high word of a_lo * b_lo
    comes from 32-bit limbs, whose products fit in 64 bits.
    """
    a1, a0 = a_lo >> 32, a_lo & _LO32
    b1, b0 = b_lo >> 32, b_lo & _LO32
    t = a1 * b0 + (a0 * b0 >> 32)
    mid = a0 * b1 + (t & _LO32)
    hi = a1 * b1 + (t >> 32) + (mid >> 32) + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _advance(hi, lo, inc_hi, inc_lo, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The next k PCG64 states of each stream, as (k, rows) word arrays.

    All k come from the current state at once through _jumps, not from
    k sequential steps.
    """
    mult_hi, mult_lo, g_hi, g_lo = _jumps(k)
    x_hi, x_lo = _mul128(hi, lo, mult_hi, mult_lo)
    y_hi, y_lo = _mul128(inc_hi, inc_lo, g_hi, g_lo)
    new_lo = x_lo + y_lo
    return x_hi + y_hi + (new_lo < y_lo), new_lo


class _Streams:
    """The PCG64 streams of a block of curves, each row advanced on its own state.

    Row r draws what Generator(PCG64(child_r)) draws, byte for byte, as
    long as each method is called for the same rows in the same order as
    the matching Generator method: `doubles` is `random`, `bounded` is
    `integers(0, j + 1)` and `choice` is `choice(pop, m, replace=False)`.
    `rows` is an index array into the block. Each row keeps PCG64's
    buffered upper half of a 64-bit draw for its next 32-bit draw.
    """

    def __init__(self, state_hi, state_lo, inc_hi, inc_lo) -> None:
        self.hi, self.lo = state_hi.copy(), state_lo.copy()
        self.inc_hi, self.inc_lo = inc_hi, inc_lo
        self.has_uint32 = np.zeros(state_hi.shape, dtype=bool)
        self.uinteger = np.zeros(state_hi.shape, dtype=np.uint64)

    def next64(self, rows: np.ndarray, k: int = 1) -> np.ndarray:
        """k successive 64-bit outputs (XSL-RR) per row, as a (k, rows) array."""
        hi, lo = _advance(
            self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows], k
        )
        if k:
            self.hi[rows], self.lo[rows] = hi[-1], lo[-1]
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << (np.uint64(64) - rot & np.uint64(63))

    def doubles(self, rows: np.ndarray, k: int) -> np.ndarray:
        """Generator.random(k) per row: (rows, k) doubles in [0, 1)."""
        return ((self.next64(rows, k) >> 11) * 2.0**-53).T

    def next32(self, rows: np.ndarray) -> np.ndarray:
        """One 32-bit draw per row: the low half of a fresh 64-bit draw, or the buffered high half."""
        has = self.has_uint32[rows]
        out = self.uinteger[rows]
        fresh = rows[~has]
        if fresh.size:
            x = self.next64(fresh)[0]
            out[~has] = x & _LO32
            self.uinteger[fresh] = x >> 32
        self.has_uint32[rows] = ~has
        return out

    def bounded(self, rows: np.ndarray, j: int) -> np.ndarray:
        """Generator.integers(0, j + 1) per row, by Lemire's rejection on 32-bit draws."""
        if j == 0:
            return np.zeros(rows.size, dtype=np.int64)
        if j >= _MASK32:
            raise ValueError(f"bounded draws need j < 2**32 - 1, got {j}")
        excl = np.uint64(j + 1)
        threshold = np.uint64((_MASK32 - j) % (j + 1))
        m = self.next32(rows) * excl
        redo = np.flatnonzero(m & _LO32 < threshold)
        while redo.size:
            m[redo] = self.next32(rows[redo]) * excl
            redo = redo[m[redo] & _LO32 < threshold]
        return (m >> 32).astype(np.int64)

    def choice(self, rows: np.ndarray, pop: int, m: int) -> np.ndarray:
        """Generator.choice(pop, m, replace=False) per row, as (rows, m) int64."""
        r = np.arange(rows.size)
        if pop > 10000 and m > pop // 50:
            # numpy's tail shuffle: the last m slots of a shuffled arange(pop).
            idx = np.tile(np.arange(pop, dtype=np.int64), (rows.size, 1))
            for i in range(pop - 1, max(pop - m, 1) - 1, -1):
                j = self.bounded(rows, i)
                idx[r, i], idx[r, j] = idx[r, j], idx[r, i]
            return idx[:, pop - m:]
        # Floyd's algorithm: draw from 0 .. j and take j on a repeat, then
        # shuffle the m picks.
        picks = np.empty((rows.size, m), dtype=np.int64)
        for k, j in enumerate(range(pop - m, pop)):
            v = self.bounded(rows, j)
            picks[:, k] = np.where((picks[:, :k] == v[:, None]).any(axis=1), j, v)
        for i in range(m - 1, 0, -1):
            j = self.bounded(rows, i)
            picks[r, i], picks[r, j] = picks[r, j], picks[r, i]
        return picks


def _curve_rngs(seed, n: int) -> Iterator[Generator]:
    """The streams of curves 0 .. n-1 as numpy Generators, for sample_gp.

    One generator is yielded n times with its state set per curve from
    _curve_states, so each stream must be consumed before the next is
    taken. Its ziggurat normals need numpy's own tables, which is why
    sample_gp reads a Generator while the other stages use _Streams.
    """
    gen = Generator(PCG64())
    for state_hi, state_lo, inc_hi, inc_lo in zip(*(c.tolist() for c in _curve_states(seed, n))):
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
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
    n = sample.n_curves
    u = _Streams(*_curve_states(seed, n)).doubles(np.arange(n), 3)
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
            if cells == 1 and not _length_accepted(1.0, self.p_obs):
                # The one cell is [0, 1] itself, so every draw is rejected.
                raise ValueError(
                    f"one interval at p_obs {self.p_obs} always covers [0, 1], "
                    "whose length is off p_obs by more than p_obs / 4; "
                    "use p_obs >= 0.8 or p_obs <= 0.5"
                )

    def _n_cells(self) -> int:
        # floor((m - p) / p) uniform draws partition [0, 1] into that + 1 cells.
        return math.floor((self.n_intervals - self.p_obs) / self.p_obs) + 1


def _centered_bounds(p: float, u0, u1):
    """Centered interval ends from two uniforms (floats or columns).

    start in [mid - p, mid) and end in (mid, mid + p] for p <= 1/2;
    start in [0, 1 - p) and end in (p, 1] otherwise.
    """
    if p <= 0.5:
        return (0.5 - p) + p * u0, 0.5 + p * (1.0 - u1)
    return (1.0 - p) * u0, p + (1.0 - p) * (1.0 - u1)


def _length_accepted(total, p: float):
    """The random-interval rejection rule: total length within p / 4 of p."""
    return np.abs(total - p) <= 0.25 * p


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
    if _length_accepted(lengths.sum(), p):
        for j in picks:
            mask |= (pts >= edges[j]) & (pts <= edges[j + 1])
    return mask


def _draw_mask(
    pts: np.ndarray, spec: ObservationSpec, rng: Generator, within: np.ndarray | bool = True
) -> np.ndarray:
    """A nonempty mask inside `within`, drawn from one Generator.

    A draw that is rejected or leaves no point of `within` observed is
    redrawn from the same stream, at most _MAX_MASK_RETRIES times. This
    is the one-stream reference that observe's vectorized draw matches
    per curve; population_coverage draws its Monte Carlo masks with it.
    """
    for _ in range(_MAX_MASK_RETRIES):
        if spec.kind is ObservationKind.FULL:
            mask = np.ones(pts.shape, dtype=bool)
        elif spec.kind is ObservationKind.CENTERED_INTERVAL:
            start, end = _centered_bounds(spec.p_obs, rng.random(), rng.random())
            mask = (pts >= start) & (pts <= end)
        else:
            mask = _intervals_mask(
                pts, spec.n_intervals, spec.p_obs, spec._n_cells(), rng
            )
        mask &= within
        if mask.any():
            return mask
    raise RuntimeError("observation mask stayed empty after maximum retries")


def _interval_masks(pts: np.ndarray, p: float, cuts: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """_intervals_mask for many rows: the union of each row's picked cells.

    cuts (rows, cells - 1) are the uniform cut points and picks (rows, m)
    the chosen slots, re-spread to non-adjacent cells as there. A row
    whose total length is off p by more than p / 4 is all False.
    """
    rows, m = picks.shape
    cuts = np.sort(cuts, axis=1)
    edges = np.concatenate((np.zeros((rows, 1)), cuts, np.ones((rows, 1))), axis=1)
    picks = np.sort(picks, axis=1) + np.arange(m)
    lo = np.take_along_axis(edges, picks, axis=1)
    hi = np.take_along_axis(edges, picks + 1, axis=1)
    mask = np.zeros((rows, pts.size), dtype=bool)
    for k in range(m):
        mask |= (pts >= lo[:, k, None]) & (pts <= hi[:, k, None])
    mask[~_length_accepted((hi - lo).sum(axis=1), p)] = False
    return mask


def _mask_attempt(
    pts: np.ndarray, spec: ObservationSpec, streams: _Streams, rows: np.ndarray
) -> np.ndarray:
    """One mask draw for each of `rows`, as _draw_mask's loop body draws it."""
    if spec.kind is ObservationKind.FULL:
        return np.ones((rows.size, pts.size), dtype=bool)
    if spec.kind is ObservationKind.CENTERED_INTERVAL:
        u = streams.doubles(rows, 2)
        start, end = _centered_bounds(spec.p_obs, u[:, 0], u[:, 1])
        return (pts >= start[:, None]) & (pts <= end[:, None])
    m, cells = spec.n_intervals, spec._n_cells()
    cuts = streams.doubles(rows, cells - 1)
    picks = streams.choice(rows, cells - m + 1, m)
    return _interval_masks(pts, spec.p_obs, cuts, picks)


def _draw_masks(
    out: np.ndarray, pts: np.ndarray, spec: ObservationSpec, seed, within: np.ndarray
) -> None:
    """Fill `out` with a nonempty mask per curve inside `within`, all curves at once.

    Row i gets what _draw_mask draws from curve i's stream. Rows are
    taken in blocks that bound the temporaries; streams are keyed by
    curve index, so the block size changes no byte. Each attempt redraws
    the rows whose mask is still empty, at most _MAX_MASK_RETRIES times.
    """
    states = _curve_states(seed, out.shape[0])
    doubles = spec._n_cells() - 1 if spec.kind is ObservationKind.RANDOM_INTERVALS else 2
    step = max(1, _BLOCK_BYTES // max(pts.size, 8 * doubles))
    for first in range(0, out.shape[0], step):
        block = slice(first, first + step)
        streams = _Streams(*(column[block] for column in states))
        rows = np.arange(streams.hi.size)
        for _ in range(_MAX_MASK_RETRIES):
            mask = _mask_attempt(pts, spec, streams, rows)
            mask &= within[block][rows]
            hit = mask.any(axis=1)
            out[first + rows[hit]] = mask[hit]
            rows = rows[~hit]
            if not rows.size:
                break
        else:
            raise RuntimeError("observation mask stayed empty after maximum retries")


def observe(
    grid: Grid, sample: FunctionalSample, spec: ObservationSpec, seed
) -> FunctionalSample:
    """Mask each curve with an independently drawn observation set.

    Masks intersect any preexisting curve masks; a draw leaving a curve
    with no observed grid point is redrawn up to a bounded retry count.
    """
    _check_grid(grid, sample)
    # Hold a block the size of the sample's value copy while drawing, so
    # the draw's temporaries, and the small blocks numpy caches after
    # them, cannot split the free heap space that copy then reuses.
    slot = np.empty(sample.values.shape)
    mask = np.empty(sample.mask.shape, dtype=bool)
    _draw_masks(mask, grid.points, spec, seed, sample.mask)
    del slot
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
    root = seed_sequence(root_seed)
    _check_children(root, 3, "stage seeds", spawns=True)
    gp_seed, cont_seed, obs_seed = root.spawn(3)
    sample = sample_gp(model, n, gp_seed)
    sample = contaminate(model.grid, sample, contamination, cont_seed)
    return observe(model.grid, sample, observation, obs_seed)
