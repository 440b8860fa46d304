"""numpy's per-curve random streams, computed for all curves at once.

Curve i of a seed draws what Generator(PCG64(child)) draws, byte for
byte, where child is the i-th child of seed_sequence(seed): the one
numpy's spawn would return. A seed is read, never advanced: a
SeedSequence's n_children_spawned is the first child index, so passing
the same object twice yields the same streams, as an int seed does.

A child's spawn key is its seed's plus the child index, so the
child's SeedSequence pool is the seed's own, numpy's
`SeedSequence.pool`, with that one word mixed in. Only that mix, the
state words the pool generates and PCG64's seed step are computed
here, each in one pass over all n children.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

# numpy's SeedSequence hash constants (NEP 19 fixes them) and PCG64's
# 128-bit multiplier, also as its (high, low) uint64 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_LO32 = np.uint64(_MASK32)
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_WORDS = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)


def seed_sequence(seed) -> SeedSequence:
    """Normalize int / tuple / SeedSequence seeds to a SeedSequence.

    None (fresh OS entropy to numpy), bools and text are rejected at any
    depth of a sequence seed or of a SeedSequence's entropy, so every
    draw repeats: the seed's words are read once to check it.
    """
    given = isinstance(seed, SeedSequence)
    try:
        _words(seed.entropy if given else seed)
    except TypeError:
        raise ValueError(
            f"seed must be an int, a sequence of ints or a SeedSequence, got {seed!r}"
        ) from None
    return seed if given else SeedSequence(seed)


def _words(x) -> list[int]:
    """An int or nested int sequence as little-endian 32-bit words, as numpy
    reads seeds; a bool, text, bytes or any other value at any depth is a
    TypeError (iterating a bytearray or memoryview yields ints)."""
    if isinstance(x, (bool, str, bytes, bytearray, memoryview)):
        raise TypeError(f"not an int or a sequence of ints: {x!r}")
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _MASK32]
        while x > _MASK32:
            x >>= 32
            words.append(x & _MASK32)
        return words
    return [w for v in x for w in _words(v)]


def _check_children(seq: SeedSequence, n: int, what: str) -> int:
    """The first of n child indices of seq, which must lie below 2**32."""
    first = seq.n_children_spawned
    if first + n > 1 << 32:
        raise ValueError(
            f"{what} need child indices {first} .. {first + n - 1}; "
            "numpy spawns at most 2**32 children per seed"
        )
    return first


def _children(seed, n: int) -> list[SeedSequence]:
    """The n SeedSequence children that seed_sequence(seed).spawn(n) returns, without the spawn."""
    seq = seed_sequence(seed)
    first = _check_children(seq, n, "child seeds")
    return [
        SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size)
        for i in range(first, first + n)
    ]


@lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, first: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier of numpy's hashmix calls first .. first + k - 1,
    as (k, 1) uint32 columns: call c xors init * mult**c and multiplies
    by init * mult**(c + 1), mod 2**32."""
    h = [init * pow(mult, first + j, 1 << 32) & _MASK32 for j in range(k + 1)]
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """numpy's hashmix of each row of value, row j as the j-th call of `consts`."""
    xor, mult = consts
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


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


class _Streams:
    """The PCG64 streams of curves 0 .. n-1 of a seed, each row advanced on its own state.

    Row r draws what Generator(PCG64(child_r)) draws, byte for byte, as
    long as each method is called for the same rows in the same order as
    the matching Generator method: `doubles` is `random`, `bounded` is
    `integers(0, j + 1)`, `choice` is `choice(pop, m, replace=False)` and
    `normals`, a handle's last draw, is `standard_normal`. `rows` is an
    index array into the handle, and `streams[rows]` is a handle on those
    rows' streams at their current states. Each row keeps PCG64's
    buffered upper half of a 64-bit draw for its next 32-bit draw.
    """

    __slots__ = ("hi", "lo", "inc_hi", "inc_lo", "has_uint32", "uinteger")

    def __init__(self, seed, n: int) -> None:
        """The streams' PCG64 states, as uint64 columns, all n at once.

        Each child's pool is the seed's `SeedSequence.pool` with the child
        index mixed in. Before that mix numpy's hash has made pool_size**2 +
        pool_size * (words - pool_size) calls for the child's first `words`
        entropy words, which fixes its constants.
        """
        seq = seed_sequence(seed)
        first = _check_children(seq, n, "curve streams")
        size = seq.pool_size
        # A child pads the seed's run entropy to pool_size words before its
        # spawn key, as the seed itself does when its spawn key is nonempty;
        # an empty one hashes a short run as zeros, to the same pool.
        words = max(len(_words(seq.entropy)), size) + len(_words(seq.spawn_key))
        index = np.arange(first, first + n, dtype=np.uint32)
        pool = _hashmix(index, _hash_consts(_INIT_A, _MULT_A, size * words, size))
        pool *= _MIX_MULT_R
        np.subtract(_MIX_MULT_L * seq.pool[:, None], pool, out=pool)
        pool ^= pool >> 16
        # generate_state(4, uint64): 8 uint32 words hashed from the pool words
        # in turn, paired little-endian.
        u32 = _hashmix(pool[np.arange(8) % size], _hash_consts(_INIT_B, _MULT_B, 0, 8))
        w0, w1, w2, w3 = u32[1::2].astype(np.uint64) << 32 | u32[::2]
        # PCG64's set-seed step: inc = (w2, w3) << 1 | 1; state = 0, step,
        # add the initial state (w0, w1), step: state = (inc + init) * MULT + inc.
        self.inc_hi = w2 << 1 | w3 >> 63
        self.inc_lo = w3 << 1 | 1
        lo = self.inc_lo + w1
        hi, self.lo = _mul128(self.inc_hi + w0 + (lo < self.inc_lo), lo, *_PCG_MULT_WORDS)
        self.lo += self.inc_lo
        self.hi = hi + self.inc_hi + (self.lo < self.inc_lo)
        self.has_uint32 = np.zeros(n, dtype=bool)
        self.uinteger = np.zeros(n, dtype=np.uint64)

    def __getitem__(self, rows) -> _Streams:
        """The streams of `rows` at their current states; drawing from them
        leaves this handle's states as they are. No draw writes the
        increments, so a slice shares them."""
        sub = object.__new__(_Streams)
        sub.inc_hi, sub.inc_lo = self.inc_hi[rows], self.inc_lo[rows]
        for name in ("hi", "lo", "has_uint32", "uinteger"):
            setattr(sub, name, getattr(self, name)[rows].copy())
        return sub

    def next64(self, rows: np.ndarray, k: int = 1) -> np.ndarray:
        """k successive 64-bit outputs (XSL-RR) per row, as a (k, rows) array.

        All k states come from the current one at once through _jumps,
        not from k sequential steps.
        """
        mult_hi, mult_lo, g_hi, g_lo = _jumps(k)
        x_hi, x_lo = _mul128(self.hi[rows], self.lo[rows], mult_hi, mult_lo)
        y_hi, y_lo = _mul128(self.inc_hi[rows], self.inc_lo[rows], g_hi, g_lo)
        lo = x_lo + y_lo
        hi = x_hi + y_hi + (lo < y_lo)
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

    def normals(self, out: np.ndarray) -> None:
        """Generator.standard_normal(out=row) for stream r into row r of out.

        The ziggurat needs numpy's own tables, so one Generator is set to
        each row's state in turn. Reading its end states back made the
        draw 30% slower at T = 101, so this is the handle's last draw:
        it drops the states, and a later draw raises AttributeError.
        """
        gen = Generator(PCG64())
        words = {}
        state = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
        columns = (c.tolist() for c in (self.hi, self.lo, self.inc_hi, self.inc_lo))
        for row, hi, lo, inc_hi, inc_lo in zip(out, *columns, strict=True):
            words["state"] = hi << 64 | lo
            words["inc"] = inc_hi << 64 | inc_lo
            gen.bit_generator.state = state
            gen.standard_normal(out=row)
        del self.hi, self.lo
