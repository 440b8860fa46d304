"""Integrated functional depth for fully and partially observed curves.

The sample depth of a pair (curve, observation set) against a sample is
the coverage-weighted average of pointwise univariate depths over the
curve's observed grid points:

    sum_{t in O} D(x(t), P_{t,n}) phi(q_n(t)) / sum_{t in O} phi(q_n(t))

with q_n the per-point fraction of observing curves and phi a bounded
continuous weight shaping function on [0, 1] (identity by default).
When every curve is fully observed this reduces exactly to the
integrated depth with uniform point weights.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import FunctionalSample, PartialCurve, _readonly
from .depths import _READS_LT, DepthKind, depth_from_counts

__all__ = [
    "PhiLike",
    "NAMED_PHI",
    "resolve_phi",
    "DepthResult",
    "ifd",
    "poifd_of",
    "poifd_all",
    "pointwise_depth_field",
]

PhiLike = Union[str, Callable[[np.ndarray], np.ndarray]]

NAMED_PHI: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda q: np.asarray(q, dtype=float),
    "sqrt": lambda q: np.sqrt(q),
    "square": lambda q: np.square(q),
    "constant": lambda q: np.ones_like(np.asarray(q, dtype=float)),
}


def resolve_phi(phi: PhiLike) -> Callable[[np.ndarray], np.ndarray]:
    """Turn a named option or callable into a coverage-weight function."""
    if callable(phi):
        return phi
    try:
        return NAMED_PHI[phi]
    except KeyError:
        raise ValueError(
            f"unknown phi {phi!r}; named options: {sorted(NAMED_PHI)}"
        ) from None


def _phi_of_coverage(phi: PhiLike, coverage: np.ndarray) -> np.ndarray:
    out = np.asarray(resolve_phi(phi)(coverage), dtype=float)
    if out.shape != coverage.shape:
        raise ValueError("phi must map the coverage array elementwise")
    if not np.isfinite(out).all() or (out < 0.0).any():
        raise ValueError("phi must be finite and nonnegative on [0, 1]")
    return out


# Cells in flight across all threads of one `_share` pass, the depth
# field's ranking or poifd_all's weighting, so their temporaries stay
# small however large the sample is.
_BLOCK_CELLS = 1 << 16

# Least number of grid columns per depth-field block: the float64 values
# in one 64-byte cache line, so a block's gather from each (row-major)
# value row uses the whole of each line it loads.
_MIN_WIDTH = 8

# Bit pattern of the largest finite float64, DBL_MAX. The padding key of
# a depth-field block carries its top bits, so it sorts after every
# observed key, DBL_MAX included.
_DBL_MAX_BITS = int(np.array(np.finfo(np.float64).max).view(np.int64))


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share(
    task: Callable[[slice], object], extent: int, across: int, least: int = 1
) -> None:
    """task(block) over consecutive slices of range(extent), each index
    spanning `across` cells.

    At least 2 * _BLOCK_CELLS cells run on up to one thread per CPU the
    process may run on and no more than `extent`; fewer run on the
    calling thread alone. Each block holds _BLOCK_CELLS cells split
    over the threads, but at least `least` indices. The blocks are
    dealt round-robin, the calling thread taking a share, so one thread
    and one malloc arena fewer hold block temporaries. The other threads
    live only for the call.
    """
    workers = min(_cpu_count(), extent) if extent * across >= 2 * _BLOCK_CELLS else 1
    size = max(least, _BLOCK_CELLS // (across * workers))

    def run(first: int) -> None:
        for start in range(first * size, extent, workers * size):
            task(slice(start, start + size))

    if workers == 1:
        return run(0)
    with ThreadPoolExecutor(workers - 1) as pool:
        others = pool.map(run, range(1, workers))
        run(0)
        list(others)


def _tied_counts(ranked: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tie groups of a (w, keep) block whose rows are sorted ascending,
    each row against itself: (#<= v, #< v, k) of each group's value v,
    with k[i] the count of row i, and the group sizes, in block order.

    In sorted order #< v is the start of v's tie group and #<= v its
    end. The groups come from one pass over the rows read as one flat
    run, with a group start forced at every row start, so a depth taken
    once per group and repeated by its size fills the block.
    """
    keep = ranked.shape[1]
    ranked = ranked.reshape(-1)
    new_group = np.empty(ranked.size, bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new_group[1:])
    new_group[::keep] = True
    starts = np.flatnonzero(new_group)
    sizes = np.diff(starts, append=ranked.size)
    rows, c_lt = np.divmod(starts, keep)
    return c_lt + sizes, c_lt, k[rows], sizes


def _depth_field(sample: FunctionalSample, kind: DepthKind, fill: float) -> np.ndarray:
    """Per-curve per-point sample depths, `fill` where a curve is unobserved,
    as the (n, T) transposed view of the first n columns of a C-ordered
    (T, n + 1) array; its `.tobytes()` is the field's C-order bytes.

    The field is built grid-column-major, one row per grid column plus a
    spare slot, preset to NaN, so each block of columns is ranked within
    its own contiguous rows. The block is gathered into the first n
    slots and 0.0 added to it, so -0.0 and +0.0 are one value; `values`
    holds canonical +NaN exactly in the unobserved slots. Each entry
    then becomes a sort key: the low b = bit_length(n) bits of its
    float64 pattern are replaced by its curve index, n in the spare. A
    NaN stays a NaN, since its quiet bit lies above those bits, and fmin
    with `pad`, DBL_MAX's top bits over n, turns every NaN into `pad`.
    So every unobserved slot and the spare hold one key, which sorts
    after every observed key, DBL_MAX included, and the observed keys
    are finite and distinct: one in-place float sort per row puts each
    column's observed entries first, and their low bits give the sort
    order, with every padding entry pointing at the spare.

    Keys whose top 64 - b bits differ sort as their values do, since
    those bits are the values' own and float64 patterns order as their
    values within a sign (in reverse for negatives). So a column whose
    adjacent observed keys never share their top bits holds its observed
    values strictly ascending, and the j-th smallest has #<= v = j + 1
    and #< v = j. Any other block is gathered again, with +inf in the
    unobserved slots and the spare, and its first `keep` entries, the
    block's largest column count, read in key order. If they never fall
    the order holds, and the depth is taken once per tie group of
    `_tied_counts`. Otherwise values within 2^-(52 - b) of each other,
    in index order against value order, have misplaced the order, and
    `np.argsort` ranks the block, its padding entries pointed at the
    spare too.

    The rows are then reset to `fill` and the depths scattered back
    within them; what the padding entries hold lands in the spare, which
    is not part of the field. A block that no curve observes is only
    reset to `fill`. `_share` deals the blocks to its threads, and no
    block is narrower than _MIN_WIDTH columns, so at large n each thread
    holds _MIN_WIDTH * n cells. Each block writes only its own rows, so
    the bytes depend on neither the thread count nor the block width.
    """
    kind = DepthKind(kind)
    values, counts = sample.values, sample.counts
    n, T = values.shape
    field = np.empty((T, n + 1))
    field[:, n] = np.nan
    # k = 1 in a column no curve observes only keeps the division defined.
    # Float counts give the integer counts' bytes: every intermediate of
    # `depth_from_counts` is an integer below 2^53 for n < 2^26
    k = np.maximum(counts, 1.0)
    low = (1 << n.bit_length()) - 1
    pad = np.array(_DBL_MAX_BITS & ~low | n).view(np.float64)
    index = np.arange(n + 1)

    def rank(cols: slice) -> None:
        block, count = field[cols], counts[cols]
        keep = int(count.max())
        # the cut keeps the unobserved slots of the less observed columns
        observed = np.arange(keep) < count[:, None]
        block[:, :n] = values[:, cols].T
        block += 0.0
        bits = block.view(np.int64)
        bits &= ~low
        bits |= index
        np.fmin(block, pad, out=block)
        block.sort(axis=1)
        # flat index into `block` of each kept entry, in sorted order
        offsets = np.arange(0, block.size, n + 1)[:, None]
        order = bits[:, :keep] & low
        order += offsets
        # adjacent observed keys sharing their top bits
        kept = bits[:, :keep]
        kept &= ~low
        near = kept[:, 1:] == kept[:, :-1]
        near &= observed[:, 1:]
        if not near.any():
            depth = depth_from_counts(
                kind, np.arange(1.0, keep + 1), np.arange(0.0, keep), k[cols, None]
            )
        else:
            # the exact values in key order fall only where near-ties
            # misplaced them
            np.fmin(values[:, cols].T, np.inf, out=block[:, :n])
            block[:, n] = np.inf
            ranked = block.reshape(-1)[order]
            if (ranked[:, 1:] < ranked[:, :-1]).any():
                order = np.argsort(block, axis=1)[:, :keep]
                np.copyto(order, n, where=~observed)
                order += offsets
                ranked = block.reshape(-1)[order]
            *groups, sizes = _tied_counts(ranked, k[cols])
            # dropped before the depths are built: each thread's peak
            # stays resident in its own malloc arena
            del ranked
            depth = np.repeat(depth_from_counts(kind, *groups), sizes).reshape(-1, keep)
        block.fill(fill)
        block.reshape(-1)[order] = depth

    _share(rank, T, n, _MIN_WIDTH)
    return field[:, :n].T


def _count_columns(hits: np.ndarray) -> np.ndarray:
    """Number of True entries in each column of a fresh C-contiguous bool
    matrix, as intp; `hits` is overwritten.

    While at least 128 rows remain, the rows are folded pairwise in place
    as bytes, the lower half added onto the upper half, at most 7 times:
    after f folds a byte holds a count of at most 2^f rows, so none
    wraps. The rows that remain are summed into the narrowest unsigned
    type that holds the row count, so the counts are exact for any
    number of rows. Fewer rows sum faster than they fold.
    """
    rows = hits.view(np.uint8)
    acc = np.min_scalar_type(rows.shape[0])
    for _ in range(7):
        m = rows.shape[0]
        if m < 128:
            break
        half = m // 2
        rows[:half] += rows[m - half :]
        rows = rows[: m - half]
    return rows.sum(axis=0, dtype=acc).astype(np.intp)


# Least number of cells a query compares per inner loop. Broadcast over
# the (n, T) value matrix, a T-value query runs n inner loops of T
# elements each; the first n - n % R rows, read as a (n // R, R * T)
# view against the query tiled R = ceil(_STRETCH_CELLS / T) times, run
# n // R loops of R * T elements, which gives the same bools faster.
# Stretches of 4040 cells measured no faster than the broadcast; the
# tiled query stays under 128 KB.
_STRETCH_CELLS = 1 << 13


def _compare_counts(
    values: np.ndarray, x: np.ndarray, points: np.ndarray, count_lt: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Counts (#<= x, #< x) at columns `points` of a C-contiguous (n, T)
    matrix against a length-T row, #< x only if `count_lt` (else None).

    Each comparison runs over the whole matrix in place, in stretches of
    R = ceil(_STRETCH_CELLS / T) contiguous rows against `x` tiled R
    times, and the leftover n % R rows against `x` itself. Its bool
    result is counted per column by `_count_columns`, exactly and as
    intp, and the second comparison reuses the first one's matrix.
    """
    n, T = values.shape
    rows = -(-_STRETCH_CELLS // T)
    m = n - n % rows
    hits = np.empty((n, T), bool)
    # (left operand, right operand, output) of each compare
    parts = [(values[m:], x, hits[m:])]
    if m:
        shape = (m // rows, rows * T)
        parts.append((values[:m].reshape(shape), np.tile(x, rows), hits[:m].reshape(shape)))

    def count(compare: np.ufunc) -> np.ndarray:
        for left, right, out in parts:
            compare(left, right, out=out)
        return _count_columns(hits)[points]

    return count(np.less_equal), count(np.less) if count_lt else None


def _usable_points(sample: FunctionalSample, curve: PartialCurve) -> np.ndarray:
    """Grid points where the curve and at least one sample curve are observed."""
    if len(curve) != sample.grid.size:
        raise ValueError("curve length does not match the sample grid")
    points = np.flatnonzero(curve.mask & (sample.counts > 0))
    if points.size == 0:
        raise ValueError("no sample curve observed on the curve's observation set")
    return points


def pointwise_depth_field(sample: FunctionalSample, kind: DepthKind) -> np.ndarray:
    """Per-curve per-point sample depths, NaN where a curve is unobserved.

    Each curve's own value participates in the pointwise empirical
    distribution it is evaluated against (plug-in convention). The
    field is ranked in grid-column-major rows, one per grid column plus
    a spare slot, and returned as the (n, T) transposed view of their
    first n slots. That view is neither C- nor F-contiguous, but
    `.tobytes()` gives the same C-order bytes as a C-ordered field
    would. Each block of columns is ordered by one float sort of keys
    that carry their curve index in their low bits; every unobserved
    slot holds one padding key, which sorts after every observed key.
    Where no two observed keys of a column share their top bits, the
    order is exact and tie-free. Only other blocks re-read their values
    in that order, and take the depth once per tie group, or rank by
    `np.argsort` where near-ties have misplaced it. The depths are
    scattered within the column's own row.
    """
    return _depth_field(sample, kind, np.nan)


@dataclass(frozen=True)
class DepthResult:
    """Integrated depth of every curve in a sample, as a read-only array.

    The per-point depths behind it are `pointwise_depth_field`'s.
    """

    poifd: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "poifd", _readonly(np.array(self.poifd, float)))


def poifd_all(
    sample: FunctionalSample,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
) -> DepthResult:
    """Integrated depth of every curve in the sample.

    An unknown, negative or degenerate `phi` raises before the depth
    field is ranked; a degenerate one names the lowest curve whose
    observed points all weigh 0.

    Parameters
    ----------
    sample : FunctionalSample
        Curves plus masks on a shared grid.
    kind : DepthKind
        Univariate depth used pointwise.
    phi : str or callable
        Coverage-weight shaping function on [0, 1].
    """
    point_weights = _phi_of_coverage(phi, sample.coverage)
    positive = point_weights > 0.0
    if not positive[sample.counts > 0].all():
        bad = np.flatnonzero(~(sample.mask & positive).any(axis=1))
        if bad.size:
            raise ValueError(
                f"degenerate phi: weights of curve {bad[0]} sum to zero over its observed points"
            )
    n, T = sample.values.shape
    # allocated before the field, so a caller that keeps the depths holds
    # no heap block above the field's and the next call can reuse its space
    out = np.empty(n)
    field = _depth_field(sample, kind, 0.0)

    # the weights are built in blocks of rows, so no (n, T) weight matrix
    # is held next to the field
    def weigh(rows: slice) -> None:
        weights = np.multiply(sample.mask[rows], point_weights)
        weights /= weights.sum(axis=1)[:, None]
        # unobserved slots hold 0 in the field and weigh 0
        weights *= field[rows]
        weights.sum(axis=1, out=out[rows])

    _share(weigh, n, T)
    return DepthResult(out)


def poifd_of(
    sample: FunctionalSample,
    curve: PartialCurve,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
    phi: PhiLike = "identity",
) -> float:
    """Integrated depth of an arbitrary (curve, mask) pair against a sample.

    Grid points of the curve's observation set where no sample curve is
    observed carry no empirical information and are skipped. For a curve
    belonging to the sample this never happens and the result matches
    its entry in `poifd_all` up to rounding. The counts at each usable
    point run over the sample's full value matrix in place, with no
    copy: an unobserved slot holds NaN, which compares False, so it
    counts neither as <= x(t) nor as < x(t). Fraiman-Muniz reads #<= x(t)
    only and takes one comparison; Tukey and simplicial take two. Each
    comparison is counted per column by folding its rows as bytes. An
    unknown or degenerate `phi` raises before any comparison.
    """
    kind = DepthKind(kind)
    points = _usable_points(sample, curve)
    weights = _phi_of_coverage(phi, sample.coverage)[points]
    norm = _weight_norm(weights)
    c_le, c_lt = _compare_counts(sample.values, curve.values, points, kind in _READS_LT)
    depth_vals = depth_from_counts(kind, c_le, c_lt, sample.counts[points])
    return float((depth_vals * weights).sum() / norm)


def _weight_norm(weights: np.ndarray) -> float:
    """Sum of one curve's point weights, which must be positive."""
    norm = weights.sum()
    if norm <= 0.0:
        raise ValueError("weights sum to zero over the curve's observed points")
    return norm


def ifd(
    sample: FunctionalSample,
    curve: PartialCurve,
    kind: DepthKind = DepthKind.FRAIMAN_MUNIZ,
) -> float:
    """Integrated depth of a fully observed curve in a fully observed sample.

    The pointwise depths are averaged with uniform weights 1/T over the grid.
    """
    kind = DepthKind(kind)
    if not bool(sample.mask.all()):
        raise ValueError("ifd requires a fully observed sample")
    if not curve.is_fully_observed:
        raise ValueError("ifd requires a fully observed curve")
    # every point is usable: both sample and curve are fully observed
    points = _usable_points(sample, curve)
    c_le, c_lt = _compare_counts(sample.values, curve.values, points, kind in _READS_LT)
    depth_vals = depth_from_counts(kind, c_le, c_lt, sample.counts)
    return float((depth_vals * (1.0 / sample.grid.size)).sum())

