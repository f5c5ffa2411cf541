"""Stopping-time (Calderon-Zygmund) decomposition on dyadic grids.

One routine, `stopping_cells`, selects the maximal dyadic cells whose
average exceeds the stopping height, for a batch of functions and
several heights per function at once: it builds one level-sum pyramid
per batch and descends the dyadic tree breadth first, keeping a running
mask of the cells blocked by a selected ancestor.  `decompose` calls it
with a batch of one and keeps the bad cells as an int64 array of
`dyadic` cell rows, (level, index) in dim 1 and (level, i, j) in dim 2,
the format the exceptional sets and the covering checks read.

Selection is exact: whenever the samples are dyadic rationals with at
most FRACT_BITS fractional bits (the corpus guarantees this for
nonnegative families), cell sums are integer arithmetic and every
comparison against the height is an exact rational comparison.
Otherwise float sums are used and the outcome is correct up to float
rounding of the cell averages.  `exact_units` gives those integers and
says which rows have them; `stopping_cells` takes them from its caller,
so a caller that checks the selection reads the same units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import union_mask
from .grid import GridFunction

FRACT_BITS = 24
# int64 comparison budget: sums * height.denominator and
# height.numerator * 2**(FRACT_BITS + d*J) must both stay below 2**62
_DEN_CAP = 1 << 16


class HeightTooLowError(ValueError):
    """The root average already exceeds the stopping height."""


@dataclass(frozen=True)
class CZDecomposition:
    """Result of a stopping-time decomposition of |f| at a given height."""

    source: GridFunction
    height: Fraction
    # int64 cell rows, (level, index) in dim 1 and (level, i, j) in dim 2,
    # ordered by level, then index: maximal and pairwise disjoint
    bad: np.ndarray
    exact: bool  # True when every selection comparison was exact

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def J(self) -> int:
        return self.source.J

    def bad_mask(self) -> np.ndarray:
        """Boolean mask over finest cells covered by some bad cell."""
        n = 1 << self.J
        w = n >> self.bad[:, :1]
        return union_mask(self.bad[:, 1:] * w, w, n)


def exact_units(samples: np.ndarray):
    """|samples| as int64 at 2**FRACT_BITS, and which rows are exact.

    A row is exact when every magnitude is finite, on the grid and below
    2**53 once scaled.  Magnitudes off the grid read rounded to it, and
    those that are not finite or too large read 0.
    """
    scaled = np.abs(samples).astype(np.float64, copy=False)
    scaled *= float(1 << FRACT_BITS)
    rounded = np.rint(scaled)
    # no magnitude is negative; NaN fails both tests, an infinity the
    # size bound
    ok = scaled == rounded
    fits = rounded < float(1 << 53)
    ok &= fits
    rows = ok.reshape(len(samples), -1).all(axis=1)
    if not rows.all():
        rounded[~fits] = 0
    units = scaled.view(np.int64)  # the scaled buffer, read no more
    units[...] = rounded
    return units, rows


def _level_sums(finest: np.ndarray, J: int, dim: int) -> list[np.ndarray]:
    """sums[j][b] = per-cell sums of row b's finest samples at level j."""
    sums = [None] * (J + 1)
    sums[J] = cur = finest
    B = len(finest)
    for j in range(J - 1, -1, -1):
        if dim == 1:
            cur = cur[:, 0::2] + cur[:, 1::2]
        else:
            m = cur.shape[1] // 2
            cur = cur.reshape(B, m, 2, m, 2).sum(axis=(2, 4))
        sums[j] = cur
    return sums


@dataclass(frozen=True)
class StoppingCells:
    """Maximal bad cells of a batch of functions, each at several heights.

    One entry per selected cell, ordered by level, then row, height
    column and index.  `index` is the cell's index within its level, in
    C order for dim 2: cube (i, j) of level l has index i * 2**l + j.
    """

    exact: np.ndarray  # (B,) bool: every comparison of the row was exact
    row: np.ndarray
    col: np.ndarray  # which of the row's heights selected the cell
    level: np.ndarray
    index: np.ndarray


def cell_axes(level: np.ndarray, index: np.ndarray, dim: int) -> tuple:
    """Per-axis indices of cells given by level and C-order index."""
    axes = []
    for _ in range(dim - 1):
        index, last = np.divmod(index, 1 << level)
        axes.append(last)
    return (index, *reversed(axes))


def stopping_cells(samples: np.ndarray, dim: int, heights, units) -> StoppingCells:
    """Stopping-time selection on |samples| for a batch of functions at
    once.

    `samples` has shape (B, n) for dim 1 or (B, n, n) for dim 2;
    `heights` holds B equal-length sequences of positive heights, one
    per row; `units` is `exact_units(samples)`.  A row takes the exact
    integer path when its samples
    lie on the 2**-FRACT_BITS grid and its heights have denominators of
    at most _DEN_CAP, else the float path.  Each path builds one
    level-sum pyramid for its rows and descends it once, selecting at
    every height together; a running mask blocks the cells below a
    selected ancestor, so every selected cell is maximal.

    Raises HeightTooLowError when a row's mean exceeds one of its
    heights, since the root cell would then already be selected and
    nothing is maximal, and OverflowError when the exact comparisons
    would leave int64.
    """
    J = samples.shape[1].bit_length() - 1
    heights = [[Fraction(h) for h in hs] for hs in heights]
    ints, on_grid = units
    exact = on_grid & np.array(
        [max(h.denominator for h in hs) <= _DEN_CAP for hs in heights], dtype=bool)
    parts = []
    for path in (True, False):
        rows = np.flatnonzero(exact == path)
        if rows.size:
            take = slice(None) if rows.size == len(samples) else rows  # a view, no copy
            finest = ints[take] if path else np.abs(samples[take]).astype(np.float64)
            r, c, lv, ix = _select(finest, [heights[i] for i in rows], dim, J, path)
            parts.append((rows[r], c, lv, ix))
    row, col, level, index = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((index, col, row, level))
    return StoppingCells(exact, row[order], col[order], level[order], index[order])


def _select(finest, heights, dim: int, J: int, exact: bool):
    """(row, col, level, index) of the maximal cells over each height."""
    sums = _level_sums(finest, J, dim)
    shape = (len(finest), len(heights[0])) + (1,) * dim
    if exact:
        num = [h.numerator for hs in heights for h in hs]
        den = [h.denominator for hs in heights for h in hs]
        # int64 budget: sums * den and num * 2**(FRACT_BITS + dim*(J-j))
        # must stay below 2**62; a sum that wrapped past 2**63 reads
        # negative, and the root need not show it
        top = max(int(s.max(initial=0)) for s in sums)
        if (max(num).bit_length() + dim * J + FRACT_BITS >= 62
                or top.bit_length() + max(den).bit_length() >= 62
                or min(int(s.min(initial=0)) for s in sums) < 0):
            raise OverflowError("exact comparison budget exceeded")
        num = np.array(num, dtype=np.int64).reshape(shape)
        den = np.array(den, dtype=np.int64).reshape(shape)

        def over(sums_j, j):
            # sum * den > num * n_cell * 2**FRACT_BITS; for an integer sum
            # that is sum > floor(num * n_cell * 2**FRACT_BITS / den)
            return sums_j[:, None] > (num << (dim * (J - j) + FRACT_BITS)) // den
    else:
        h = np.array([float(h) for hs in heights for h in hs]).reshape(shape)

        def over(sums_j, j):
            return sums_j[:, None] > h * float(1 << (dim * (J - j)))

    root = over(sums[0], 0)
    if root.any():
        r, c = np.argwhere(root.reshape(shape[:2]))[0]
        mean = float(sums[0][r].sum()) / (1 << dim * J)
        if exact:
            mean /= 1 << FRACT_BITS
        raise HeightTooLowError(
            f"mean {mean:.6g} exceeds stopping height {float(heights[r][c]):.6g}")

    empty = np.zeros(0, dtype=np.int64)
    found = [(empty, empty, empty, empty)]
    alive = np.ones(shape, dtype=bool)
    for j in range(1, J + 1):
        for axis in range(2, 2 + dim):
            alive = alive.repeat(2, axis=axis)
        bad = alive & over(sums[j], j)
        # one flat scan: C order makes the flat index within a row of
        # level j the cell's index
        rc, index = np.divmod(np.flatnonzero(bad), 1 << (dim * j))
        r, c = np.divmod(rc, shape[1])
        found.append((r, c, np.full(r.size, j, dtype=np.int64), index))
        alive &= ~bad
    return (np.concatenate(a) for a in zip(*found))


def decompose(f: GridFunction, lam: float) -> CZDecomposition:
    """Decompose |f| at height lam: `stopping_cells` with a batch of one.

    Raises HeightTooLowError if the mean of |f| exceeds the height, since
    the root cell would then already be selected and nothing is maximal.
    """
    if lam <= 0:
        raise ValueError("height must be positive")
    height = Fraction(lam)
    batch = f.samples[None]
    cells = stopping_cells(batch, f.dim, [[height]], exact_units(batch))
    level = cells.level
    return CZDecomposition(
        source=f,
        height=height,
        bad=np.stack((level, *cell_axes(level, cells.index, f.dim)), axis=1),
        exact=bool(cells.exact[0]),
    )

