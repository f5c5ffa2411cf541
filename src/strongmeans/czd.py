"""Stopping-time (Calderon-Zygmund) decomposition on dyadic grids.

One routine, `stopping_cells`, selects the maximal dyadic cells whose
average exceeds the stopping height, for a batch of functions and
several heights per function at once.  It builds one level-sum pyramid
per batch and tests only the cells that are over a height: a cell is
selected at a height when it is over it and no ancestor is.  One dense
comparison per level, at each row's lowest height, finds the cells
over some height; each gets a code with one bit per height it is over,
and its ancestors' codes, gathered from the levels above, say at which
heights it is blocked.  No mask of blocked cells is carried from level
to level.  A caller that selects block after block passes flat buffers
for the level sums and the codes, allocated once.  The selected cells
come out as an int64 array of `dyadic` cell rows, (level, index) in
dim 1 and (level, i, j) in dim 2, the format the exceptional sets and
the covering checks read; `decompositions` calls `stopping_cells` with
a batch of one and all of a function's heights, and keeps each height's
rows as its bad cells, and `decompose` is its one-height case.

Every row selects on the int64 units at 2**-FRACT_BITS that
`exact_units` gives (rounded off the grid); `stopping_cells` takes them
from its caller, so a caller that checks the selection reads the same
units.  A height h is one Python-int root limit floor(h * 2**(dim*J +
FRACT_BITS)), which level j reads shifted right by dim*j, so any
positive height compares exactly.  Rows on the grid are decided exactly
for their samples, rows off it unless a cell sum falls in a rounding
band (`_certified`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import GridFunction

FRACT_BITS = 24
# every level sum stays below this (OverflowError otherwise), so a limit
# capped here compares with every sum as the uncapped one does
_CAP = 1 << 62
# a cell's code has one bit per height of its row
MAX_HEIGHTS = 8


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
    exact: bool  # the selection is the samples' own (czd._certified)

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def J(self) -> int:
        return self.source.J


def exact_units(samples: np.ndarray, out=None, scratch=None):
    """|samples| as int64 at 2**FRACT_BITS, and which rows are on the grid.

    A row is on the grid when every magnitude is finite, on it and below
    2**53 once scaled.  Magnitudes off the grid read rounded to it, and
    those that are not finite or too large read 0.  `out` (int64) and
    `scratch` (float64), C-contiguous and of the samples' shape, are
    buffers a caller reuses: the units are written to `out`.
    """
    scaled = np.abs(samples, out=None if out is None else out.view(np.float64))
    scaled = scaled.astype(np.float64, copy=False)
    scaled *= float(1 << FRACT_BITS)
    rounded = np.rint(scaled, out=scratch)
    ok = scaled == rounded
    rows = ok.reshape(len(samples), -1).all(axis=1)
    # no magnitude is negative; NaN fails both tests, an infinity the
    # size bound
    if not rounded.max(initial=0) < float(1 << 53):
        fits = rounded < float(1 << 53)
        rows &= fits.reshape(len(samples), -1).all(axis=1)
        rounded[~fits] = 0
    units = scaled.view(np.int64)  # the scaled buffer, read no more
    units[...] = rounded
    return units, rows


def pyramid_cells(J: int, dim: int) -> int:
    """Cells of one row on levels 0..J together."""
    return ((1 << (dim * (J + 1))) - 1) // ((1 << dim) - 1)


def _levels(flat: np.ndarray, B: int, dim: int, count: int) -> list[np.ndarray]:
    """Views of `flat` for levels 0..count-1 of B rows, level after
    level, each shaped (B, 2**j) or (B, 2**j, 2**j)."""
    views, at = [], 0
    for j in range(count):
        size = B << (dim * j)
        views.append(flat[at:at + size].reshape((B,) + (1 << j,) * dim))
        at += size
    return views


def _level_sums(finest: np.ndarray, J: int, dim: int, out=None) -> list[np.ndarray]:
    """sums[j][b] = per-cell sums of row b's finest samples at level j;
    `out`, when given, holds a view for each level below J."""
    sums = [None] * (J + 1)
    sums[J] = cur = finest
    B = len(finest)
    for j in range(J - 1, -1, -1):
        dst = None if out is None else out[j]
        if dim == 1:
            cur = np.add(cur[:, 0::2], cur[:, 1::2], out=dst)
        else:
            m = cur.shape[1] // 2
            cur = cur.reshape(B, m, 2, m, 2).sum(axis=(2, 4), out=dst)
        sums[j] = cur
    return sums


@dataclass(frozen=True)
class StoppingCells:
    """Maximal bad cells of a batch of functions, each at several heights.

    One entry per selected cell, ordered by level, then row, height column
    and the cell's per-axis indices.  `cells` holds the `dyadic` cell rows,
    int64 of shape (k, 1 + dim): (level, index) in dim 1, (level, i, j) in
    dim 2.
    """

    exact: np.ndarray  # (B, H) bool: the row's selection at that height is exact
    row: np.ndarray
    col: np.ndarray  # which of the row's heights selected the cell
    cells: np.ndarray


def ratio(h) -> tuple[int, int]:
    """(numerator, denominator) of a height in lowest terms."""
    try:
        return h.as_integer_ratio()
    except AttributeError:  # numpy integers
        return Fraction(h).as_integer_ratio()


def stopping_cells(samples: np.ndarray, heights, units,
                   sums: np.ndarray | None = None,
                   codes: np.ndarray | None = None) -> StoppingCells:
    """Stopping-time selection on |samples| for a batch of functions at
    once.

    `samples` has shape (B, n) in 1-d or (B, n, n) in 2-d, which fixes
    dim; `heights` holds B equal-length sequences of at most MAX_HEIGHTS
    positive heights, one per row; `units` is `exact_units(samples)`,
    whose integers every row selects on.  `sums` (int64) and `codes`
    (uint8) are flat buffers a caller reuses, of at least
    B * pyramid_cells(J - 1, dim) and B * pyramid_cells(J, dim)
    elements: they hold the level sums below the finest level and the
    cells' codes.  One level-sum pyramid serves every row and height.

    Raises HeightTooLowError when a row's mean exceeds one of its
    heights, since the root cell would then already be selected and
    nothing is maximal, and OverflowError when a level sum would reach
    2**62.
    """
    ints, on_grid = units
    B, dim = len(ints), ints.ndim - 1
    J = ints.shape[1].bit_length() - 1
    H = len(heights[0])
    if H > MAX_HEIGHTS:
        raise ValueError(f"at most {MAX_HEIGHTS} heights per row")
    level_sums = _level_sums(ints, J, dim, None if sums is None else _levels(sums, B, dim, J))
    # sums grow toward the root, so the largest unit times the cell count
    # bounds them all; past that, every level is read: a sum of 2**dim
    # cells in [0, 2**62) is its true value or, past 2**63, negative
    if (int(ints.max(initial=0)).bit_length() + dim * J >= 62
            and not all(0 <= s.min() and s.max() < _CAP for s in level_sums)):
        raise OverflowError("exact comparison budget exceeded")
    limits = _limits(heights, J, dim)

    root = level_sums[0].reshape(B, 1) > limits[0]
    if root.any():
        r, c = np.argwhere(root)[0]
        mean = float(level_sums[0][r].sum()) / (1 << (dim * J + FRACT_BITS))
        raise HeightTooLowError(
            f"mean {mean:.6g} exceeds stopping height {float(heights[r][c]):.6g}")

    exact = np.repeat(on_grid[:, None], H, axis=1)
    off = np.flatnonzero(~on_grid)
    if off.size:
        exact[off] = _certified(samples[off], [s[off] for s in level_sums],
                                [heights[i] for i in off], J, dim)
    return StoppingCells(exact, *_select(level_sums, limits, codes))


def _limits(heights, J: int, dim: int) -> np.ndarray:
    """(J + 1, B, H) int64: floor(h k 2**FRACT_BITS) for the (B, H)
    heights h and the k samples of a level-j cell, clamped to
    [-_CAP, _CAP].  A unit sum S is over h when it exceeds that floor,
    and floor(floor(x) / m) = floor(x / m) makes it the root's floor
    shifted right by dim*j."""
    shift = dim * J + FRACT_BITS
    tops = [[(n << shift) // d for n, d in map(ratio, hs)] for hs in heights]
    levels = np.arange(0, dim * (J + 1), dim, dtype=object).reshape(-1, 1, 1)
    return np.clip(np.array(tops, dtype=object) >> levels, -_CAP, _CAP).astype(np.int64)


def _certified(samples, level_sums, heights, J: int, dim: int) -> np.ndarray:
    """(R, H) bool for R rows off the grid: at which heights their
    selection on units is the one the samples themselves give.

    A unit is within 1/2 of |sample| * 2**FRACT_BITS when that is finite
    and rounds below 2**53, so a cell's unit sum S over k samples is
    within k / 2 of theirs and compares with h k 2**FRACT_BITS as theirs
    does unless |S - h k 2**FRACT_BITS| <= k / 2, i.e. unless S lies in
    [(h - half) k, (h + half) k] * 2**FRACT_BITS, half = 2**-(FRACT_BITS + 1).
    """
    scaled = np.abs(samples).reshape(len(samples), -1) * float(1 << FRACT_BITS)
    fits = (np.rint(scaled) < float(1 << 53)).all(axis=1)
    half = Fraction(1, 2 << FRACT_BITS)
    hi = _limits([[Fraction(h) + half for h in hs] for hs in heights], J, dim)
    lo = -_limits([[half - Fraction(h) for h in hs] for hs in heights], J, dim)  # a ceiling
    band = np.zeros(hi.shape[1:], dtype=bool)
    for j, s in enumerate(level_sums):
        s = s.reshape(len(s), 1, -1)
        band |= ((lo[j, ..., None] <= s) & (s <= hi[j, ..., None])).any(axis=2)
    return fits[:, None] & ~band


def _select(level_sums, limits, codes):
    """(row, col, cells) of the maximal cells over each height, ordered
    as `StoppingCells` is, from the level sums of B rows and their
    (J + 1, B, H) limits; `codes` as `stopping_cells` takes it.

    A cell of level j is over height c when its sum exceeds
    limits[j, row, c].  Level by level, one dense comparison at the
    row's lowest limit finds the cells over some height; each gets a
    code with bit c set when it is over height c, kept in place for the
    levels below to read.  A cell is selected at the heights where its
    own bit is set and no ancestor's is.  Most cells over a height sit
    under a parent over the same heights; the rest OR in the codes of
    their further ancestors, read at (i >> s, j >> s) per axis for an
    ancestor s levels up.
    """
    J, (B, H), dim = len(level_sums) - 1, limits.shape[1:], level_sums[0].ndim - 1
    if codes is None:
        codes = np.empty(B * pyramid_cells(J, dim), dtype=np.uint8)
    level_codes = _levels(codes, B, dim, J + 1)
    # where each level starts in `codes`
    start = np.array([B * pyramid_cells(j - 1, dim) for j in range(J + 1)])
    lowest = limits.min(axis=2, keepdims=True)
    keys, values = [], []
    for j in range(J + 1):
        # the flat index within level j is row * 2**(dim j) + index
        cells = level_sums[j].reshape(B, -1)
        key = np.flatnonzero(np.greater(
            cells, lowest[j], out=level_codes[j].view(bool).reshape(B, -1)))
        keys.append(key)
        values.append(cells.reshape(-1).take(key))
    level = np.repeat(np.arange(J + 1), [k.size for k in keys])
    key, value = np.concatenate(keys), np.concatenate(values)
    # the key's low dim * level bits are the cell's per-axis indices,
    # level bits each, and the bits above them its row
    row = key >> (dim * level)
    low = (1 << level) - 1
    axes = [key >> (level * a) & low for a in range(dim - 1, -1, -1)]
    mark = np.zeros(key.size, dtype=np.uint8)
    for c in range(H):
        over = value > limits[:, :, c].reshape(-1).take(level * B + row)
        mark |= over.view(np.uint8) << c
    codes[start.take(level) + key] = mark

    # the parent's code, then only the cells it leaves a height to
    above = codes[start.take(level - 1) + _ancestor(row, axes, 1, level - 1)]
    keep = np.flatnonzero(mark & ~above)
    level, row, mark, above, *axes = (
        a.take(keep) for a in (level, row, mark, above, *axes))
    for k in range(1, J - 1):
        below = slice(np.searchsorted(level, k + 2), None)  # levels past k + 1
        at = _ancestor(row[below], [x[below] for x in axes], level[below] - k, k)
        above[below] |= level_codes[k].reshape(-1).take(at)
    fresh = mark & ~above
    parts = [np.flatnonzero(fresh & (1 << c)) for c in range(H)]
    i = np.concatenate(parts)
    col = np.repeat(np.arange(H), [p.size for p in parts])
    # each part runs by level, row and index: a stable sort by level,
    # row and column interleaves them
    order = np.argsort((level.take(i) * B + row.take(i)) * H + col, kind="stable")
    i, col = i.take(order), col.take(order)
    return row.take(i), col, np.stack([a.take(i) for a in (level, *axes)], axis=1)


def _ancestor(row, axes, shift, k):
    """Flat index within level k of the ancestor `shift` levels up of
    each cell of `row` with per-axis indices `axes`."""
    at = row
    for x in axes:
        at = (at << k) | (x >> shift)
    return at


def decompositions(f: GridFunction, lams) -> list[CZDecomposition]:
    """Decompose |f| at each height of `lams`, in order: one level-sum
    pyramid and one `stopping_cells` call per chunk of MAX_HEIGHTS
    heights, with f as a batch of one, so each height gets the bad
    cells and the exactness of a one-height call.  Raises
    HeightTooLowError if the mean of |f| exceeds a height, since the
    root cell would then already be selected and nothing is maximal.
    """
    if any(lam <= 0 for lam in lams):
        raise ValueError("height must be positive")
    heights = [Fraction(lam) for lam in lams]
    batch = f.samples[None]
    units = exact_units(batch)
    out = []
    for k in range(0, len(heights), MAX_HEIGHTS):
        chunk = heights[k:k + MAX_HEIGHTS]
        sel = stopping_cells(batch, [chunk], units)
        out += [CZDecomposition(source=f, height=h, bad=sel.cells[sel.col == c],
                                exact=bool(sel.exact[0, c]))
                for c, h in enumerate(chunk)]
    return out


def decompose(f: GridFunction, lam: float) -> CZDecomposition:
    """Decompose |f| at height lam: `decompositions` at that one height."""
    [cz] = decompositions(f, [lam])
    return cz
