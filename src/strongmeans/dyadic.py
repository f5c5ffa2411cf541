"""Exact dyadic geometry on the torus, on integer arrays.

A dyadic cell is an integer row: (level, index) for the interval
[index * 2**-level, (index+1) * 2**-level), and (level, i, j) for the
square of side 2**-level at (i, j).  The stopping-time selection
(`czd.stopping_cells`) returns its cells in this one format, as int64
arrays with one row per cell, and the decomposition, the exceptional
sets and the covering checks pass them on in it.

Exceptional sets are unions of odd dilates, whose ends fall on the 2**J
sample cells (`estimates.build_exceptional_set`).  Only the covering
lemma's 9/8-dilates need a finer grid: S = 2**(j_max + 4) units on the
torus [0, 1), so that a cell of level <= j_max spans w >= 16 units and
its dilate, 9w/8 long and starting w/16 before it, has integer ends.
`dilate_units` is that dilation, integer arithmetic on arrays of levels
and indices.  Arcs are half-open [lo, lo + length) with 0 <= lo < S and
0 < length <= S; an arc that wraps past 1 keeps lo + length > S, never
split in two.  `union_mask` marks a union of boxes on the sample grid,
S = 2**J units per axis, each box a product of such arcs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_J_MAX = 14
_SCALE_BITS = 4  # a level-j_max cell's 9/8-dilate starts one unit before it


class ResolutionExceededError(ValueError):
    """Operation would need cells finer than the global resolution cap."""


def scale_for(j_max: int = DEFAULT_J_MAX) -> int:
    return 1 << (j_max + _SCALE_BITS)


def dilate_units(level, index, j_max: int = DEFAULT_J_MAX):
    """(lo, length) of the concentric 9/8-dilates of dyadic intervals.

    Works elementwise on integer arrays of levels and indices as on
    ints.  The length is min(1, 9/8 * measure) and lo the left end mod
    1, both at scale 2**(j_max+4), where every step is exact.
    """
    top = np.max(level, initial=0)
    if top > j_max:
        raise ResolutionExceededError(f"level {top} exceeds resolution cap {j_max}")
    S = scale_for(j_max)
    w = S >> level
    length = np.minimum(w * 9 // 8, S)  # exact: 8 divides w
    lo = ((2 * index + 1) * w - length) // 2 % S  # doubled center minus length
    return lo, length


def union_mask(lo, length, S: int) -> np.ndarray:
    """Bitmap of a union of boxes on the torus of S units per axis.

    `lo` has one row per box and one column per axis (d <= 2); box e
    covers [lo[e, a], lo[e, a] + length[e, a]) mod S on axis a, with
    0 <= lo < S and 0 < length <= S, and `length` broadcasts against
    `lo`.  A wrapping arc is the pieces [lo, S) and [0, lo + length - S).
    Every piece product adds +-1 at its corners of one (S+1)**d
    difference array, and a cumsum along each axis then counts the
    boxes over each unit.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = lo + length
    k, d = lo.shape
    # per box and axis, the ends of the pieces [lo, min(hi, S)) and
    # [0, max(hi - S, 0)), the second empty unless the arc wraps; a start
    # adds the box and an end takes it away
    ends = lo, np.minimum(hi, S), 0, np.maximum(hi - S, 0)
    at = np.stack(np.broadcast_arrays(*ends), -1)
    sign = np.array([1, -1, 1, -1])
    if d == 2:  # the corners of each piece product, as flat indices
        at = at[:, 0, :, None] * (S + 1) + at[:, 1, None, :]
        sign = np.outer(sign, sign)
    count = np.zeros((S + 1,) * d, dtype=np.int64)
    # one value per index: numpy 2.4's add.at sums wrongly when it
    # broadcasts int64 values over a 2-d index
    np.add.at(count.reshape(-1), at.ravel(), np.tile(sign.ravel(), k))
    for a in range(d):
        np.cumsum(count, axis=a, out=count)
    return count[(slice(-1),) * d] > 0
