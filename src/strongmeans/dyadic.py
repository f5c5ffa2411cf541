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
split in two.  `union_mask` marks a union of such arcs, or of boxes made
of them, as a bitmap on either grid.
"""

from __future__ import annotations

import math

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


# difference-array sign of each (piece, end) of an arc
_PIECE_SIGN = np.array([[1.0, -1.0], [1.0, -1.0]])


def union_mask(lo, length, S: int) -> np.ndarray:
    """Bitmap of a union of boxes on the torus of S units per axis.

    `lo` has one row per box and one column per axis (d <= 2); box e
    covers [lo[e, a], lo[e, a] + length[e, a]) mod S on axis a, with
    0 <= lo < S and 0 < length <= S, and `length` broadcasts against
    `lo`.  A wrapping arc is the pieces [lo, S) and [0, lo + length - S).
    Every piece edge cuts its axis; one difference array, filled by one
    `bincount`, counts the boxes over each cell of the coarse grid
    those cuts make, and each coarse cell is then repeated over its
    units.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = lo + length
    k, d = lo.shape
    # (axis, box, piece, end): the second piece is empty unless the arc wraps
    cuts = np.zeros((d, k, 2, 2), dtype=np.int64)
    cuts[:, :, 0, 0] = lo.T
    cuts[:, :, 0, 1] = np.minimum(hi, S).T
    cuts[:, :, 1, 1] = np.maximum(hi - S, 0).T
    flat = np.zeros(k, dtype=np.int64)
    sign = np.ones(1)
    widths = []
    for a in range(d):
        edges = np.sort(np.concatenate(([0, S], cuts[a].ravel())))
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
        # difference-array corner of every piece product: a start adds
        # the box, an end takes it away, on each axis
        at = np.searchsorted(edges, cuts[a]).reshape((k,) + (1,) * (2 * a) + (2, 2))
        flat = flat[..., None, None] * len(edges) + at
        sign = np.multiply.outer(sign, _PIECE_SIGN)
        widths.append(np.diff(edges))
    shape = [len(w) + 1 for w in widths]
    count = np.bincount(flat.ravel(), np.broadcast_to(sign, flat.shape).ravel(),
                        minlength=math.prod(shape)).reshape(shape)
    for a in range(d):
        np.cumsum(count, axis=a, out=count)
    mask = count[(slice(-1),) * d] > 0.5  # counts are exact small integers
    for a in range(d):
        mask = np.repeat(mask, widths[a], axis=a)
    return mask
