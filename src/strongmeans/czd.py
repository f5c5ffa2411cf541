"""Stopping-time (Calderon-Zygmund) decomposition on dyadic grids.

The decomposition descends the dyadic tree breadth first and selects the
maximal cells whose average exceeds the stopping height.  Selection is
exact: whenever the samples are dyadic rationals with at most FRACT_BITS
fractional bits (the corpus guarantees this for nonnegative families),
cell sums are integer arithmetic and every comparison against the height
is an exact rational comparison.  Otherwise float sums are used and the
outcome is correct up to float rounding of the cell averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicCube, DyadicInterval
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
    lam: float
    height_scale: float
    bad: tuple  # DyadicInterval (dim 1) or DyadicCube (dim 2), maximal, disjoint
    exact: bool  # True when every selection comparison was exact

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def J(self) -> int:
        return self.source.J

    def bad_measure(self) -> Fraction:
        return sum((c.measure for c in self.bad), Fraction(0))

    def bad_mask(self) -> np.ndarray:
        """Boolean mask over finest cells covered by some bad cell."""
        n = 1 << self.J
        if self.dim == 1:
            mask = np.zeros(n, dtype=bool)
            for iv in self.bad:
                w = n >> iv.level
                mask[iv.index * w : (iv.index + 1) * w] = True
            return mask
        mask = np.zeros((n, n), dtype=bool)
        for q in self.bad:
            w = n >> q.level
            i0 = q.axes[0].index * w
            j0 = q.axes[1].index * w
            mask[i0 : i0 + w, j0 : j0 + w] = True
        return mask


def _exact_scaled(work: np.ndarray):
    """Samples as int64 at 2**FRACT_BITS, or None when not representable."""
    scaled = work * float(1 << FRACT_BITS)
    if not np.all(np.isfinite(scaled)):
        return None
    rounded = np.round(scaled)
    if not np.array_equal(scaled, rounded):
        return None
    if np.any(np.abs(rounded) >= float(1 << 53)):
        return None
    return rounded.astype(np.int64)


def _level_sums(finest: np.ndarray, J: int, dim: int) -> list[np.ndarray]:
    """sums[j] = per-cell sums of the finest samples at level j."""
    sums = [None] * (J + 1)
    sums[J] = finest
    cur = finest
    for j in range(J - 1, -1, -1):
        if dim == 1:
            cur = cur.reshape(-1, 2).sum(axis=1)
        else:
            m = cur.shape[0] // 2
            cur = cur.reshape(m, 2, m, 2).sum(axis=(1, 3))
        sums[j] = cur
    return sums


def decompose(f: GridFunction, lam: float, height_scale: float = 1.0) -> CZDecomposition:
    """Decompose |f| at height lam * height_scale.

    Raises HeightTooLowError if the mean of |f| exceeds the height, since
    the root cell would then already be selected and nothing is maximal.
    """
    if lam <= 0 or height_scale <= 0:
        raise ValueError("height must be positive")
    height = Fraction(lam) * Fraction(height_scale)
    work = np.abs(f.samples)
    if np.iscomplexobj(work):
        work = work.real
    d, J = f.dim, f.J

    ints = _exact_scaled(work)
    exact = ints is not None and height.denominator <= _DEN_CAP
    if exact:
        sums = _level_sums(ints, J, d)
        num, den = height.numerator, height.denominator
        # threshold at level j: sum > height * n_cell * 2**FRACT_BITS
        def is_bad(sums_j, j):
            n_cell_bits = d * (J - j) + FRACT_BITS
            if num.bit_length() + n_cell_bits >= 62 or (
                int(sums_j.max(initial=0)).bit_length() + den.bit_length() >= 62
            ):
                raise OverflowError("exact comparison budget exceeded")
            return sums_j * den > num << n_cell_bits
    else:
        sums = _level_sums(work.astype(np.float64), J, d)
        h = float(height)

        def is_bad(sums_j, j):
            n_cell = float(1 << (d * (J - j)))
            return sums_j > h * n_cell

    if is_bad(sums[0].reshape(1), 0)[0]:
        raise HeightTooLowError(
            f"mean {work.mean():.6g} exceeds stopping height {float(height):.6g}"
        )

    bad = []
    if d == 1:
        alive = np.ones(1, dtype=bool)
        for j in range(1, J + 1):
            alive = np.repeat(alive, 2)
            bad_j = alive & is_bad(sums[j], j)
            for k in np.nonzero(bad_j)[0]:
                bad.append(DyadicInterval(j, int(k)))
            alive &= ~bad_j
    else:
        alive = np.ones((1, 1), dtype=bool)
        for j in range(1, J + 1):
            alive = np.repeat(np.repeat(alive, 2, axis=0), 2, axis=1)
            bad_j = alive & is_bad(sums[j], j)
            for k1, k2 in zip(*np.nonzero(bad_j)):
                bad.append(
                    DyadicCube((DyadicInterval(j, int(k1)), DyadicInterval(j, int(k2))))
                )
            alive &= ~bad_j

    return CZDecomposition(
        source=f,
        height=height,
        lam=float(lam),
        height_scale=float(height_scale),
        bad=tuple(bad),
        exact=exact,
    )


def good_part(cz: CZDecomposition) -> GridFunction:
    """f outside the bad set, zero on it; g + b reconstructs f exactly."""
    s = cz.source.samples.copy()
    s[cz.bad_mask()] = 0
    return GridFunction(cz.dim, cz.J, s)


def bad_part(cz: CZDecomposition) -> GridFunction:
    s = cz.source.samples.copy()
    s[~cz.bad_mask()] = 0
    return GridFunction(cz.dim, cz.J, s)
