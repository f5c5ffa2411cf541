"""Exact dyadic interval and cube geometry on the torus.

Everything here is integer arithmetic.  The torus [0, 1) is modelled at a
global power-of-two scale S = 2**(j_max + 4); the extra 4 bits guarantee
that every supported dilation factor (9/8, 2, 3, 4, 9/2, 5) of a dyadic
interval of level <= j_max has integer endpoints at scale S.  The
factors live in an integer table of (p, q) pairs, so a dilation is
integer arithmetic, on one interval or on arrays of levels and indices.
Arcs are half-open [lo, hi) with 0 <= lo < S and 0 < hi - lo <= S; an
arc that wraps past 1 is represented with hi > S, never split in two.

Derived rational quantities (endpoints, measures) are returned as
fractions.Fraction values, so callers can compare them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_J_MAX = 14
_SCALE_BITS = 4  # 9/8 dilation needs 3 extra bits, one more for headroom

# every supported dilation factor as p / q with q dividing 8, so that
# p * (S >> level) / q is an integer for every level <= j_max
SUPPORTED_FACTORS = {
    Fraction(9, 8): (9, 8),
    Fraction(2): (2, 1),
    Fraction(3): (3, 1),
    Fraction(4): (4, 1),
    Fraction(9, 2): (9, 2),
    Fraction(5): (5, 1),
}


class ResolutionExceededError(ValueError):
    """Operation would need cells finer than the global resolution cap."""


class InvalidFactorError(ValueError):
    """Dilation factor outside the supported exact set."""


def scale_for(j_max: int = DEFAULT_J_MAX) -> int:
    return 1 << (j_max + _SCALE_BITS)


def _factor(c) -> tuple[int, int]:
    """(p, q) of a supported factor c = p / q, read from the table."""
    try:
        return SUPPORTED_FACTORS[c]
    except (KeyError, TypeError):
        raise InvalidFactorError(f"unsupported dilation factor {c!r}") from None


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open dyadic interval [index * 2**-level, (index+1) * 2**-level)."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError("index out of range for level")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.index, 1 << self.level)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.index + 1, 1 << self.level)

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(2 * self.index + 1, 1 << (self.level + 1))

    def units(self, j_max: int = DEFAULT_J_MAX) -> tuple[int, int]:
        """Endpoints as integers at scale 2**(j_max+4)."""
        if self.level > j_max:
            raise ResolutionExceededError(
                f"level {self.level} exceeds resolution cap {j_max}"
            )
        w = scale_for(j_max) >> self.level
        return self.index * w, (self.index + 1) * w

    def children(self, j_max: int = DEFAULT_J_MAX) -> tuple["DyadicInterval", "DyadicInterval"]:
        if self.level >= j_max:
            raise ResolutionExceededError(
                f"cannot split level {self.level} at cap {j_max}"
            )
        return (
            DyadicInterval(self.level + 1, 2 * self.index),
            DyadicInterval(self.level + 1, 2 * self.index + 1),
        )

    def parent(self) -> "DyadicInterval":
        if self.level == 0:
            raise ValueError("root has no parent")
        return DyadicInterval(self.level - 1, self.index // 2)

    def contains(self, other: "DyadicInterval") -> bool:
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index


@dataclass(frozen=True)
class ScaledInterval:
    """Arc [lo, hi) on the scaled torus, hi > scale means wraparound."""

    lo: int
    hi: int
    scale: int

    def __post_init__(self):
        if not 0 <= self.lo < self.scale:
            raise ValueError("lo out of range")
        if not 0 < self.hi - self.lo <= self.scale:
            raise ValueError("arc length must lie in (0, scale]")

    @property
    def length_units(self) -> int:
        return self.hi - self.lo

    @property
    def measure(self) -> Fraction:
        return Fraction(self.hi - self.lo, self.scale)

    @property
    def midpoint(self) -> Fraction:
        return Fraction((self.lo + self.hi) % (2 * self.scale), 2 * self.scale)

    def segments(self) -> list[tuple[int, int]]:
        """Linear pieces inside [0, scale); a wrapping arc yields two."""
        if self.hi <= self.scale:
            return [(self.lo, self.hi)]
        if self.hi - self.scale == self.lo:  # full torus
            return [(0, self.scale)]
        return [(self.lo, self.scale), (0, self.hi - self.scale)]

    def contains_arc(self, other: "ScaledInterval") -> bool:
        if self.scale != other.scale:
            raise ValueError("scale mismatch")
        if self.length_units == self.scale:
            return True
        off = (other.lo - self.lo) % self.scale
        return off + other.length_units <= self.length_units


def dilate_units(level, index, c, j_max: int = DEFAULT_J_MAX):
    """(lo, length) of the concentric c-dilates of dyadic intervals.

    Works elementwise on integer arrays of levels and indices as on
    ints.  The length is min(1, c * measure) and lo the left end mod 1,
    both at scale 2**(j_max+4); the factor comes from the integer table,
    so the arithmetic is exact.
    """
    p, q = _factor(c)
    top = np.max(level, initial=0)
    if top > j_max:
        raise ResolutionExceededError(f"level {top} exceeds resolution cap {j_max}")
    S = scale_for(j_max)
    w = S >> level
    length = np.minimum(w * p // q, S)  # exact: q divides w
    lo = ((2 * index + 1) * w - length) // 2 % S  # doubled center minus length
    return lo, length


def dilate(iv: DyadicInterval, c, j_max: int = DEFAULT_J_MAX) -> ScaledInterval:
    """Concentric dilation c * I, capped at full-torus length.

    The midpoint is preserved exactly; the result length is
    min(1, c * measure(I)) at scale 2**(j_max+4).
    """
    lo, length = dilate_units(iv.level, iv.index, c, j_max)
    return ScaledInterval(int(lo), int(lo + length), scale_for(j_max))


# ---------------------------------------------------------------------------
# cubes

@dataclass(frozen=True)
class DyadicCube:
    """Product of dyadic intervals with a common level."""

    axes: tuple[DyadicInterval, ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("empty cube")
        levels = {iv.level for iv in self.axes}
        if len(levels) != 1:
            raise ValueError("cube axes must share a level")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def level(self) -> int:
        return self.axes[0].level

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << (self.level * self.dim))

    def children(self, j_max: int = DEFAULT_J_MAX) -> list["DyadicCube"]:
        halves = [iv.children(j_max) for iv in self.axes]
        out = []
        for combo in _product_indices(len(self.axes)):
            out.append(DyadicCube(tuple(halves[i][b] for i, b in enumerate(combo))))
        return out

    def contains(self, other: "DyadicCube") -> bool:
        return all(a.contains(b) for a, b in zip(self.axes, other.axes))


def _product_indices(d: int):
    for mask in range(1 << d):
        yield tuple((mask >> i) & 1 for i in range(d))
