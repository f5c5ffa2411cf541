"""Oracles shared by the test modules.

The library passes dyadic cells as integer rows; the references here
use objects instead: `DyadicInterval`, `DyadicCube` and the arc type
`ScaledInterval`, with `as_intervals` and `as_cubes` to turn rows into
them.  Dilated bad cells become exact Fraction endpoint pairs, and
their coverage of grid cells is recomputed by interval arithmetic, so
these helpers stay independent of the integer bitmaps in
`strongmeans.estimates`.  Reference computations that no experiment
runs live here too: disjointness, adjacency and torus distance of
dyadic intervals and cubes, the chain check behind the vectorized
exhaustive scan, cell averages, mode-counting energy averages in one
and two dimensions, inverse transforms in both, and rectangular
partial sums with the per-pair 2-d moment they give.
`csv_differences` compares a fresh CSV with a committed reference cell
by cell.  `density_subsequence` is the whole-array density extractor,
mask included, that the streamed `strongmeans.estimates` version must
reproduce; `sliced` turns an array into the lattice callable it takes.

`running_mask_cells` is the dense stopping-time selection, a running
mask of blocked cells carried down the levels, that the mask-free
`strongmeans.czd.stopping_cells` must reproduce cell for cell.

`k_spikes` and `trig_poly` draw test functions that no corpus family
draws: a k-spike function at a given k, and a band-limited
trigonometric polynomial of a given degree.

The batched exact layer has one-at-a-time references here:
`czd_invariants` and `cube_invariants` run the 1-d and 2-d
stopping-time batteries on one (f, lam) pair, both reading |f| as the
selection does; `trial_samples` draws the function of one battery
trial, one random call and one float step at a time, and
`nonadjacent_family` and `nonadjacent_cube_family` draw a covering
family with one random call per tree node and per kept tile;
`reference_exceptional_set` builds E one bad cell at a time;
`fraction_dilate` dilates with a Fraction factor; and
`dilated_components`, `cube_components` and the `*_holds` checks work
on DyadicInterval and DyadicCube objects with ScaledInterval arcs,
including the statement form of the covering lemma (each hull inside 4
times a largest original member).
"""

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from strongmeans import spectral
from strongmeans.czd import (
    FRACT_BITS,
    HeightTooLowError,
    StoppingCells,
    decompose,
)
from strongmeans.dyadic import DEFAULT_J_MAX, scale_for, union_mask
from strongmeans.estimates import ScheduleInfeasibleError
from strongmeans.grid import GridFunction, tensor

# the covering lemma's dilation factor
NINE_EIGHTHS = Fraction(9, 8)


# ---------------------------------------------------------------------------
# cells and arcs as objects


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
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(2 * self.index + 1, 1 << (self.level + 1))

    def contains(self, other: "DyadicInterval") -> bool:
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index


@dataclass(frozen=True)
class DyadicCube:
    """Product of dyadic intervals with a common level."""

    axes: tuple[DyadicInterval, ...]

    def __post_init__(self):
        if len({iv.level for iv in self.axes}) != 1:
            raise ValueError("cube axes must share a level")


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


def as_intervals(family) -> list:
    """(level, index) rows as DyadicInterval objects."""
    return [DyadicInterval(int(j), int(k)) for j, k in family]


def as_cubes(family) -> list:
    """(level, i, j) rows as DyadicCube objects."""
    return [DyadicCube((DyadicInterval(int(l), int(i)), DyadicInterval(int(l), int(j))))
            for l, i, j in family]


# ---------------------------------------------------------------------------
# decompositions and exceptional sets


def bad_mask(cz) -> np.ndarray:
    """Boolean mask over the finest cells covered by some bad cell."""
    n = 1 << cz.J
    w = n >> cz.bad[:, :1]
    return union_mask(cz.bad[:, 1:] * w, w, n)


def bad_measure(cz) -> Fraction:
    """Total measure of the bad cells, one Fraction per row."""
    return sum((Fraction(1, 1 << (cz.dim * int(level))) for level in cz.bad[:, 0]),
               Fraction(0))


def dilated_arc(level: int, index: int, c: int) -> tuple[Fraction, Fraction]:
    """c-dilation of a dyadic interval about its center (lo may be negative)."""
    lo = Fraction(int(index), 1 << int(level))
    hi = Fraction(int(index) + 1, 1 << int(level))
    mid = (lo + hi) / 2
    half = min(Fraction(c) * (hi - lo), Fraction(1)) / 2
    return mid - half, mid + half


def arcs_of(cz, c: int) -> list[tuple[Fraction, Fraction]]:
    """Dilated bad cells of a 1-d decomposition, exact endpoints."""
    return [dilated_arc(level, index, c) for level, index in cz.bad]


def axis_arcs(cz, c: int, axis: int) -> list[tuple[Fraction, Fraction]]:
    """Dilated per-axis shadows of the bad cubes, exact endpoints."""
    return [dilated_arc(row[0], row[1 + axis], c) for row in cz.bad]


def sliced_mask(boxes, S: int, d: int) -> np.ndarray:
    """Union of boxes, each a tuple of d ScaledInterval arcs at scale S,
    marked one slice assignment per piece."""
    mask = np.zeros((S,) * d, dtype=bool)
    for box in boxes:
        for piece in itertools.product(*(arc.segments() for arc in box)):
            mask[tuple(slice(lo, hi) for lo, hi in piece)] = True
    return mask


def reference_exceptional_set(cz, c: int, geometry: str = "cube"):
    """(mask, measure) of E built one bad cell at a time: each row
    becomes a DyadicInterval or DyadicCube, each of its axes a
    `fraction_dilate` arc (the cell itself for c = 1), and each arc
    piece is marked by slicing, at scale 2**(J+4).  The row-based
    `estimates.build_exceptional_set` must give the same measure, and
    its mask on the 2**J sample cells must be this one's coarsening."""
    J, d = cz.J, cz.dim
    S = scale_for(J)
    cells = ([(iv,) for iv in as_intervals(cz.bad)] if d == 1
             else [q.axes for q in as_cubes(cz.bad)])
    boxes = [tuple(interval_to_scaled(iv, J) if c == 1 else fraction_dilate(iv, c, J)
                   for iv in axes) for axes in cells]
    if geometry == "slab" and d == 2:
        m0, m1 = (sliced_mask([box[a:a + 1] for box in boxes], S, 1) for a in range(2))
        free = (S - int(m0.sum())) * (S - int(m1.sum()))
        return m0[:, None] | m1[None, :], 1 - Fraction(free, S * S)
    mask = sliced_mask(boxes, S, d)
    return mask, Fraction(int(mask.sum()), S**d)


def covered_length(arcs, lo: Fraction, hi: Fraction) -> Fraction:
    """Length of [lo, hi) covered by the union of the arcs, mod 1."""
    events = []
    for a, b in arcs:
        for shift in (-1, 0, 1):
            aa, bb = a + shift, b + shift
            if bb > lo and aa < hi:
                events.append((max(aa, lo), min(bb, hi)))
    events.sort()
    total = Fraction(0)
    cur_lo = cur_hi = None
    for a, b in events:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def off_arc_moments(g, arcs, n_hi: int, refine: int) -> np.ndarray:
    """Integral of |S_n g|^2 off the arcs for n = 1..n_hi, one partial
    sum per order on the 2**refine finer grid against exact cell weights."""
    M = 1 << (g.J + refine)
    w = np.array([
        float(1 - covered_length(arcs, Fraction(t, M), Fraction(t + 1, M)) * M)
        for t in range(M)
    ])
    return np.array([
        float((np.abs(spectral.partial_sum(g, n, refine).samples) ** 2) @ w / M)
        for n in range(1, n_hi + 1)
    ])


# ---------------------------------------------------------------------------
# grid inputs


def constant(value, J: int, dim: int = 1) -> GridFunction:
    n = 1 << J
    shape = (n,) if dim == 1 else (n, n)
    return GridFunction(dim, J, np.full(shape, value, dtype=np.result_type(value, np.float64)))


def exponential(m, J: int) -> GridFunction:
    """e(m x) sampled on the 1-d grid."""
    n = 1 << J
    return GridFunction(1, J, np.exp(2j * np.pi * (int(m) * np.arange(n) % n) / n))


def cell_average(f: GridFunction, cell) -> float:
    """Mean of |samples| inside a dyadic cell row (level, index) or
    (level, i, j)."""
    level, *index = (int(v) for v in cell)
    w = f.n >> level
    return float(np.mean(np.abs(f.samples[tuple(slice(k * w, (k + 1) * w)
                                                 for k in index)])))


# ---------------------------------------------------------------------------
# disjointness, adjacency and torus distance of dyadic intervals and cubes


class OverlapError(ValueError):
    """Inputs required to be disjoint are not."""


def interval_to_scaled(iv: DyadicInterval, j_max: int = DEFAULT_J_MAX) -> ScaledInterval:
    """The interval itself as an arc at scale 2**(j_max+4)."""
    w = scale_for(j_max) >> iv.level
    return ScaledInterval(iv.index * w, (iv.index + 1) * w, scale_for(j_max))


def gap_units(alo: int, ahi: int, blo: int, bhi: int, S: int) -> int:
    """Integer torus gap between arcs [alo, ahi) and [blo, bhi)."""
    best = None
    for shift in (-S, 0, S):
        lo, hi = blo + shift, bhi + shift
        gap = max(lo - ahi, alo - hi, 0)
        best = gap if best is None else min(best, gap)
    return best


def torus_distance(a: ScaledInterval, b: ScaledInterval) -> Fraction:
    """Infimum of |x - y| on the torus over the two arcs; 0 iff they touch."""
    if a.scale != b.scale:
        raise ValueError("scale mismatch")
    return Fraction(gap_units(a.lo, a.hi, b.lo, b.hi, a.scale), a.scale)


def intervals_disjoint(a: DyadicInterval, b: DyadicInterval) -> bool:
    """Dyadic intervals are either nested or disjoint."""
    return not (a.contains(b) or b.contains(a))


def adjacent(a: DyadicInterval, b: DyadicInterval, j_max: int = DEFAULT_J_MAX) -> bool:
    """True iff the disjoint intervals share an endpoint on the torus.

    Raises OverlapError when the inputs are not disjoint.
    """
    if not intervals_disjoint(a, b):
        raise OverlapError(f"{a} and {b} overlap")
    jm = max(a.level, b.level, j_max)
    sa = interval_to_scaled(a, jm)
    sb = interval_to_scaled(b, jm)
    return (sa.hi % sa.scale) == sb.lo or (sb.hi % sb.scale) == sa.lo


def cubes_disjoint(a: DyadicCube, b: DyadicCube) -> bool:
    """Products of half-open intervals are disjoint iff some axis pair is."""
    return any(intervals_disjoint(x, y) for x, y in zip(a.axes, b.axes))


def cube_adjacent(a: DyadicCube, b: DyadicCube, j_max: int = DEFAULT_J_MAX) -> bool:
    """True iff the disjoint cubes have torus distance zero (closures touch)."""
    if not cubes_disjoint(a, b):
        raise OverlapError(f"{a} and {b} overlap")
    for x, y in zip(a.axes, b.axes):
        sx = interval_to_scaled(x, j_max)
        sy = interval_to_scaled(y, j_max)
        if torus_distance(sx, sy) > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# chains


class NotAChainError(ValueError):
    """Triple does not satisfy the chain preconditions."""


def chain_check(i1, i2, i3, factor=NINE_EIGHTHS, j_max: int = DEFAULT_J_MAX) -> bool:
    """Bridge-length property for a chain I1* - I2* - I3*.

    Preconditions: the three intervals are pairwise disjoint and
    nonadjacent, the outer dilates I1*, I3* are separated, and I2*
    touches or overlaps both (so the union of the three dilates is
    connected).  Returns True iff |I2*| > min(|I1*|, |I3*|).
    """
    trio = (i1, i2, i3)
    for a in range(3):
        for b in range(a + 1, 3):
            if not intervals_disjoint(trio[a], trio[b]):
                raise NotAChainError(f"{trio[a]} and {trio[b]} overlap")
            if adjacent(trio[a], trio[b], j_max):
                raise NotAChainError(f"{trio[a]} and {trio[b]} are adjacent")
    d1, d2, d3 = (fraction_dilate(iv, factor, j_max) for iv in trio)
    if torus_distance(d1, d3) == 0:
        raise NotAChainError("outer dilates intersect or touch")
    if torus_distance(d2, d1) > 0 or torus_distance(d2, d3) > 0:
        raise NotAChainError("middle dilate does not bridge the outers")
    return d2.length_units > min(d1.length_units, d3.length_units)


# ---------------------------------------------------------------------------
# energy averages and rectangular partial sums


def mode_weights(n: int, N: int) -> np.ndarray:
    """For each stored mode, how many of S_1..S_N contain it.

    The Nyquist bin enters both as +n/2 and -n/2 once n/2 <= N, hence
    the doubled weight.  Valid for every N; orders past n/2 change
    nothing, which encodes the saturation of partial sums.
    """
    H = n // 2
    ms = spectral.centered_modes(n)
    w = np.maximum(N + 1 - np.maximum(np.abs(ms), 1), 0).astype(float)
    w[0] = 2.0 * max(N + 1 - H, 0)
    return w


def plancherel_average(f: GridFunction, N: int) -> float:
    """(1/N) sum_{n<=N} ||S_n f||_2^2 via mode counting; exact, no sweep."""
    c = spectral.forward(f)
    return float(np.sum((c.real**2 + c.imag**2) * mode_weights(f.n, N)) / N)


def plancherel_average_rect(f: GridFunction, N: int) -> float:
    """(1/N^2) sum_{n1, n2 <= N} ||S_{n1,n2} f||_2^2 via mode counting on
    the 2-d coefficients; exact for any 2-d f, separable or not."""
    assert f.dim == 2
    c = spectral.forward(f)
    w = mode_weights(f.n, N)
    return float(w @ (c.real**2 + c.imag**2) @ w / N**2)


def inverse(coeffs: np.ndarray, J: int) -> GridFunction:
    """1-d inverse of `spectral.forward`: centered coefficients to samples."""
    n = 1 << J
    assert coeffs.shape == (n,)
    return GridFunction(1, J, np.fft.ifft(np.fft.ifftshift(coeffs)) * n)


def inverse_2d(coeffs: np.ndarray, J: int) -> GridFunction:
    """2-d inverse of `spectral.forward`: centered coefficients to samples."""
    n = 1 << J
    assert coeffs.shape == (n, n)
    return GridFunction(2, J, np.fft.ifft2(np.fft.ifftshift(coeffs)) * n**2)


def partial_sum_rect(f: GridFunction, N1: int, N2: int, refine: int = 1) -> GridFunction:
    """Rectangular partial sum of a 2-d function: modes |m1| <= N1, |m2| <= N2,
    on a 2**refine finer grid."""
    H = f.n // 2
    assert 0 <= N1 <= H and 0 <= N2 <= H
    c = spectral.forward(f)
    M = 1 << (f.J + refine)
    m1 = np.arange(-N1, N1 + 1)
    m2 = np.arange(-N2, N2 + 1)
    b = np.zeros((M, M), dtype=complex)
    src = c[np.ix_((m1 + H) % f.n, (m2 + H) % f.n)]
    np.add.at(b, ((m1 % M)[:, None], (m2 % M)[None, :]), src)
    return GridFunction(2, f.J + refine, np.fft.ifft2(b) * M**2)


def rect_moment_per_pair(f: GridFunction, exc, N_max: int, refine: int = 1) -> np.ndarray:
    """(1/N^2) sum_{n1, n2 <= N} of the integral of |S_{n1,n2} f|^2 off E
    for N = 1..N_max, one rectangular partial sum per pair; any 2-d f,
    small grids only."""
    W = exc.complement_weights(1 << (f.J + refine))
    T = np.empty((N_max, N_max))
    for n1 in range(1, N_max + 1):
        for n2 in range(1, N_max + 1):
            s = partial_sum_rect(f, n1, n2, refine).samples
            T[n1 - 1, n2 - 1] = np.mean(np.abs(s) ** 2 * W)
    return np.diag(T.cumsum(axis=0).cumsum(axis=1)) / np.arange(1, N_max + 1) ** 2


_INT = re.compile(r"-?[0-9]+")


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _printed_unit(x: float) -> float:
    """One unit in the 12th significant digit of x printed with %.12g."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


def csv_differences(fresh_text: str, ref_text: str, rtol: float = 1e-12) -> list:
    """Cells where a fresh CSV departs from its reference; empty if none.

    Integers, p/q fractions and strings must match exactly.  A column is
    a float column when some reference cell in it is a non-integer
    number; its cells may differ by rtol relative plus one unit in the
    12th printed digit, since two values rtol apart can round to
    neighbouring 12-digit prints.
    """
    fresh = list(csv.reader(io.StringIO(fresh_text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if not fresh or not ref or fresh[0] != ref[0]:
        return [f"header {fresh[:1]} != {ref[:1]}"]
    if len(fresh) != len(ref):
        return [f"{len(fresh) - 1} rows, reference has {len(ref) - 1}"]
    float_col = [
        any(not _INT.fullmatch(row[j]) and _as_float(row[j]) is not None
            for row in ref[1:])
        for j in range(len(ref[0]))
    ]
    diffs = []
    for i, (frow, rrow) in enumerate(zip(fresh[1:], ref[1:]), start=1):
        for j, (a, b) in enumerate(zip(frow, rrow)):
            if a == b:
                continue
            fa, fb = _as_float(a), _as_float(b)
            if float_col[j] and fa is not None and fb is not None:
                big = max(abs(fa), abs(fb))
                if abs(fa - fb) <= rtol * big + _printed_unit(big):
                    continue
            diffs.append(f"row {i} {ref[0][j]}: {a!r} != {b!r}")
        if len(frow) != len(rrow):
            diffs.append(f"row {i}: {len(frow)} cells, reference {len(rrow)}")
    return diffs


# ---------------------------------------------------------------------------
# stopping-time selection with a running mask


def running_mask_cells(samples: np.ndarray, heights, units) -> StoppingCells:
    """`strongmeans.czd.stopping_cells` by a dense descent on the units:
    at every level a running mask, copied up one level with `repeat`
    along each axis, blocks the cells below a selected ancestor, and a
    cell of k samples is over height h when its unit sum exceeds the
    Fraction h k 2**FRACT_BITS.  A row is exact at h when it is on the
    grid, or when every |sample| * 2**FRACT_BITS is finite and below
    2**53 and no cell's unit sum lies within k / 2 of h k 2**FRACT_BITS.
    Same order, same HeightTooLowError; no int64 budget check."""
    J, dim = samples.shape[1].bit_length() - 1, samples.ndim - 1
    heights = [[Fraction(h) for h in hs] for hs in heights]
    ints, on_grid = units
    B, H = len(ints), len(heights[0])
    sums = [None] * (J + 1)
    sums[J] = cur = ints
    for j in range(J - 1, -1, -1):
        if dim == 1:
            cur = cur[:, 0::2] + cur[:, 1::2]
        else:
            m = cur.shape[1] // 2
            cur = cur.reshape(B, m, 2, m, 2).sum(axis=(2, 4))
        sums[j] = cur
    # limits[j][b][c] = height c of row b times a level-j cell's units
    limits = [[[h * (1 << (dim * (J - j) + FRACT_BITS)) for h in hs] for hs in heights]
              for j in range(J + 1)]

    def over(j):
        """(B, H, *cells) bool: which level-j cells are over each height."""
        return np.array([[sums[j][b].astype(object) > lim for lim in limits[j][b]]
                         for b in range(B)], dtype=bool)

    root = over(0).reshape(B, H)
    if root.any():
        r, c = np.argwhere(root)[0]
        mean = float(sums[0][r].sum()) / (1 << (dim * J + FRACT_BITS))
        raise HeightTooLowError(
            f"mean {mean:.6g} exceeds stopping height {float(heights[r][c]):.6g}")

    scaled = np.abs(samples).reshape(B, -1) * 2.0**FRACT_BITS
    fits = (np.isfinite(scaled) & (scaled < 2.0**53)).all(axis=1)
    exact = np.ones((B, H), dtype=bool)
    for b in np.flatnonzero(~on_grid):
        for c in range(H):
            exact[b, c] = fits[b] and not any(
                abs(s - limits[j][b][c]) <= Fraction(1 << (dim * (J - j)), 2)
                for j in range(J + 1) for s in sums[j][b].ravel().tolist())

    # (level, row, column, *axes) of each selected cell
    found = [np.zeros((0, 3 + dim), dtype=np.int64)]
    alive = np.ones((B, H) + (1,) * dim, dtype=bool)
    for j in range(1, J + 1):
        for axis in range(2, 2 + dim):
            alive = alive.repeat(2, axis=axis)
        bad = alive & over(j)
        found.append(np.insert(np.argwhere(bad), 0, j, axis=1))
        alive &= ~bad
    found = np.concatenate(found)
    return StoppingCells(exact, found[:, 1], found[:, 2],
                         np.delete(found, (1, 2), axis=1))


# ---------------------------------------------------------------------------
# stopping-time battery


def czd_invariants(f, lam: float) -> tuple[dict, int]:
    """The exact-invariant battery on one 1-d (f, lam) pair, one
    decomposition and one Fraction at a time.

    Returns (check name -> bool, number of bad cells).  The batched
    `strongmeans.suites.czd_block_checks` must agree with it check by
    check and count by count.
    """
    lamF = Fraction(lam)
    num, den = lamF.numerator, lamF.denominator
    n = 1 << f.J
    units = np.round(np.abs(f.samples) * (1 << FRACT_BITS)).astype(np.int64)
    checks = {}
    checks["exact_input"] = bool(
        np.array_equal(units / (1 << FRACT_BITS), np.abs(f.samples))
    )

    cz, cz2 = decompose(f, lam), decompose(f, 2 * lam)
    checks["exact_path"] = cz.exact and cz2.exact

    csum = np.concatenate(([0], np.cumsum(np.abs(units))))
    spans = sorted((k << (f.J - j), (k + 1) << (f.J - j)) for j, k in cz.bad.tolist())
    checks["disjoint"] = all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    window = True
    maximal = True
    by_level = {}
    for j, k in cz.bad.tolist():
        by_level.setdefault(j, []).append(k)
    for j, idxs in by_level.items():
        idx = np.asarray(idxs, dtype=np.int64)
        w = n >> j
        sums = csum[(idx + 1) * w] - csum[idx * w]
        height_units = num * (w << FRACT_BITS)  # lam * cell volume, scaled
        window &= bool(np.all(sums * den > height_units))
        window &= bool(np.all(sums * den <= 2 * height_units))
        # parent average must sit at or below the height, else the
        # stopping time would have selected the parent instead
        psums = csum[((idx >> 1) + 1) * 2 * w] - csum[(idx >> 1) * 2 * w]
        maximal &= bool(np.all(psums * den <= 2 * height_units))
    checks["height_window"] = window
    checks["parents_not_selected"] = maximal

    total = Fraction(sum(hi - lo for lo, hi in spans), n)
    l1 = Fraction(int(np.abs(units).sum()), n << FRACT_BITS)
    checks["mass_bound"] = total <= l1 / lamF

    mask = bad_mask(cz)
    lam_units = Fraction(num << FRACT_BITS, den)
    off = np.abs(units[~mask])
    checks["bounded_off_bad"] = off.size == 0 or Fraction(int(off.max())) <= lam_units

    checks["reassembly"] = reassembles(f.samples, mask)

    mask2 = bad_mask(cz2)
    checks["lam_monotone"] = bool(np.all(mask | ~mask2))
    return checks, len(cz.bad)


def cube_invariants(f, lam: float) -> tuple[dict, int]:
    """The exact-invariant battery on one 2-d (f, lam) pair, with
    pairwise cube loops and one Fraction at a time.

    Returns (check name -> bool, number of bad cubes).  The batched
    `strongmeans.suites.czd_block_checks` must agree with it check by
    check and count by count.
    """
    lamF = Fraction(lam)
    num, den = lamF.numerator, lamF.denominator
    n = 1 << f.J
    units = np.round(np.abs(f.samples) * (1 << FRACT_BITS)).astype(np.int64)
    checks = {}
    checks["exact_input"] = bool(
        np.array_equal(units / (1 << FRACT_BITS), np.abs(f.samples))
    )

    cz, cz2 = decompose(f, lam), decompose(f, 2 * lam)
    checks["exact_path"] = cz.exact and cz2.exact

    absu = np.abs(units)
    csum2 = np.zeros((n + 1, n + 1), dtype=np.int64)
    csum2[1:, 1:] = absu.cumsum(axis=0).cumsum(axis=1)

    def box_sum(i0, i1, j0, j1):
        return int(csum2[i1, j1] - csum2[i0, j1] - csum2[i1, j0] + csum2[i0, j0])

    disjoint = True
    w = n >> cz.bad[:, 0]
    i0, j0 = cz.bad[:, 1] * w, cz.bad[:, 2] * w
    cells = list(zip(i0.tolist(), (i0 + w).tolist(), j0.tolist(), (j0 + w).tolist()))
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            A, B = cells[a], cells[b]
            if A[0] < B[1] and B[0] < A[1] and A[2] < B[3] and B[2] < A[3]:
                disjoint = False
    checks["disjoint"] = disjoint

    window = True
    maximal = True
    for i0, i1, j0, j1 in cells:
        w = i1 - i0
        s = box_sum(i0, i1, j0, j1)
        height_units = num * ((w * w) << FRACT_BITS)
        window &= s * den > height_units
        window &= s * den <= 4 * height_units  # 2**d with d=2
        pw = 2 * w
        pi, pj = (i0 // pw) * pw, (j0 // pw) * pw
        ps = box_sum(pi, pi + pw, pj, pj + pw)
        maximal &= ps * den <= num * ((pw * pw) << FRACT_BITS)
    checks["height_window"] = window
    checks["parents_not_selected"] = maximal

    total = Fraction(sum((i1 - i0) * (j1 - j0) for i0, i1, j0, j1 in cells),
                     n * n)
    l1 = Fraction(int(absu.sum()), (n * n) << FRACT_BITS)
    checks["mass_bound"] = total <= l1 / lamF

    mask = bad_mask(cz)
    lam_units = Fraction(num << FRACT_BITS, den)
    off = absu[~mask]
    checks["bounded_off_bad"] = off.size == 0 or Fraction(int(off.max())) <= lam_units

    checks["reassembly"] = reassembles(f.samples, mask)

    mask2 = bad_mask(cz2)
    checks["lam_monotone"] = bool(np.all(mask | ~mask2))
    return checks, len(cz.bad)


def reassembles(samples: np.ndarray, mask: np.ndarray) -> bool:
    """Good part (zero on the bad set) plus bad part (zero off it) is f."""
    good = np.where(mask, 0, samples)
    bad = np.where(mask, samples, 0)
    return bool(np.array_equal(good + bad, samples))


# ---------------------------------------------------------------------------
# density extraction on a whole lattice array


def sliced(values: np.ndarray):
    """The lattice callable of an array: 1-based rows r0+1..r1, and in
    2-d columns c0+1..c1."""
    if values.ndim == 1:
        return lambda r0, r1: values[r0:r1]
    return lambda r0, r1, c0, c1: values[r0:r1, c0:c1]


@dataclass
class DensityReference:
    s: float
    dim: int
    schedule: tuple
    k_positions: tuple
    shells: tuple
    mean_square: tuple
    eval_points: tuple
    density: tuple
    mask: np.ndarray = field(repr=False)


def density_subsequence(values: np.ndarray, s: float,
                        schedule: tuple) -> DensityReference:
    """The density extractor on a whole 1-d or square 2-d array: mean
    squares from cumulative sum tables, the kept indices as a mask, and
    densities from the mask's cumulative counts."""
    values = np.asarray(values, dtype=float)
    d = values.ndim
    size = values.shape[0]
    schedule = tuple(int(N) for N in schedule)
    if not all(1 <= N <= size for N in schedule) or \
            any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing within the lattice")
    dev = np.abs(values - s)
    sq = dev * dev
    if d == 1:
        csum = np.concatenate([[0.0], np.cumsum(sq)])
        msq = tuple(float(csum[N] / N) for N in schedule)
    else:
        ii = np.zeros((size + 1, size + 1))
        ii[1:, 1:] = sq.cumsum(axis=0).cumsum(axis=1)
        msq = tuple(float(ii[N, N] / N**2) for N in schedule)

    ks: list[int] = []
    prev = -1
    m = 1
    while True:
        k = next((i for i in range(prev + 1, len(schedule))
                  if msq[i] < m**-3), None)
        if k is None:
            if m == 1:
                raise ScheduleInfeasibleError(
                    "no schedule point has mean square below 1")
            break
        ks.append(k)
        prev = k
        m += 1

    shells = []
    mask = np.zeros(values.shape, dtype=bool)
    for m, kpos in enumerate(ks, start=1):
        lo = schedule[kpos]
        hi = schedule[ks[m]] if m < len(ks) else size
        if hi <= lo:
            continue
        shells.append((m, lo, hi))
        thr = 1.0 / m
        if d == 1:
            mask[lo:hi] = dev[lo:hi] < thr
        else:
            mask[lo:hi, 0:hi] = dev[lo:hi, 0:hi] < thr
            mask[0:lo, lo:hi] = dev[0:lo, lo:hi] < thr

    eval_points = schedule if schedule[-1] == size else schedule + (size,)
    if d == 1:
        mc = np.concatenate([[0], np.cumsum(mask)])
        density = tuple(float(mc[N] / N) for N in eval_points)
    else:
        mi = np.zeros((size + 1, size + 1), dtype=np.int64)
        mi[1:, 1:] = mask.cumsum(axis=0).cumsum(axis=1)
        density = tuple(float(mi[N, N] / N**2) for N in eval_points)
    return DensityReference(
        s=s, dim=d, schedule=schedule, k_positions=tuple(ks),
        shells=tuple(shells), mean_square=msq,
        eval_points=eval_points, density=density, mask=mask,
    )


def shell_counts(mask: np.ndarray, shells) -> tuple:
    """Kept entries of a mask in each (m, lo, hi) shell."""
    counts = []
    for _, lo, hi in shells:
        if mask.ndim == 1:
            counts.append(int(mask[lo:hi].sum()))
        else:
            counts.append(int(mask[:hi, :hi].sum() - mask[:lo, :lo].sum()))
    return tuple(counts)


# ---------------------------------------------------------------------------
# arc and box helpers of the covering references


def fraction_dilate(iv, c, j_max: int = DEFAULT_J_MAX) -> ScaledInterval:
    """c * I at scale 2**(j_max+4) with the factor as a Fraction; c must
    leave both ends on the integer grid."""
    S = scale_for(j_max)
    w = S >> iv.level
    half = Fraction(c) * w / 2
    if half <= 0 or half.denominator != 1:
        raise ValueError(f"a {c!r}-dilate would leave the integer grid")
    new_len = min(2 * int(half), S)
    lo = (((2 * iv.index + 1) * w - new_len) // 2) % S
    return ScaledInterval(lo, lo + new_len, S)


def dilate_scaled(arc: ScaledInterval, c: int) -> ScaledInterval:
    """Integer concentric dilation of an already-scaled arc."""
    if c < 1:
        raise ValueError(f"bad factor {c}")
    new_len = min(c * arc.length_units, arc.scale)
    lo2 = (arc.lo + arc.hi) - new_len  # doubled lo
    if lo2 % 2 != 0:
        raise ValueError("dilation would leave the integer grid")
    lo = (lo2 // 2) % arc.scale
    return ScaledInterval(lo, lo + new_len, arc.scale)


def merged_segments(arcs) -> list[tuple[int, int]]:
    """Union of arcs as sorted disjoint linear segments in [0, scale)."""
    segs = []
    scale = None
    for arc in arcs:
        if scale is None:
            scale = arc.scale
        elif arc.scale != scale:
            raise ValueError("scale mismatch")
        segs.extend(arc.segments())
    if not segs:
        return []
    segs.sort()
    out = [list(segs[0])]
    for lo, hi in segs[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


@dataclass(frozen=True)
class ScaledBox:
    axes: tuple[ScaledInterval, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def measure(self) -> Fraction:
        m = Fraction(1)
        for arc in self.axes:
            m *= arc.measure
        return m

    def contains_box(self, other: "ScaledBox") -> bool:
        return all(a.contains_arc(b) for a, b in zip(self.axes, other.axes))


def dilate_cube(q: DyadicCube, c, j_max: int = DEFAULT_J_MAX) -> ScaledBox:
    return ScaledBox(tuple(fraction_dilate(iv, c, j_max) for iv in q.axes))


def dilate_box(box: ScaledBox, c: int) -> ScaledBox:
    return ScaledBox(tuple(dilate_scaled(arc, c) for arc in box.axes))


# ---------------------------------------------------------------------------
# covering references: DyadicInterval and DyadicCube objects


class NonadjacentInputError(ValueError):
    """Family members must be pairwise disjoint and nonadjacent."""


def _validate_family(family, j_max):
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if not intervals_disjoint(a, b):
                raise NonadjacentInputError(f"{a} and {b} overlap")
            if adjacent(a, b, j_max):
                raise NonadjacentInputError(f"{a} and {b} are adjacent")


@dataclass
class DilatedFamily:
    """A nonadjacent family, its dilates, and their connected components."""

    originals: list
    dilates: list
    factor: Fraction
    components: list = field(default_factory=list)  # lists of member indices
    hulls: list = field(default_factory=list)  # ScaledInterval per component


def dilated_components(
    family,
    factor=NINE_EIGHTHS,
    j_max: int = DEFAULT_J_MAX,
    validate: bool = True,
) -> DilatedFamily:
    """Connected components of the union of dilated arcs.

    Touching arcs count as connected: [a,b) followed by [b,c) unions to
    the single arc [a,c).  Pass validate=False only when the caller
    guarantees the disjoint/nonadjacent preconditions by construction.
    """
    family = list(family)
    if validate:
        _validate_family(family, j_max)
    dil = [fraction_dilate(iv, factor, j_max) for iv in family]
    fam = DilatedFamily(originals=family, dilates=dil, factor=Fraction(factor))
    if not family:
        return fam
    S = dil[0].scale
    segs = merged_segments(dil)
    total = sum(hi - lo for lo, hi in segs)
    if total >= S:
        fam.components.append(sorted(range(len(dil))))
        fam.hulls.append(ScaledInterval(0, S, S))
        return fam
    # Cut the circle at an uncovered point, then a linear sweep suffices:
    # no rotated arc can cross the cut.
    cut = 0
    for i, (lo, hi) in enumerate(segs):
        nxt = segs[(i + 1) % len(segs)][0] + (S if i + 1 == len(segs) else 0)
        if nxt - hi > 0:
            cut = hi % S
            break
    order = sorted(range(len(dil)), key=lambda i: (dil[i].lo - cut) % S)
    comps = []
    cur_members, cur_lo, cur_hi = [], 0, -1
    for i in order:
        lo = (dil[i].lo - cut) % S
        hi = lo + dil[i].length_units
        if cur_members and lo <= cur_hi:
            cur_members.append(i)
            cur_hi = max(cur_hi, hi)
        else:
            if cur_members:
                comps.append((cur_members, cur_lo, cur_hi))
            cur_members, cur_lo, cur_hi = [i], lo, hi
    comps.append((cur_members, cur_lo, cur_hi))
    comps.sort(key=lambda c: min(c[0]))
    for members, lo, hi in comps:
        start = (lo + cut) % S
        fam.components.append(sorted(members))
        fam.hulls.append(ScaledInterval(start, start + (hi - lo), S))
    return fam


def _validate_cube_family(family, j_max):
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if not cubes_disjoint(a, b):
                raise NonadjacentInputError(f"{a} and {b} overlap")
            if cube_adjacent(a, b, j_max):
                raise NonadjacentInputError(f"{a} and {b} are adjacent")


def smallest_covering_arc(arcs) -> ScaledInterval:
    """Shortest arc containing the union: complement of the largest gap."""
    S = arcs[0].scale
    segs = merged_segments(arcs)
    total = sum(hi - lo for lo, hi in segs)
    if total >= S:
        return ScaledInterval(0, S, S)
    best_gap, best_at = -1, 0
    for i, (lo, hi) in enumerate(segs):
        nxt = segs[(i + 1) % len(segs)][0] + (S if i + 1 == len(segs) else 0)
        gap = nxt - hi
        if gap > best_gap:
            best_gap, best_at = gap, i
    if best_gap <= 0:
        return ScaledInterval(0, S, S)
    lo = segs[(best_at + 1) % len(segs)][0]
    hi = segs[best_at][1]
    length = (hi - lo) % S or S
    return ScaledInterval(lo % S, lo % S + length, S)


def cube_components(
    family,
    factor=NINE_EIGHTHS,
    j_max: int = DEFAULT_J_MAX,
    validate: bool = True,
):
    """Union-find components of dilated cubes; zero box distance connects.

    Corner contact counts: two dilated boxes are connected when every
    axis projection touches.
    """
    family = list(family)
    if validate:
        _validate_cube_family(family, j_max)
    dil = [dilate_cube(q, factor, j_max) for q in family]
    bounds = [tuple((ax.lo, ax.hi) for ax in q.axes) for q in dil]
    S = dil[0].axes[0].scale if dil else 0
    parent = list(range(len(dil)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(dil)):
        bi = bounds[i]
        for j in range(i + 1, len(dil)):
            bj = bounds[j]
            if all(
                gap_units(a[0], a[1], b[0], b[1], S) == 0
                for a, b in zip(bi, bj)
            ):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(dil)):
        groups.setdefault(find(i), []).append(i)
    return family, dil, sorted(sorted(g) for g in groups.values())


def covering_holds(family, j_max: int = DEFAULT_J_MAX) -> bool:
    """Proof form, one component at a time: each hull inside 4 times a
    largest dilated member."""
    fam = dilated_components(family, NINE_EIGHTHS, j_max)
    return all(
        any(dilate_scaled(fam.dilates[i], 4).contains_arc(hull)
            for i in members
            if fam.dilates[i].length_units
            == max(fam.dilates[m].length_units for m in members))
        for members, hull in zip(fam.components, fam.hulls))


def statement_form_holds(family, j_max: int = DEFAULT_J_MAX) -> bool:
    """The lemma as stated: each hull inside 4 times a largest original
    member (the 9/2-dilate of that member)."""
    fam = dilated_components(family, NINE_EIGHTHS, j_max)
    return all(
        any(fraction_dilate(fam.originals[i], 4, j_max).contains_arc(hull)
            for i in members
            if fam.dilates[i].length_units
            == max(fam.dilates[m].length_units for m in members))
        for members, hull in zip(fam.components, fam.hulls))


def cube_hulls(family, j_max: int = DEFAULT_J_MAX):
    """Components of the dilated cubes with each one's hull box."""
    family, dil, comps = cube_components(family, NINE_EIGHTHS, j_max)
    hulls = [ScaledBox(tuple(smallest_covering_arc([dil[i].axes[ax] for i in members])
                             for ax in range(2)))
             for members in comps]
    return family, dil, comps, hulls


def cube_covering_holds(family, j_max: int = DEFAULT_J_MAX) -> bool:
    family, dil, comps, hulls = cube_hulls(family, j_max)
    return all(
        any(dilate_box(dil[i], 4).contains_box(hull) for i in members
            if dil[i].axes[0].length_units
            == max(dil[m].axes[0].length_units for m in members))
        for members, hull in zip(comps, hulls))


def cube_statement_form_holds(family, j_max: int = DEFAULT_J_MAX) -> bool:
    family, dil, comps, hulls = cube_hulls(family, j_max)
    return all(
        any(dilate_cube(family[i], 4, j_max).contains_box(hull) for i in members
            if dil[i].axes[0].length_units
            == max(dil[m].axes[0].length_units for m in members))
        for members, hull in zip(comps, hulls))


# ---------------------------------------------------------------------------
# battery inputs drawn one at a time


def _unit_mass(samples: np.ndarray, bits: int) -> np.ndarray:
    """mean |samples| == 1 exactly, the rounding deficit on the largest
    sample, in int64 units."""
    a = np.abs(samples).astype(float)
    scale = 1 << bits
    u = np.rint(a * (samples.size * scale / a.sum())).astype(np.int64)
    u[int(np.argmax(u))] += samples.size * scale - int(u.sum())
    return np.where(np.signbit(samples), -1.0, 1.0) * (u / scale)


def _spikes(J: int, rng, bits: int, k: int) -> np.ndarray:
    n = 1 << J
    cells = rng.choice(n, size=k, replace=False)
    s = np.zeros(n)
    s[cells] = rng.uniform(0.25, 1.0, size=k)
    return _unit_mass(s, bits)


def _trig_poly(J: int, rng, degree: int) -> np.ndarray:
    n = 1 << J
    ms = np.arange(1, degree + 1)
    amp = 1.0 / np.sqrt(ms)
    re = rng.standard_normal(len(ms)) * amp
    im = rng.standard_normal(len(ms)) * amp
    coeffs = np.zeros(n, dtype=complex)
    H = n // 2
    coeffs[H] = rng.standard_normal()
    coeffs[H + ms] = (re + 1j * im) / 2
    coeffs[H - ms] = (re - 1j * im) / 2
    return np.fft.ifft(np.fft.ifftshift(coeffs)).real * n


def _trig(J: int, rng, bits: int) -> np.ndarray:
    return _unit_mass(_trig_poly(J, rng, (1 << J) // 8), bits)


def _noise(J: int, rng, bits: int) -> np.ndarray:
    return _unit_mass(np.abs(rng.standard_normal(1 << J)), bits)


def trial_samples(rng, J: int, t: int, dim: int) -> np.ndarray:
    """Samples of the function of decomposition-battery trial t: the
    (t mod count)-th random corpus family of the dimension (k spikes,
    trig, noise in 1-d; their tensor squares but noise in 2-d), k drawn
    first for the spikes, each 2-d factor at 12 bits."""
    kinds = (_spikes, _trig, _noise)[:4 - dim]
    kind = kinds[t % len(kinds)]
    args = (int(rng.integers(2, 17)),) if kind is _spikes else ()
    rows = [kind(J, rng, FRACT_BITS // dim, *args) for _ in range(dim)]
    return rows[0] if dim == 1 else np.outer(*rows)


def k_spikes(J: int, k: int, rng, dim: int = 1) -> GridFunction:
    """A k-spike corpus function with k given instead of drawn: k
    distinct cells with random heights per factor, unit mass, each 2-d
    factor at 12 bits."""
    rows = [GridFunction(1, J, _spikes(J, rng, FRACT_BITS // dim, k))
            for _ in range(dim)]
    return rows[0] if dim == 1 else tensor(*rows)


def trig_poly(J: int, rng, degree: int) -> GridFunction:
    """Real random trigonometric polynomial of the given degree, mode m
    scaled by m**-1/2 as in the trig corpus family, and normalized but
    not quantized, so it stays band-limited."""
    s = _trig_poly(J, rng, degree)
    return GridFunction(1, J, s / np.mean(np.abs(s)))


def torus_touch(a_lo, a_hi, b_lo, b_hi, S: int) -> np.ndarray:
    """Whether the closed arcs [a_lo, a_hi] and [b_lo, b_hi] of a circle
    of length S meet: b_lo + s <= a_hi and a_lo <= b_hi + s for some
    shift s in {-S, 0, S}.  Broadcasts like the arrays it is given."""
    lo, hi = a_lo - b_hi, a_hi - b_lo
    return (lo <= 0) & (0 <= hi) | (lo <= S) & (S <= hi) | (lo <= -S) & (-S <= hi)


def nonadjacent_family(rng, max_level: int = 12, max_count: int = 64) -> np.ndarray:
    """`strongmeans.covering.random_nonadjacent_family`, one uniform per
    tree node and per kept tile."""
    leaves = []
    stack = [(0, 0)]
    budget = 4 * max_count
    while stack:
        level, index = stack.pop()
        if level < max_level and len(leaves) + len(stack) < budget and rng.random() < 0.62:
            stack.append((level + 1, 2 * index))
            stack.append((level + 1, 2 * index + 1))
        else:
            leaves.append((level, index))
    leaves.sort(key=lambda t: t[1] << (max_level - t[0]))
    if len(leaves) < 2:
        return np.array([[1, 0]], dtype=np.int64)
    phase = int(rng.integers(0, 2))
    kept = leaves[phase::2]
    if len(leaves) % 2 == 1 and phase == 0 and len(kept) > 1:
        kept = kept[:-1]
    out = [t for t in kept if rng.random() < 0.8]
    if not out:
        out = [leaves[0]]
    return np.array(out[:max_count], dtype=np.int64)


def nonadjacent_cube_family(rng, max_level: int = 7, max_count: int = 40) -> np.ndarray:
    """`strongmeans.covering.random_nonadjacent_cube_family`, one uniform
    per quadtree node."""
    leaves = []
    stack = [(0, 0, 0)]
    while stack:
        level, i, j = stack.pop()
        if level < max_level and len(leaves) + len(stack) < 5 * max_count and rng.random() < 0.55:
            for di in (0, 1):
                for dj in (0, 1):
                    stack.append((level + 1, 2 * i + di, 2 * j + dj))
        else:
            leaves.append((level, i, j))
    W = 1 << max_level
    order = rng.permutation(len(leaves))
    tiles = np.array(leaves, dtype=np.int64)
    w = W >> tiles[:, 0]
    touch = np.ones((len(tiles), len(tiles)), dtype=bool)
    for ax in (1, 2):
        lo = tiles[:, ax] * w
        touch &= torus_touch(lo[:, None], (lo + w)[:, None], lo[None, :],
                             (lo + w)[None, :], W)
    blocked = np.zeros(len(tiles), dtype=bool)
    kept = []
    for idx in order:
        if blocked[idx]:
            continue
        kept.append(idx)
        blocked |= touch[idx]
        if len(kept) >= max_count:
            break
    return tiles[kept]
