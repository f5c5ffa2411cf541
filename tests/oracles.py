"""Oracles shared by the test modules.

Dilated bad cells become exact Fraction endpoint pairs, and their
coverage of grid cells is recomputed by interval arithmetic, so these
helpers stay independent of the integer bitmaps in
`strongmeans.estimates`.  Reference computations that no experiment
runs live here too: the chain check behind the vectorized exhaustive
scan, cell averages, mode-counting energy averages, and rectangular
partial sums with the per-pair 2-d moment they give.  `csv_differences`
compares a fresh CSV with a committed reference cell by cell.
"""

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np

from strongmeans import spectral
from strongmeans.covering import NINE_EIGHTHS
from strongmeans.dyadic import (
    DEFAULT_J_MAX,
    DyadicInterval,
    adjacent,
    dilate,
    intervals_disjoint,
    torus_distance,
)
from strongmeans.grid import GridFunction


def dilated_arc(iv, c: int) -> tuple[Fraction, Fraction]:
    """c-dilation of a dyadic interval about its center (lo may be negative)."""
    lo = Fraction(iv.index, 1 << iv.level)
    hi = Fraction(iv.index + 1, 1 << iv.level)
    mid = (lo + hi) / 2
    half = min(Fraction(c) * (hi - lo), Fraction(1)) / 2
    return mid - half, mid + half


def arcs_of(cz, c: int) -> list[tuple[Fraction, Fraction]]:
    """Dilated bad cells of a 1-d decomposition, exact endpoints."""
    return [dilated_arc(iv, c) for iv in cz.bad]


def axis_arcs(cz, c: int, axis: int) -> list[tuple[Fraction, Fraction]]:
    """Dilated per-axis shadows of the bad cubes, exact endpoints."""
    return [dilated_arc(q.axes[axis], c) for q in cz.bad]


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
    """Mean of |samples| inside a dyadic interval or cube."""
    w = f.n >> cell.level
    if isinstance(cell, DyadicInterval):
        return float(np.mean(np.abs(f.samples[cell.index * w : (cell.index + 1) * w])))
    i0 = cell.axes[0].index * w
    j0 = cell.axes[1].index * w
    return float(np.mean(np.abs(f.samples[i0 : i0 + w, j0 : j0 + w])))


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
    d1, d2, d3 = (dilate(iv, factor, j_max) for iv in trio)
    if torus_distance(d1, d3) == 0:
        raise NotAChainError("outer dilates intersect or touch")
    if torus_distance(d2, d1) > 0 or torus_distance(d2, d3) > 0:
        raise NotAChainError("middle dilate does not bridge the outers")
    return d2.length_units > min(d1.length_units, d3.length_units)


# ---------------------------------------------------------------------------
# energy averages and rectangular partial sums


def plancherel_average(f: GridFunction, N: int) -> float:
    """(1/N) sum_{n<=N} ||S_n f||_2^2 via mode counting; exact, no sweep."""
    c = spectral.forward(f)
    return float(np.sum((c.real**2 + c.imag**2) * spectral._mode_weights(f.n, N)) / N)


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
