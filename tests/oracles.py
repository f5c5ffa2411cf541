"""Oracles shared by the test modules.

Dilated bad cells become exact Fraction endpoint pairs, and their
coverage of grid cells is recomputed by interval arithmetic, so these
helpers stay independent of the integer bitmaps in
`strongmeans.estimates`.  `csv_differences` compares a fresh CSV with a
committed reference cell by cell.
"""

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np

from strongmeans import spectral


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
