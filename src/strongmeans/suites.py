"""Randomized invariant batteries over the decomposition and covering layers.

Each suite draws a reproducible stream of inputs, checks every invariant
on every draw, and accumulates failure counts instead of raising, so one
run summarizes thousands of trials.  Comparisons the theory states
exactly (stopping heights, measures, reassembly, set containments) run
in integer arithmetic on the 24-bit sample grid; nothing here trusts a
float tolerance.

The 1-d decomposition battery works on blocks of BLOCK trials: one
`czd.stopping_cells` call selects the bad cells of the whole block at
lam and 2 lam, and `czd_block_checks` checks them on the whole block.
The covering battery draws every family of one kind, then checks them
as one batch of integer arrays.  Neither changes the order of the
random draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import corpus
from .covering import (
    exhaustive_chain_scan,
    random_nonadjacent_cube_family,
    random_nonadjacent_family,
    verify_covering,
    verify_covering_cubes,
)
from .czd import (
    FRACT_BITS,
    StoppingCells,
    bad_part,
    decompose,
    good_part,
    stopping_cells,
)

# lambda draws live on this grid so the stopping height stays a dyadic
# rational and every decomposition takes the exact integer path
_LAM_DEN = 64
# 1-d czd trials per block, one pyramid each.  Peak memory grows with
# the block: at J = 12 a suite process peaks near 56 MB with 64 trials
# per block and near 105 MB with 256.
BLOCK = 64


@dataclass
class SuiteResult:
    suite: str
    trials: int
    failures: dict
    elapsed: float
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.failures.values())


def _draw_lam(rng) -> float:
    """Dyadic-rational heights, log-spread over (1, 64]."""
    e = int(rng.integers(0, 6))
    m = int(rng.integers(_LAM_DEN + 1, 2 * _LAM_DEN + 1))  # (1, 2] in 64ths
    return (m << e) / _LAM_DEN


def _draw_function(rng, J: int, t: int):
    fam = t % 3
    if fam == 0:
        k = int(rng.integers(2, 17))
        return corpus.multi_spike(J, k, rng)
    if fam == 1:
        return corpus.trig_poly(J, rng)
    return corpus.abs_noise(J, rng)


def czd_block_checks(samples: np.ndarray, lams, cells: StoppingCells):
    """Every exact invariant of a block of 1-d decompositions.

    `samples` holds one function per row, `lams` one height per row, and
    `cells` the selection at lam (height column 0) and 2 lam (column 1).
    Returns (check name -> bool per row, bad cells at lam per row).  The
    checks recompute every cell and parent sum from a per-row cumulative
    sum and every covered sample from the cells' endpoints, so they do
    not trust the pyramid that selected the cells.  Raises
    OverflowError when the exact comparisons would leave int64.
    """
    B, n = samples.shape
    J = n.bit_length() - 1
    lamF = [Fraction(x) for x in lams]
    scaled = np.real(samples) * float(1 << FRACT_BITS)
    rounded = np.rint(scaled)
    on_grid = np.all(rounded == scaled, axis=1)
    absu = np.abs(rounded, out=rounded).astype(np.int64)  # |samples| in units
    # int64 budget: 2 * lam * n * 2**FRACT_BITS and sum|units| * den
    # must stay below 2**62 (the sum taken in floats, which cannot wrap)
    if (max(x.numerator for x in lamF).bit_length() + J + FRACT_BITS + 1 >= 62
            or absu.sum(axis=1, dtype=np.float64).max()
            * max(x.denominator for x in lamF) >= 2.0**62):
        raise OverflowError("exact comparison budget exceeded")
    num = np.array([x.numerator for x in lamF], dtype=np.int64)
    den = np.array([x.denominator for x in lamF], dtype=np.int64)
    csum = np.zeros((B, n + 1), dtype=np.int64)
    np.cumsum(absu, axis=1, out=csum[:, 1:])
    checks = {
        "exact_input": on_grid,
        "exact_path": cells.exact.copy(),
    }

    def spans(col):
        sel = cells.col == col
        row, level, idx = cells.row[sel], cells.level[sel], cells.index[sel]
        w = n >> level
        return row, idx, w, idx * w, (idx + 1) * w

    def cover(row, lo, hi):
        """Samples inside some cell, marked from the cells' endpoints."""
        mask = np.zeros(B * n, dtype=bool)
        size = hi - lo
        first = np.repeat(row * n + lo - np.cumsum(size) + size, size)
        mask[first + np.arange(size.sum())] = True
        return mask.reshape(B, n)

    def rows_where_all(row, ok):
        out = np.ones(B, dtype=bool)
        out[row[~ok]] = False
        return out

    row, idx, w, lo, hi = spans(0)
    order = np.lexsort((lo, row))
    r, a, b = row[order], lo[order], hi[order]
    clash = (r[1:] == r[:-1]) & (b[:-1] > a[1:])
    checks["disjoint"] = rows_where_all(r[1:], ~clash)

    sums = csum[row, hi] - csum[row, lo]
    height = num[row] * (w << FRACT_BITS)  # lam * cell volume, scaled
    d = den[row]
    checks["height_window"] = rows_where_all(
        row, (sums * d > height) & (sums * d <= 2 * height))
    # parent average must sit at or below the height, else the stopping
    # time would have selected the parent instead
    plo = (idx >> 1) * (2 * w)
    psums = csum[row, plo + 2 * w] - csum[row, plo]
    checks["parents_not_selected"] = rows_where_all(row, psums * d <= 2 * height)

    covered = np.zeros(B, dtype=np.int64)
    np.add.at(covered, row, hi - lo)
    # |bad set| = covered / n <= ||f||_1 / lam = sum|units| / (n 2**FRACT_BITS lam)
    checks["mass_bound"] = covered * (num << FRACT_BITS) <= absu.sum(axis=1) * den

    mask = cover(row, lo, hi)
    off_max = np.max(absu, axis=1, where=~mask, initial=0)
    checks["bounded_off_bad"] = off_max * den <= num << FRACT_BITS

    parts = np.where(mask, 0, samples)  # good part
    np.add(parts, samples, out=parts, where=mask)  # plus bad part
    checks["reassembly"] = np.all(parts == samples, axis=1)

    row2, _, _, lo2, hi2 = spans(1)
    checks["lam_monotone"] = np.all(mask | ~cover(row2, lo2, hi2), axis=1)
    return checks, np.bincount(row, minlength=B)


def czd_block_invariants(samples: np.ndarray, lams):
    """Select the bad cells of a block of 1-d functions at lam and 2 lam
    in one pass, then run `czd_block_checks` on them."""
    heights = [(Fraction(x), 2 * Fraction(x)) for x in lams]
    cells = stopping_cells(np.abs(samples), 1, heights)
    return czd_block_checks(samples, lams, cells)


def cube_invariants(f, lam: float) -> tuple[dict, int]:
    """The exact-invariant battery on one 2-d (f, lam) pair.

    Returns (check name -> bool, number of bad cubes).  Requires samples
    on the 24-bit grid and a height with a small dyadic denominator.
    """
    lamF = Fraction(lam)
    num, den = lamF.numerator, lamF.denominator
    n = 1 << f.J
    units = np.round(np.real(f.samples) * (1 << FRACT_BITS)).astype(np.int64)
    checks = {}
    checks["exact_input"] = bool(
        np.array_equal(units / (1 << FRACT_BITS), np.real(f.samples))
    )

    cz = decompose(f, lam)
    checks["exact_path"] = cz.exact

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

    mask = cz.bad_mask()
    lam_units = Fraction(num << FRACT_BITS, den)
    off = absu[~mask]
    checks["bounded_off_bad"] = off.size == 0 or Fraction(int(off.max())) <= lam_units

    g = good_part(cz)
    b = bad_part(cz)
    checks["reassembly"] = bool(np.array_equal(g.samples + b.samples, f.samples))

    mask2 = decompose(f, 2 * lam).bad_mask()
    checks["lam_monotone"] = bool(np.all(mask | ~mask2))
    return checks, len(cz.bad)


def czd_suite(trials: int, J: int = 12, seed: int = 0, dim: int = 1) -> SuiteResult:
    """Randomized decomposition battery: zero failures expected.

    Each trial draws a function, then a height.  In 1-d the trials run
    in blocks of BLOCK through `czd_block_invariants`; in 2-d one at a
    time through `cube_invariants`.
    """
    rng = np.random.default_rng(seed)
    failures: dict = {}
    bad_counts = 0
    t0 = time.perf_counter()
    for start in range(0, trials, BLOCK):
        block = range(start, min(start + BLOCK, trials))
        if dim == 1:
            samples, lams = [], []
            for t in block:
                samples.append(_draw_function(rng, J, t).samples)
                lams.append(_draw_lam(rng))
            checks, n_bad = czd_block_invariants(np.stack(samples), lams)
            bad_counts += int(n_bad.sum())
            fails = {name: int(np.count_nonzero(~ok)) for name, ok in checks.items()}
        else:
            fails = {}
            for t in block:
                f = (corpus.tensor_multi_spike(J, int(rng.integers(2, 17)), rng)
                     if t % 2 == 0 else corpus.tensor_trig(J, rng))
                checks, n_bad = cube_invariants(f, _draw_lam(rng))
                bad_counts += n_bad
                for name, ok in checks.items():
                    fails[name] = fails.get(name, 0) + (not ok)
        for name, count in fails.items():
            if count:
                failures[name] = failures.get(name, 0) + count
    elapsed = time.perf_counter() - t0
    return SuiteResult(
        suite=f"czd-{dim}d",
        trials=trials,
        failures=failures,
        elapsed=elapsed,
        stats={"mean_bad_cells": round(bad_counts / max(trials, 1), 2)},
    )


def covering_suite(trials_1d: int, trials_2d: int, seed: int = 0,
                   max_level_1d: int = 12, max_level_2d: int = 7) -> SuiteResult:
    """Random nonadjacent families: hull containment must never fail."""
    rng = np.random.default_rng(seed)
    failures = {"containment_1d": 0, "containment_2d": 0}
    components = 0
    t0 = time.perf_counter()
    # the checks draw nothing, so each kind's families are drawn first
    # and checked as one batch
    fams = [random_nonadjacent_family(rng, max_level=max_level_1d, max_count=64)
            for _ in range(trials_1d)]
    check = verify_covering(fams, j_max=max_level_1d)
    failures["containment_1d"] = int(np.count_nonzero(~check.holds))
    components += int(check.components.sum())
    cubes = [random_nonadjacent_cube_family(rng, max_level=max_level_2d)
             for _ in range(trials_2d)]
    check = verify_covering_cubes(cubes, j_max=max_level_2d)
    failures["containment_2d"] = int(np.count_nonzero(~check.holds))
    components += int(check.components.sum())
    elapsed = time.perf_counter() - t0
    return SuiteResult(
        suite="covering",
        trials=trials_1d + trials_2d,
        failures=failures,
        elapsed=elapsed,
        stats={"components": components},
    )


def chain_suite(max_level: int = 6) -> SuiteResult:
    """Exhaustive bridge-length scan over all chains up to a level."""
    t0 = time.perf_counter()
    scan = exhaustive_chain_scan(max_level)
    elapsed = time.perf_counter() - t0
    return SuiteResult(
        suite="chains",
        trials=scan.chains,
        failures={"bridge_not_longest": len(scan.violations)},
        elapsed=elapsed,
        stats={
            "intervals": scan.intervals,
            "outer_pairs": scan.outer_pairs,
            "chains": scan.chains,
        },
    )
