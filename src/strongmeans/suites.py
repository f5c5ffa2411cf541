"""Randomized invariant batteries over the decomposition and covering layers.

Each suite draws a reproducible stream of inputs, checks every invariant
on every draw, and accumulates failure counts instead of raising, so one
run summarizes thousands of trials.  Comparisons the theory states
exactly (stopping heights, measures, reassembly, set containments) run
in integer arithmetic on the 24-bit sample grid; nothing here trusts a
float tolerance.

The decomposition battery works on blocks of trials in either
dimension, BLOCK samples to a block.  Each trial makes its random calls
in turn, and the float work of the block's functions runs once per
corpus family.  |samples| goes to integer units once per block: one
`czd.stopping_cells` call selects the bad cells of the whole block at
lam and 2 lam from those units, and `czd_block_checks` checks them on
the whole block from the same units, d-dimensional cells as boxes.
The covering battery draws every family of one kind, then checks them
as one batch of integer arrays.  Neither changes the order of the
random draws.
"""

from __future__ import annotations

import itertools
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
from .czd import FRACT_BITS, StoppingCells, cell_axes, exact_units, stopping_cells

# lambda draws live on this grid so the stopping height stays a dyadic
# rational and every decomposition takes the exact integer path
_LAM_DEN = 64
# samples per czd block, one pyramid each: 2**18 >> (d J) trials, at
# least one.  Peak memory grows with the block: at 1-d J = 12 a suite
# process peaks near 56 MB with 64 trials per block and near 105 MB
# with 256.
BLOCK = 1 << 18


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


# the families a czd trial draws from, trial t taking family t mod
# count: every corpus family but the unit spike
_FAMILIES = {d: list(fams.values())[1:] for d, fams in corpus.FAMILIES.items()}


def _draw_block(rng, J: int, dim: int, start: int, stop: int):
    """Samples and heights of trials start..stop-1, shape (B, n) or
    (B, n, n).  Each trial draws its function, then its height; the
    float work then runs once per family, on all of its rows."""
    families = _FAMILIES[dim]
    F = len(families)
    raws = [[] for _ in families]
    lams = []
    for t in range(start, stop):
        raws[t % F].append(families[t % F].draw(J, rng)[1])
        lams.append(_draw_lam(rng))
    samples = np.empty((stop - start,) + (1 << J,) * dim)
    for i, family in enumerate(families):
        if raws[i]:
            samples[(i - start) % F::F] = family.block(J, raws[i])[0]
    return samples, lams


def czd_block_checks(samples: np.ndarray, lams, cells: StoppingCells, units):
    """Every exact invariant of a block of d-dimensional decompositions.

    `samples` holds one function per row, shape (B, n) in dim 1 and
    (B, n, n) in dim 2; `lams` one height per row, `cells` the
    selection at lam (height column 0) and 2 lam (column 1), and
    `units` the `czd.exact_units` of the samples.  Returns
    (check name -> bool per row, bad cells at lam per row).  The checks
    recompute every cell and parent sum from the 2**d corners of a
    per-row summed-area table and every covered sample from the cells'
    corners, so they do not trust the pyramid that selected the cells.
    Raises OverflowError when the exact comparisons would leave int64.
    """
    B, n = samples.shape[:2]
    dim = samples.ndim - 1
    J = n.bit_length() - 1
    lamF = [Fraction(x) for x in lams]
    absu, on_grid = units
    absu = absu.reshape(B, -1)
    # int64 budget: 2**d * lam * n**d * 2**FRACT_BITS and sum|units| * den
    # must stay below 2**62 (the sum taken in floats, which cannot wrap)
    if (max(x.numerator for x in lamF).bit_length() + dim * J + FRACT_BITS + 1 >= 62
            or absu.sum(axis=1, dtype=np.float64).max()
            * max(x.denominator for x in lamF) >= 2.0**62):
        raise OverflowError("exact comparison budget exceeded")
    num = np.array([x.numerator for x in lamF], dtype=np.int64)
    den = np.array([x.denominator for x in lamF], dtype=np.int64)
    # summed-area table: table[b, x_1, ..., x_d] sums the samples below
    # the corner (x_1, ..., x_d) of row b
    table = np.zeros((B,) + (n + 1,) * dim, dtype=np.int64)
    inner = table[(slice(None),) + (slice(1, None),) * dim]
    np.cumsum(absu.reshape(inner.shape), axis=1, out=inner)
    for axis in range(2, dim + 1):
        np.cumsum(inner, axis=axis, out=inner)
    table = table.reshape(-1)
    checks = {
        "exact_input": on_grid,
        "exact_path": cells.exact.copy(),
    }

    def boxes(col):
        """Row, lower corner and side of each cell of one height column."""
        sel = cells.col == col
        row, level = cells.row[sel], cells.level[sel]
        w = n >> level
        return row, [a * w for a in cell_axes(level, cells.index[sel], dim)], w

    def box_sums(row, corner, w):
        """Sum of |units| over each box, by inclusion-exclusion over
        its 2**d corners in the summed-area table."""
        total = 0
        for far in itertools.product((False, True), repeat=dim):
            at = row
            for x, f in zip(corner, far):
                at = at * (n + 1) + (x + w if f else x)
            total = total + (-1) ** (dim - sum(far)) * table[at]
        return total

    def spread(start, w, stride):
        """start + stride * k for k in range(w), for each start."""
        return (np.repeat(start - stride * (np.cumsum(w) - w), w)
                + stride * np.arange(w.sum()))

    def cover(row, corner, w):
        """Samples inside some box: each box is w**(d-1) runs of w
        samples along the last axis, marked from the runs' starts."""
        start = row
        for x in corner:
            start = start * n + x
        for axis in range(1, dim):
            start = spread(start, w, n ** (dim - axis))
            w = np.repeat(w, w)
        mask = np.zeros(B * n**dim, dtype=bool)
        mask[spread(start, w, 1)] = True
        return mask.reshape(B, -1)

    def rows_where_all(row, ok):
        out = np.ones(B, dtype=bool)
        out[row[~ok]] = False
        return out

    row, corner, w = boxes(0)
    covered = np.zeros(B, dtype=np.int64)
    np.add.at(covered, row, w**dim)
    mask = cover(row, corner, w)
    # the cells are disjoint exactly when they cover their total volume
    checks["disjoint"] = np.count_nonzero(mask, axis=1) == covered

    sums = box_sums(row, corner, w)
    height = num[row] * (w**dim << FRACT_BITS)  # lam * cell volume, scaled
    d = den[row]
    bound = height << dim  # 2**d lam * cell volume = lam * parent volume
    checks["height_window"] = rows_where_all(
        row, (sums * d > height) & (sums * d <= bound))
    # parent average must sit at or below the height, else the stopping
    # time would have selected the parent instead
    psums = box_sums(row, [x - x % (2 * w) for x in corner], 2 * w)
    checks["parents_not_selected"] = rows_where_all(row, psums * d <= bound)

    # |bad set| = covered / n**d <= ||f||_1 / lam
    #           = sum|units| / (n**d 2**FRACT_BITS lam)
    checks["mass_bound"] = covered * (num << FRACT_BITS) <= absu.sum(axis=1) * den

    off_max = np.max(absu, axis=1, where=~mask, initial=0)
    checks["bounded_off_bad"] = off_max * den <= num << FRACT_BITS

    flat = samples.reshape(B, -1)
    parts = np.where(mask, 0, flat)  # good part
    np.add(parts, flat, out=parts, where=mask)  # plus bad part
    checks["reassembly"] = np.all(parts == flat, axis=1)

    checks["lam_monotone"] = np.all(mask | ~cover(*boxes(1)), axis=1)
    return checks, np.bincount(row, minlength=B)


def czd_block_invariants(samples: np.ndarray, lams):
    """Select the bad cells of a block of functions at lam and 2 lam in
    one pass, then run `czd_block_checks` on them; both read one
    conversion of |samples| to integer units."""
    units = exact_units(samples)
    cells = stopping_cells(samples, samples.ndim - 1, [(x, 2 * x) for x in lams], units)
    return czd_block_checks(samples, lams, cells, units)


def czd_suite(trials: int, J: int = 12, seed: int = 0, dim: int = 1) -> SuiteResult:
    """Randomized decomposition battery: zero failures expected.

    Each trial draws a function, then a height; the trials are drawn
    and run through `czd_block_invariants` in blocks of BLOCK samples.
    """
    rng = np.random.default_rng(seed)
    failures: dict = {}
    bad_counts = 0
    per_block = max(1, BLOCK >> (dim * J))
    t0 = time.perf_counter()
    for start in range(0, trials, per_block):
        samples, lams = _draw_block(rng, J, dim, start, min(start + per_block, trials))
        checks, n_bad = czd_block_invariants(samples, lams)
        bad_counts += int(n_bad.sum())
        for name, ok in checks.items():
            count = int(np.count_nonzero(~ok))
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
