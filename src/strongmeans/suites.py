"""Randomized invariant batteries over the decomposition and covering layers.

Each suite draws a reproducible stream of inputs, checks every invariant
on every draw, and accumulates failure counts instead of raising, so one
run summarizes thousands of trials.  Comparisons the theory states
exactly (stopping heights, measures, reassembly, set containments) run
in integer arithmetic on the 24-bit sample grid; nothing here trusts a
float tolerance.

The decomposition battery works on blocks of trials in either
dimension, BLOCK samples to a block, every block in one `Workspace`
allocated for the whole run and reused through `out=` arguments, so no
block pays to fault its arrays in again.  Each trial makes its random
calls in turn, and the float work of the block's functions runs once
per corpus family.  |samples| goes to integer units once per block:
one `czd.stopping_cells` call selects the bad cells of the whole block
at lam and 2 lam from those units, as `dyadic` cell rows, and
`czd_block_checks` checks them on the whole block from the same units,
reading each row as a box.
The covering battery draws and checks its families in blocks.  Neither
battery changes the order of the random draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

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
    exact_units,
    pyramid_cells,
    ratio,
    stopping_cells,
)

# lambda draws live on this grid so the stopping height stays a dyadic
# rational whose denominator the checks' int64 products can carry
_LAM_DEN = 64
# samples per czd block, one pyramid each: 2**18 >> (d J) trials, at
# least one.  The workspace takes about 28 bytes a sample, 7 MB at this
# size: at 1-d J = 12 a suite process peaks near 50 MB.
BLOCK = 1 << 18
# families per covering block, by dimension: a block's members, their
# pairs and their circle sweeps trace about 1 MB at the default levels
COVERING_BLOCK = {1: 500, 2: 25}


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


@dataclass(frozen=True)
class Workspace:
    """The block-sized arrays of the decomposition battery, allocated
    once per suite run and reused through `out=` arguments; `first(b)`
    views them for a block of b rows, the last one being shorter.

    `scratch` serves one stage after another: the rounding in
    `exact_units`, then the level sums of the selection."""

    samples: np.ndarray  # float64, (B, n) or (B, n, n)
    units: np.ndarray  # int64, the samples' shape: |samples| in units
    scratch: np.ndarray  # flat, 8-byte items, B * n**d of them
    codes: np.ndarray  # flat uint8: the selection's codes
    mask: np.ndarray  # (B, n**d) bool: the cover at lam
    flags: np.ndarray  # (B, n**d) bool scratch

    @classmethod
    def allocate(cls, rows: int, J: int, dim: int) -> "Workspace":
        shape = (rows,) + (1 << J,) * dim
        return cls(
            samples=np.empty(shape),
            units=np.empty(shape, dtype=np.int64),
            scratch=np.empty(rows << (dim * J), dtype=np.int64),
            codes=np.empty(rows * pyramid_cells(J, dim), dtype=np.uint8),
            mask=np.empty((rows, 1 << (dim * J)), dtype=bool),
            flags=np.empty((rows, 1 << (dim * J)), dtype=bool))

    def first(self, b: int) -> "Workspace":
        return replace(self, samples=self.samples[:b], units=self.units[:b],
                       mask=self.mask[:b], flags=self.flags[:b])


def _draw_block(rng, J: int, dim: int, start: int, stop: int, out=None):
    """Samples and heights of trials start..stop-1, shape (B, n) or
    (B, n, n), the samples written to `out` when given.  Each trial
    draws its function, then its height; the float work then runs once
    per family, on all of its rows."""
    families = _FAMILIES[dim]
    F = len(families)
    raws = [[] for _ in families]
    lams = []
    for t in range(start, stop):
        raws[t % F].append(families[t % F].draw(J, rng)[1])
        lams.append(_draw_lam(rng))
    samples = np.empty((stop - start,) + (1 << J,) * dim) if out is None else out
    for i, family in enumerate(families):
        if raws[i]:
            family.block(J, raws[i], out=samples[(i - start) % F::F])
    return samples, lams


def czd_block_checks(samples: np.ndarray, lams, sel: StoppingCells, units,
                     work: Workspace):
    """Every exact invariant of a block of d-dimensional decompositions.

    `samples` holds one function per row, shape (B, n) in dim 1 and
    (B, n, n) in dim 2; `lams` one height per row, `sel` the
    selection at lam (height column 0) and 2 lam (column 1), `units`
    the `czd.exact_units` of the samples, and `work` a `Workspace` of
    the block's rows.  Returns (check name ->
    bool per row, bad cells at lam per row).  The checks recompute
    every cell and parent sum from the samples inside it and every
    covered sample from the cells' corners, so they do not trust the
    pyramid that selected the cells.
    Raises OverflowError when the exact comparisons would leave int64.
    """
    B, n = samples.shape[:2]
    dim = samples.ndim - 1
    J = n.bit_length() - 1
    num, den = np.array([ratio(x) for x in lams], dtype=object).T
    absu, on_grid = units
    absu = absu.reshape(B, -1)
    # int64 budget: 2**d * lam * n**d * 2**FRACT_BITS and sum|units| * den
    # must stay below 2**62 (the sum taken in floats, which cannot wrap,
    # unless the largest sample bounds it)
    if (int(num.max()).bit_length() + dim * J + FRACT_BITS + 1 >= 62
            or int(absu.max(initial=0)) * absu.shape[1] * int(den.max()) >= 1 << 62
            and absu.sum(axis=1, dtype=np.float64).max() * int(den.max()) >= 2.0**62):
        raise OverflowError("exact comparison budget exceeded")
    num, den = num.astype(np.int64), den.astype(np.int64)
    checks = {
        "exact_input": on_grid,
        "exact_path": sel.exact.all(axis=1),
    }

    def boxes(col):
        """Row, lower corner and side of each cell of one height column."""
        at = sel.col == col
        cells = sel.cells[at]
        w = n >> cells[:, 0]
        return sel.row[at], [a * w for a in cells[:, 1:].T], w

    def spread(start, w, stride):
        """start + stride * k for k in range(w), for each start."""
        return (np.repeat(start - stride * (np.cumsum(w) - w), w)
                + stride * np.arange(w.sum()))

    def inside(row, corner, w):
        """Flat indices of the samples inside each box, repeated where
        boxes overlap: each box is w**(d-1) runs of w samples along the
        last axis, spread from the runs' starts."""
        start = row
        for x in corner:
            start = start * n + x
        for axis in range(1, dim):
            start = spread(start, w, n ** (dim - axis))
            w = np.repeat(w, w)
        return spread(start, w, 1)

    def box_sums(at, w):
        """Sum of |units| over each box, from the flat indices `inside`
        gives for the boxes of side w."""
        return np.add.reduceat(absu.reshape(-1).take(at), np.cumsum(w**dim) - w**dim)

    def rows_where_all(row, ok):
        out = np.ones(B, dtype=bool)
        out[row[~ok]] = False
        return out

    row, corner, w = boxes(0)
    covered = np.zeros(B, dtype=np.int64)
    np.add.at(covered, row, w**dim)
    bad = inside(row, corner, w)
    mask = work.mask.reshape(-1)
    mask.fill(False)
    mask[bad] = True
    # the cells are disjoint exactly when they cover their total volume;
    # the total decides when they do, the slower count per row when not
    checks["disjoint"] = (
        np.ones(B, dtype=bool) if np.count_nonzero(mask) == bad.size
        else np.count_nonzero(work.mask, axis=1) == covered)

    sums = box_sums(bad, w)
    height = num[row] * (w**dim << FRACT_BITS)  # lam * cell volume, scaled
    d = den[row]
    bound = height << dim  # 2**d lam * cell volume = lam * parent volume
    checks["height_window"] = rows_where_all(
        row, (sums * d > height) & (sums * d <= bound))
    # parent average must sit at or below the height, else the stopping
    # time would have selected the parent instead
    psums = box_sums(inside(row, [x - x % (2 * w) for x in corner], 2 * w), 2 * w)
    checks["parents_not_selected"] = rows_where_all(row, psums * d <= bound)

    # |bad set| = covered / n**d <= ||f||_1 / lam
    #           = sum|units| / (n**d 2**FRACT_BITS lam)
    checks["mass_bound"] = covered * (num << FRACT_BITS) <= absu.sum(axis=1) * den

    # every sample above lam is covered: for integer units, u * den >
    # num << FRACT_BITS is u > floor((num << FRACT_BITS) / den), and for
    # flags, above > covered is above and not covered
    above = np.greater(absu, ((num << FRACT_BITS) // den)[:, None], out=work.flags)
    checks["bounded_off_bad"] = ~np.greater(above, work.mask, out=above).any(axis=1)

    # good part (zero on the bad set) plus bad part (zero off it) is f:
    # the sum is f + 0 off the bad set and 0 + f on it, which equals f
    # for every sample but NaN, whatever the cells
    checks["reassembly"] = ~np.isnan(samples.reshape(B, -1), out=work.flags).any(axis=1)

    # every sample covered at 2 lam is covered at lam
    twice = inside(*boxes(1))
    checks["lam_monotone"] = rows_where_all(twice >> (dim * J), mask[twice])
    return checks, np.bincount(row, minlength=B)


def czd_block_invariants(samples: np.ndarray, lams, work: Workspace):
    """Select the bad cells of a block of functions at lam and 2 lam in
    one pass, then run `czd_block_checks` on them; both read one
    conversion of |samples| to integer units, and every block-sized
    array comes from `work`, a `Workspace` of the block's rows."""
    rounding = work.scratch[:samples.size].view(np.float64).reshape(samples.shape)
    units = exact_units(samples, work.units, rounding)
    sel = stopping_cells(samples, [(x, 2 * x) for x in lams], units,
                         work.scratch, work.codes)
    return czd_block_checks(samples, lams, sel, units, work)


def czd_suite(trials: int, J: int = 12, seed: int = 0, dim: int = 1) -> SuiteResult:
    """Randomized decomposition battery: zero failures expected.

    Each trial draws a function, then a height; the trials are drawn
    and run through `czd_block_invariants` in blocks of BLOCK samples,
    every block in one `Workspace` allocated for the run.
    """
    rng = np.random.default_rng(seed)
    failures: dict = {}
    bad_counts = 0
    per_block = max(1, BLOCK >> (dim * J))
    work = Workspace.allocate(min(per_block, trials), J, dim)
    t0 = time.perf_counter()
    for start in range(0, trials, per_block):
        stop = min(start + per_block, trials)
        block = work.first(stop - start)
        samples, lams = _draw_block(rng, J, dim, start, stop, out=block.samples)
        checks, n_bad = czd_block_invariants(samples, lams, block)
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
    """Random nonadjacent families: hull containment must never fail.
    They are drawn and checked in blocks of COVERING_BLOCK, 1-d first;
    the checks draw nothing, so the blocks do not move the stream."""
    rng = np.random.default_rng(seed)
    failures = {"containment_1d": 0, "containment_2d": 0}
    components = 0
    t0 = time.perf_counter()
    for dim, trials, max_level, draw, verify in (
            (1, trials_1d, max_level_1d, random_nonadjacent_family, verify_covering),
            (2, trials_2d, max_level_2d, random_nonadjacent_cube_family,
             verify_covering_cubes)):
        for start in range(0, trials, COVERING_BLOCK[dim]):
            size = min(COVERING_BLOCK[dim], trials - start)
            check = verify([draw(rng, max_level) for _ in range(size)], j_max=max_level)
            failures[f"containment_{dim}d"] += int(np.count_nonzero(~check.holds))
            components += int(check.components.sum())
    return SuiteResult(suite="covering", trials=trials_1d + trials_2d, failures=failures,
                       elapsed=time.perf_counter() - t0, stats={"components": components})


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
