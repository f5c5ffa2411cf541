"""Invariant batteries: sanity on small runs plus hand-built failure probes.

The suites must detect violations, not just count trials, so each
negative test feeds a deliberately broken input, in 1-d and in 2-d,
through the same check code the battery uses.  The block battery is
also checked against the scalar `czd_invariants` (1-d) and
`cube_invariants` (2-d) of oracles.py, check by check and count by
count, and its block draws against the one-at-a-time `trial_samples`.
"""

import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from strongmeans.covering import exhaustive_chain_scan, verify_covering
from strongmeans.czd import decompose, exact_units, stopping_cells
from strongmeans.grid import GridFunction
from strongmeans.suites import (
    BLOCK,
    COVERING_BLOCK,
    Workspace,
    covering_suite,
    czd_block_checks,
    czd_block_invariants,
    czd_suite,
    _FAMILIES,
    _draw_block,
    _draw_lam,
)

from oracles import (
    cube_invariants,
    czd_invariants,
    k_spikes,
    nonadjacent_cube_family,
    nonadjacent_family,
    trial_samples,
)


def workspace(samples: np.ndarray) -> Workspace:
    """A `Workspace` for the rows of a block of samples."""
    return Workspace.allocate(len(samples), samples.shape[1].bit_length() - 1,
                              samples.ndim - 1)


def draw_function(rng, J: int, t: int, dim: int) -> GridFunction:
    """The function of trial t, drawn alone: a block of one."""
    families = _FAMILIES[dim]
    return families[t % len(families)].sample(J, rng)[1]


def test_draw_lam_is_dyadic_and_in_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam = _draw_lam(rng)
        assert 1.0 < lam <= 64.0
        assert Fraction(lam).denominator <= 64


def test_czd_invariants_all_pass_on_corpus_function():
    f = k_spikes(10, 5, np.random.default_rng(1))
    checks, n_bad = czd_invariants(f, 4.0)
    assert all(checks.values()), checks
    assert n_bad == len(decompose(f, 4.0).bad)
    samples = f.samples[None]
    block, counts = czd_block_invariants(samples, [4.0], workspace(samples))
    assert {k: bool(v[0]) for k, v in block.items()} == checks
    assert counts.tolist() == [n_bad]


def test_czd_invariants_all_pass_2d():
    f = k_spikes(5, 6, np.random.default_rng(2), dim=2)
    checks, n_bad = cube_invariants(f, 4.0)
    assert all(checks.values()), checks
    samples = f.samples[None]
    block, counts = czd_block_invariants(samples, [4.0], workspace(samples))
    assert {k: bool(v[0]) for k, v in block.items()} == checks
    assert counts.tolist() == [n_bad]


def test_czd_invariants_flag_offgrid_samples():
    samples = np.full((4, 64), 1.0)
    samples[1, 0] = 1.0 + 2.0**-40  # off the 24-bit grid
    # off it too, and its unit is the height's: the units leave
    # undecided whether the sample is over the height
    samples[3, 0] = 2.0 + 2.0**-30
    checks, _ = czd_block_invariants(samples, [2.0] * 4, workspace(samples))
    assert checks["exact_input"].tolist() == [True, False, True, False]
    # row 1's unit sums all lie far from 2 and 4: its selection is certified
    assert checks["exact_path"].tolist() == [True, True, True, False]
    for r in (1, 3):
        want, _ = czd_invariants(GridFunction(1, 6, samples[r]), 2.0)
        assert not want["exact_input"]
        assert {k: bool(v[r]) for k, v in checks.items()} == want


@pytest.mark.parametrize("dim,J", [
    (1, 6), (1, 10), (2, 5), (2, 7),
], ids=["6", "10", "2d-5", "2d-7"])
def test_block_battery_matches_scalar_oracle(dim, J):
    """500 trials of each 1-d and 300 of each 2-d corpus family, every
    50th pushed off the 24-bit grid so that some checks fail on both
    sides."""
    oracle, trials = (czd_invariants, 500) if dim == 1 else (cube_invariants, 300)
    rng = np.random.default_rng(100 + J)
    for family in range(3 if dim == 1 else 2):
        fs, lams = [], []
        for t in range(trials):
            f = draw_function(rng, J, family, dim)
            if t % 50 == 0:
                s = f.samples.copy()
                s.flat[t % s.size] += 2.0**-40
                f = GridFunction(dim, J, s)
            fs.append(f)
            lams.append(_draw_lam(rng))
        samples = np.stack([f.samples for f in fs])
        checks, n_bad = czd_block_invariants(samples, lams, workspace(samples))
        for i, (f, lam) in enumerate(zip(fs, lams)):
            want, count = oracle(f, lam)
            assert {k: bool(v[i]) for k, v in checks.items()} == want, (family, i)
            assert n_bad[i] == count, (family, i)
        assert not checks["exact_input"][::50].any()


def test_block_checks_flag_corrupted_bad_cell():
    for dim, J in ((1, 9), (2, 6)):
        rng = np.random.default_rng(7)
        fs = [draw_function(rng, J, t, dim) for t in range(6)]
        lams = [4.0] * 6
        samples = np.stack([f.samples for f in fs])
        units = exact_units(samples)
        sel = stopping_cells(samples, [(4, 8)] * 6, units)
        work = workspace(samples)
        clean, counts = czd_block_checks(samples, lams, sel, units, work)
        assert all(v.all() for v in clean.values()), (dim, clean)
        k = np.flatnonzero((sel.row == 3) & (sel.col == 0) & (sel.cells[:, 0] >= 2))[0]
        others = np.arange(6) != 3

        # a bad cell replaced by its parent, whose average is at most lam
        cells = sel.cells.copy()
        cells[k] = [cells[k, 0] - 1, *cells[k, 1:] >> 1]
        checks, _ = czd_block_checks(samples, lams, replace(sel, cells=cells), units, work)
        assert not checks["height_window"][3], dim
        assert all(v[others].all() for v in checks.values()), dim

        # a bad cell dropped: samples above lam are left uncovered
        keep = np.arange(len(sel.row)) != k
        dropped = replace(sel, row=sel.row[keep], col=sel.col[keep], cells=sel.cells[keep])
        checks, n_bad = czd_block_checks(samples, lams, dropped, units, work)
        assert not checks["bounded_off_bad"][3], dim
        assert n_bad[3] == counts[3] - 1
        assert all(v[others].all() for v in checks.values()), dim


def test_block_checks_flag_each_corruption():
    """One corrupted decomposition for each check the clean batteries
    never fail, all on row r, the first row with cells at 2 lam; every
    other row stays clean."""
    for dim, J in ((1, 9), (2, 6)):
        rng = np.random.default_rng(7)
        samples = np.stack([draw_function(rng, J, t, dim).samples for t in range(6)])
        lams = [4.0] * 6
        units = exact_units(samples)
        sel = stopping_cells(samples, [(4, 8)] * 6, units)
        r = sel.row[sel.col == 1][0]
        others = np.arange(6) != r
        n = 1 << J

        def flags(names, sel, samples=samples, lams=lams):
            """Run the checks on a corrupted row r: each named check
            fails there, and every other row passes them all."""
            checks, _ = czd_block_checks(samples, lams, sel, exact_units(samples),
                                        workspace(samples))
            for name in names:
                assert not checks[name][r], (dim, name)
            assert all(v[others].all() for v in checks.values()), dim

        def entries(keep, extra=()):
            """`sel` restricted to `keep`, then the cell rows `extra` for
            row r at lam."""
            extra = np.array(extra, dtype=np.int64).reshape(-1, 1 + dim)
            add = np.full(len(extra), r)
            return replace(sel, row=np.concatenate((sel.row[keep], add)),
                           col=np.concatenate((sel.col[keep], 0 * add)),
                           cells=np.concatenate((sel.cells[keep], extra)))

        mine = (sel.row == r) & (sel.col == 0)
        k = np.flatnonzero(mine & (sel.cells[:, 0] < J))[0]
        entry = np.arange(len(sel.row))

        # a bad cell listed twice
        flags(["disjoint"], entries(entry >= 0, [sel.cells[k]]))

        # a bad cell replaced by its heaviest child, whose parent, the
        # cell itself, has an average in (lam, 2**d lam]
        level = sel.cells[k, 0] + 1
        kids = [[2 * a + b for b in (0, 1)] for a in sel.cells[k, 1:]]
        w = n >> level
        heaviest = max(itertools.product(*kids), key=lambda ax: np.abs(
            samples[r][tuple(slice(a * w, (a + 1) * w) for a in ax)]).sum())
        flags(["parents_not_selected"], entries(entry != k, [[level, *heaviest]]))

        # at lam = 3/2 the bad cells of row r replaced by the level-1
        # cells, which cover the whole torus: measure 1, over the 2/3
        # that ||f||_1 / lam allows and under twice that
        quarters = [[1, *ax] for ax in itertools.product((0, 1), repeat=dim)]
        flags(["mass_bound"], entries(~mine, quarters),
              lams=[1.5 if b == r else 4.0 for b in range(6)])

        # a NaN sample: the good and bad parts no longer add up to f
        spoiled = samples.copy()
        spoiled[r].flat[5] = np.nan
        spoiled_sel = stopping_cells(spoiled, [(4, 8)] * 6, exact_units(spoiled))
        flags(["reassembly", "exact_input"], spoiled_sel, samples=spoiled)

        # the bad cell over a cell selected at 2 lam dropped
        twice = sel.cells[(sel.row == r) & (sel.col == 1)][0]
        cells = sel.cells[mine]
        at = twice[1:] >> (twice[0] - cells[:, :1])
        over = np.flatnonzero(mine)[np.all(at == cells[:, 1:], axis=1)]
        flags(["lam_monotone"], entries(entry != over[0]))


def test_block_checks_take_the_row_sums_past_the_largest_sample_bound():
    """One spike of 2**44 units in 4096 samples, at a height with
    denominator 64: n times the largest sample times the denominator
    reaches 2**62, so the int64 budget reads the row sums, which fit."""
    f = np.zeros(4096)
    f[7] = 2.0**20
    checks, n_bad = czd_block_invariants(f[None], [16449 / 64], workspace(f[None]))
    assert all(v[0] for v in checks.values()), checks
    want, count = czd_invariants(GridFunction(1, 12, f), 16449 / 64)
    assert all(want.values()) and n_bad[0] == count > 0


def test_block_checks_read_the_magnitude_of_complex_rows():
    """The checks read |f|, as the selection does: a spike on the
    imaginary axis is a bad cell's whole mass, not zero."""
    f = np.full(64, 0.5, dtype=complex)
    f[3] = 40j
    checks, n_bad = czd_block_invariants(f[None], [4.0], workspace(f[None]))
    assert all(v[0] for v in checks.values()), checks
    want, count = czd_invariants(GridFunction(1, 6, f), 4.0)
    assert all(want.values()) and n_bad[0] == count > 0


@pytest.mark.parametrize("dim,J,ends", [
    (1, 12, (64,)), (2, 7, (16,)), (1, 12, (64, 100)), (2, 7, (16, 21)),
], ids=["1d-full", "2d-full", "1d-partial", "2d-partial"])
def test_block_draws_match_trial_draws(dim, J, ends):
    """Blocks of BLOCK samples (the last one partly full) hold the
    functions and heights that one trial at a time draws, bit for bit,
    and leave the generator in the same state."""
    assert ends[0] == BLOCK >> (dim * J)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    start = 0
    for stop in ends:
        samples, lams = _draw_block(rng, J, dim, start, stop)
        want, want_lams = [], []
        for t in range(start, stop):
            want.append(trial_samples(ref, J, t, dim))
            want_lams.append(_draw_lam(ref))
        assert samples.shape == (stop - start,) + (1 << J,) * dim
        assert np.array_equal(samples, np.stack(want))
        assert np.array_equal(np.signbit(samples), np.signbit(want))
        assert lams == want_lams
        start = stop
    assert rng.bit_generator.state == ref.bit_generator.state


def test_czd_suite_small_run_clean():
    res = czd_suite(30, J=9, seed=5)
    assert res.ok, res.failures
    assert res.trials == 30
    assert res.stats["mean_bad_cells"] > 0


def test_czd_suite_2d_small_run_clean():
    # pinned at the trial-by-trial 2-d battery: the block battery draws
    # the same functions and heights in the same order
    for trials, J, seed, mean_bad in ((300, 5, 6, 18.47), (300, 7, 1, 100.21),
                                      (100, 8, 3, 168.99)):
        res = czd_suite(trials, J=J, seed=seed, dim=2)
        assert res.ok, res.failures
        assert res.suite == "czd-2d" and res.trials == trials
        assert res.stats["mean_bad_cells"] == mean_bad, (J, seed)


def test_covering_suite_small_run_clean():
    res = covering_suite(50, 10, seed=3)
    assert res.ok
    assert res.stats["components"] > 0


def test_covering_suite_with_one_kind_empty():
    """No families of one kind is an empty batch, not an error; the
    other kind's families are drawn from the same stream as ever."""
    for trials_1d, trials_2d in ((0, 1), (1, 0), (0, 0)):
        res = covering_suite(trials_1d, trials_2d, seed=3)
        assert res.ok and res.trials == trials_1d + trials_2d
    assert covering_suite(0, 0, seed=3).stats["components"] == 0
    assert covering_suite(1, 0, seed=3).stats["components"] > 0


def test_covering_blocks_match_family_by_family_checks():
    """Blocks of COVERING_BLOCK families, the last one short, give the
    components and failures of checking each family on its own, the
    families drawn one uniform at a time by the oracles from the same
    stream.  The 1-d families end in a block of one."""
    trials = {1: 2501, 2: 253}
    assert trials[1] % COVERING_BLOCK[1] == 1 and trials[2] % COVERING_BLOCK[2]
    res = covering_suite(trials[1], trials[2], seed=5)
    rng = np.random.default_rng(5)
    failures = {"containment_1d": 0, "containment_2d": 0}
    components = 0
    for dim, draw, level in ((1, nonadjacent_family, 12), (2, nonadjacent_cube_family, 7)):
        for _ in range(trials[dim]):
            check = verify_covering([draw(rng, level)], j_max=level)
            failures[f"containment_{dim}d"] += int(not check.holds[0])
            components += int(check.components[0])
    assert res.failures == failures
    assert res.stats["components"] == components


def test_covering_suite_memory_is_block_sized():
    """The suite's traced peak does not grow with its trial count: four
    blocks of each kind peak within 1.5 times one block.  Blocks differ
    by up to about 25% in peak; one circle sweep over every 1-d member
    at once would peak about four times higher."""
    covering_suite(1, 1, seed=2)  # first-call imports
    peaks = []
    for blocks in (1, 4):
        tracemalloc.start()
        try:
            covering_suite(blocks * COVERING_BLOCK[1], blocks * COVERING_BLOCK[2], seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_chain_suite_level_five():
    """The chain scan at level five: every chain has its bridge
    longest, and chains are fewer than the outer pairs scanned."""
    scan = exhaustive_chain_scan(5)
    assert scan.violations == []
    assert scan.chains > 0
    assert scan.outer_pairs > scan.chains
