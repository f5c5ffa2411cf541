"""Invariant batteries: sanity on small runs plus hand-built failure probes.

The suites must detect violations, not just count trials, so each
negative test feeds a deliberately broken input through the same check
code the battery uses.  The batched 1-d battery is also checked against
the scalar `czd_invariants` of oracles.py, check by check and count by
count.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from strongmeans import corpus
from strongmeans.czd import decompose, stopping_cells
from strongmeans.grid import GridFunction
from strongmeans.suites import (
    chain_suite,
    covering_suite,
    cube_invariants,
    czd_block_checks,
    czd_block_invariants,
    czd_suite,
    _draw_function,
    _draw_lam,
)

from oracles import czd_invariants


def test_draw_lam_is_dyadic_and_in_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam = _draw_lam(rng)
        assert 1.0 < lam <= 64.0
        assert Fraction(lam).denominator <= 64


def test_czd_invariants_all_pass_on_corpus_function():
    f = corpus.multi_spike(10, 5, np.random.default_rng(1))
    checks, n_bad = czd_invariants(f, 4.0)
    assert all(checks.values()), checks
    assert n_bad == len(decompose(f, 4.0).bad)
    block, counts = czd_block_invariants(f.samples[None], [4.0])
    assert {k: bool(v[0]) for k, v in block.items()} == checks
    assert counts.tolist() == [n_bad]


def test_czd_invariants_all_pass_2d():
    f = corpus.tensor_multi_spike(5, 6, np.random.default_rng(2))
    checks, _ = cube_invariants(f, 4.0)
    assert all(checks.values()), checks


def test_czd_invariants_flag_offgrid_samples():
    samples = np.full((3, 64), 1.0)
    samples[1, 0] = 1.0 + 2.0**-40  # off the 24-bit grid
    checks, _ = czd_block_invariants(samples, [2.0, 2.0, 2.0])
    assert checks["exact_input"].tolist() == [True, False, True]
    assert checks["exact_path"].tolist() == [True, False, True]
    want, _ = czd_invariants(GridFunction(1, 6, samples[1]), 2.0)
    assert not want["exact_input"]
    assert {k: bool(v[1]) for k, v in checks.items()} == want


@pytest.mark.parametrize("J", [6, 10])
def test_block_battery_matches_scalar_oracle(J):
    """500 trials of each corpus family, every 50th pushed off the
    24-bit grid so that some checks fail on both sides."""
    rng = np.random.default_rng(100 + J)
    for family in range(3):
        fs, lams = [], []
        for t in range(500):
            f = _draw_function(rng, J, family)
            if t % 50 == 0:
                f = GridFunction(1, J, f.samples + np.where(np.arange(f.n) == t % f.n,
                                                            2.0**-40, 0.0))
            fs.append(f)
            lams.append(_draw_lam(rng))
        checks, n_bad = czd_block_invariants(np.stack([f.samples for f in fs]), lams)
        for i, (f, lam) in enumerate(zip(fs, lams)):
            want, count = czd_invariants(f, lam)
            assert {k: bool(v[i]) for k, v in checks.items()} == want, (family, i)
            assert n_bad[i] == count, (family, i)
        assert not checks["exact_input"][::50].any()


def test_block_checks_flag_corrupted_bad_cell():
    rng = np.random.default_rng(7)
    fs = [_draw_function(rng, 9, t) for t in range(6)]
    lams = [4.0] * 6
    samples = np.stack([f.samples for f in fs])
    cells = stopping_cells(np.abs(samples), 1, [(4, 8)] * 6)
    clean, counts = czd_block_checks(samples, lams, cells)
    assert all(v.all() for v in clean.values()), clean
    k = np.flatnonzero((cells.row == 3) & (cells.col == 0))[0]

    # a bad cell replaced by its parent, whose average is at most lam
    level, index = cells.level.copy(), cells.index.copy()
    level[k] -= 1
    index[k] >>= 1
    checks, _ = czd_block_checks(samples, lams, replace(cells, level=level, index=index))
    assert not checks["height_window"][3]
    assert all(v[np.arange(6) != 3].all() for v in checks.values())

    # a bad cell dropped: samples above lam are left uncovered
    keep = np.arange(len(cells.row)) != k
    dropped = replace(cells, row=cells.row[keep], col=cells.col[keep],
                      level=cells.level[keep], index=cells.index[keep])
    checks, n_bad = czd_block_checks(samples, lams, dropped)
    assert not checks["bounded_off_bad"][3]
    assert n_bad[3] == counts[3] - 1
    assert all(v[np.arange(6) != 3].all() for v in checks.values())


def test_czd_suite_small_run_clean():
    res = czd_suite(30, J=9, seed=5)
    assert res.ok, res.failures
    assert res.trials == 30
    assert res.stats["mean_bad_cells"] > 0


def test_czd_suite_2d_small_run_clean():
    res = czd_suite(10, J=5, seed=6, dim=2)
    assert res.ok, res.failures


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


def test_chain_suite_level_five():
    res = chain_suite(5)
    assert res.ok
    assert res.stats["chains"] > 0
    assert res.stats["outer_pairs"] > res.stats["chains"]
