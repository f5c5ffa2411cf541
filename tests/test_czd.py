"""Stopping-time decomposition tests.

The oracle re-derives the decomposition by top-down recursion with
Fraction arithmetic, independent of the library's vectorized level
sweep over int64 sums.  The bad cells are compared as rows: the
decomposition keeps them as an int64 array of (level, index) or
(level, i, j) rows ordered by level, then index, and the oracle's
cells, sorted, must equal it row for row.  Off the 2**-24 grid the
oracle reads the samples' exact binary values, and a decomposition
that says it is exact must match it.  Batches of functions with two
heights each, on and off the grid, must match the dense running-mask
selection of oracles.py cell for cell and in which heights they
certify, and each row of a batch at each height must select the rows
`decompose` gives for it.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from strongmeans import corpus
from strongmeans.czd import (
    MAX_HEIGHTS,
    CZDecomposition,
    HeightTooLowError,
    decompose,
    decompositions,
    exact_units,
    pyramid_cells,
    stopping_cells,
)
from strongmeans.grid import GridFunction, tensor
from strongmeans.spectral import valle_poussin

from oracles import bad_mask, bad_measure, cell_average, constant, running_mask_cells


# --------------------------------------------------------------- oracle

def oracle_decompose_1d(samples, height: Fraction):
    """Maximal cells with average > height, Fractions all the way."""
    vals = [Fraction(float(abs(x))) for x in samples]
    J = len(vals).bit_length() - 1
    assert len(vals) == 1 << J
    pref = [Fraction(0)]
    for v in vals:
        pref.append(pref[-1] + v)
    bad = []

    def avg(level, index):
        w = (1 << J) >> level
        return (pref[(index + 1) * w] - pref[index * w]) / w

    def rec(level, index):
        if avg(level, index) > height:
            bad.append((level, index))
            return
        if level == J:
            return
        rec(level + 1, 2 * index)
        rec(level + 1, 2 * index + 1)

    assert avg(0, 0) <= height
    rec(0, 0)
    return bad


def oracle_decompose_2d(samples, height: Fraction):
    vals = [[Fraction(float(abs(x))) for x in row] for row in samples]
    n = len(vals)
    J = n.bit_length() - 1
    bad = []

    def avg(level, i, j):
        w = n >> level
        tot = sum(vals[a][b] for a in range(i * w, (i + 1) * w) for b in range(j * w, (j + 1) * w))
        return tot / (w * w)

    def rec(level, i, j):
        if avg(level, i, j) > height:
            bad.append((level, i, j))
            return
        if level == J:
            return
        for di in (0, 1):
            for dj in (0, 1):
                rec(level + 1, 2 * i + di, 2 * j + dj)

    assert avg(0, 0, 0) <= height
    rec(0, 0, 0)
    return bad


def rows(cells) -> list:
    """Oracle cells in the decomposition's row order."""
    return sorted(list(c) for c in cells)


def spike(J, height=None):
    n = 1 << J
    s = np.zeros(n)
    s[0] = height if height is not None else float(n)
    return GridFunction(1, J, s)


# --------------------------------------------------------------- frozen

def test_spike_heights_frozen():
    f = spike(12)  # unit mass
    cz4 = decompose(f, 4.0)
    assert cz4.bad.dtype == np.int64 and cz4.bad.tolist() == [[3, 0]]
    cz8 = decompose(f, 8.0)
    assert cz8.bad.tolist() == [[4, 0]]
    assert cz8.exact
    # oracle agreement
    assert oracle_decompose_1d(f.samples, Fraction(8)) == [(4, 0)]


def test_bad_cell_average_at_doubling_boundary():
    # bad cell [0,1/8) at height 4 has average exactly 2 * height
    f = spike(12)
    cz = decompose(f, 4.0)
    assert cell_average(f, cz.bad[0]) == 8.0


def test_constant_function_no_bad_cells():
    cz = decompose(constant(1.0, 10), 2.0)
    assert cz.bad.shape == (0, 2) and cz.bad.dtype == np.int64
    assert bad_measure(cz) == 0
    assert not bad_mask(cz).any()


def test_root_average_above_height_rejected():
    with pytest.raises(HeightTooLowError):
        decompose(constant(3.0, 8), 2.0)


def test_two_spike_with_sub_height_plateau():
    J = 10
    n = 1 << J
    s = np.zeros(n)
    s[0] = 256.0
    s[n // 2 : n // 2 + n // 4] = 3.0  # plateau below height 8
    f = GridFunction(1, J, s)
    cz = decompose(f, 8.0)
    assert all(Fraction(k, 1 << j) < Fraction(1, 4) for j, k in cz.bad.tolist())
    assert cz.bad.tolist() == rows(oracle_decompose_1d(s, Fraction(8)))


def test_signed_and_complex_inputs_use_magnitude():
    J = 8
    n = 1 << J
    s = np.zeros(n)
    s[5] = float(n)
    neg = GridFunction(1, J, -s)
    cplx = GridFunction(1, J, 1j * s)
    ref = decompose(GridFunction(1, J, s), 16.0)
    assert np.array_equal(decompose(neg, 16.0).bad, ref.bad)
    assert np.array_equal(decompose(cplx, 16.0).bad, ref.bad)


# --------------------------------------------------------------- invariants

def check_invariants_1d(f, cz: CZDecomposition):
    h = cz.height
    l1 = Fraction(f.l1())
    cells = cz.bad.tolist()
    # disjoint + maximal: no cell sits inside another
    for i, (j1, k1) in enumerate(cells):
        for j2, k2 in cells[i + 1 :]:
            lo, hi = sorted(((j1, k1), (j2, k2)))
            assert hi[1] >> (hi[0] - lo[0]) != lo[1]
    for j, k in cells:
        avg = Fraction(cell_average(f, (j, k)))
        assert h < avg <= 2 * h
        if j > 0:
            assert Fraction(cell_average(f, (j - 1, k >> 1))) <= h
    # weak type
    assert bad_measure(cz) <= l1 / h
    # |f| bounded off the bad set
    if len(cz.bad) < (1 << cz.J):
        off = np.abs(f.samples[~bad_mask(cz)])
        assert np.all(off <= float(h))


def quantized(vals):
    return np.round(np.asarray(vals, dtype=np.float64) * 2.0**24) / 2.0**24


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_invariants_random_1d(data):
    J = data.draw(st.integers(min_value=3, max_value=8))
    n = 1 << J
    raw = data.draw(
        st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), min_size=n, max_size=n)
    )
    s = quantized(raw)
    lam_num = data.draw(st.integers(min_value=2, max_value=64))
    f = GridFunction(1, J, s)
    lam = float(lam_num)
    if f.l1() > lam:
        return
    cz = decompose(f, lam)
    assert cz.exact
    check_invariants_1d(f, cz)
    assert cz.bad.tolist() == rows(oracle_decompose_1d(s, Fraction(lam_num)))
    # monotonicity: bad cells at a higher height sit inside bad cells here
    cz2 = decompose(f, 2 * lam)
    for j2, k2 in cz2.bad.tolist():
        assert any(j <= j2 and k2 >> (j2 - j) == k for j, k in cz.bad.tolist())


def test_invariants_2d_tensor_spike():
    J = 5
    n = 1 << J
    s1 = np.zeros(n)
    s1[0] = float(n)
    g = GridFunction(1, J, s1)
    f = tensor(g, g)
    cz = decompose(f, 8.0)
    # averages over level-j cubes containing the spike are 4**j
    assert cz.bad.tolist() == [[2, 0, 0]]
    assert oracle_decompose_2d(f.samples, Fraction(8)) == [(2, 0, 0)]
    # dimensional doubling: child average can be 4x the parent average
    avg = cell_average(f, cz.bad[0])
    assert Fraction(avg) <= 4 * cz.height


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_invariants_random_2d(data):
    J = data.draw(st.integers(min_value=2, max_value=4))
    n = 1 << J
    raw = data.draw(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=30, allow_nan=False), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    s = quantized(raw)
    f = GridFunction(2, J, s)
    lam = 8.0
    if f.l1() > lam:
        return
    cz = decompose(f, lam)
    assert cz.bad.tolist() == rows(oracle_decompose_2d(s, Fraction(8)))
    for q in cz.bad:
        avg = Fraction(cell_average(f, q))
        assert cz.height < avg <= 4 * cz.height
    assert bad_measure(cz) <= Fraction(f.l1()) / cz.height


def test_exact_sums_past_int64_refused():
    # 4096 samples of 2**52 units sum to 2**64, which int64 wraps to 0 at
    # the root: the budget must read every level, not the root alone
    f = GridFunction(1, 12, np.full(4096, 2.0**28))
    with pytest.raises(OverflowError):
        decompose(f, 1.0)


def test_off_grid_samples_certified():
    n = 256
    s = np.full(n, 1.0 / 3.0)
    s[0] = 100.0
    f = GridFunction(1, 8, s)
    cz = decompose(f, 4.0)
    # no cell's unit sum comes within half a unit per sample of 4
    assert cz.exact
    assert cz.bad.tolist() == rows(oracle_decompose_1d(s, Fraction(4))) == [[4, 0]]


def test_height_within_the_rounding_band_is_not_certified():
    """A delayed mean's level-3 cell 0 has an average within 2**-26 of
    the height: its unit sum lies within half a unit per sample of the
    height, so the units cannot say on which side the samples lie."""
    f = valle_poussin(corpus.spike(8), 4)
    vals = [Fraction(float(x)) for x in np.abs(f.samples[:32])]
    avg = sum(vals) / 32
    h = float(avg)
    assert abs(avg - Fraction(h)) <= Fraction(1, 1 << 26)
    assert not decompose(f, h).exact
    # a height 2**-20 away from the average is certified on either side
    above, below = decompose(f, h + 2**-20), decompose(f, h - 2**-20)
    assert above.exact and below.exact
    assert [3, 0] not in above.bad.tolist() and [3, 0] in below.bad.tolist()
    assert below.bad.tolist() == rows(oracle_decompose_1d(f.samples, Fraction(h - 2**-20)))
    # one sample 0.3 units above 2: heights 0.4 and 0.6 units above 2
    # lie within and beyond half a unit of its unit, 2 exactly
    s = np.ones(64)
    s[9] = 2 + 0.3 * 2.0**-24
    g = GridFunction(1, 6, s)
    assert not decompose(g, 2 + 0.4 * 2.0**-24).exact
    assert decompose(g, 2 + 0.6 * 2.0**-24).exact
    x = f.samples[None]
    got = stopping_cells(x, [[h + 2**-20, h]], exact_units(x))
    assert got.exact.tolist() == [[True, False]]
    same_cells(got, running_mask_cells(x, [[h + 2**-20, h]], exact_units(x)))


def off_grid(raw):
    """`raw` as samples of mean about 1/4, off the 2**-24 grid; None
    where the mean is 0 or subnormal, since 1/4 over it overflows and
    the scaled row would test no cell."""
    s = np.asarray(raw, dtype=np.float64)
    mean = s.mean()
    return s * (0.25 / mean) if mean >= np.finfo(np.float64).tiny else None


HEIGHTS = st.sampled_from([2.3, 1 / 3, 0.7, 5.1]) | st.floats(min_value=0.26, max_value=16)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_certified_selection_matches_fraction_oracle_1d(data):
    J = data.draw(st.integers(min_value=3, max_value=8))
    s = off_grid(data.draw(st.lists(st.floats(min_value=0, max_value=50), min_size=1 << J,
                                    max_size=1 << J)))
    assume(s is not None)
    h = data.draw(HEIGHTS)
    cz = decompose(GridFunction(1, J, s), h)
    if cz.exact:
        assert cz.bad.tolist() == rows(oracle_decompose_1d(s, Fraction(h)))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_certified_selection_matches_fraction_oracle_2d(data):
    J = data.draw(st.integers(min_value=2, max_value=4))
    row = st.lists(st.floats(min_value=0, max_value=30), min_size=1 << J, max_size=1 << J)
    s = off_grid(data.draw(st.lists(row, min_size=1 << J, max_size=1 << J)))
    assume(s is not None)
    h = data.draw(HEIGHTS)
    cz = decompose(GridFunction(2, J, s), h)
    if cz.exact:
        assert cz.bad.tolist() == rows(oracle_decompose_2d(s, Fraction(h)))


def test_any_positive_height_compares_exactly():
    """A height past every int64 limit selects nothing, and one with a
    long binary expansion is exact on corpus input."""
    for _, f in corpus.standard_corpus(8, seed=1):
        far = decompose(f, 1e30)
        assert far.exact and far.bad.shape == (0, 1 + f.dim)
        cz = decompose(f, 2.3)
        assert cz.exact and cz.height.denominator > 1 << 40
    f = spike(10)
    assert decompose(f, 2.3).bad.tolist() == rows(oracle_decompose_1d(f.samples, Fraction(2.3)))
    # 2**52 units in one sample: a level-12 limit of 2**(62 - 12), as a
    # cap taken before the shift would give, would select it
    assert decompose(spike(12, 2.0**28), 1e30).bad.size == 0


# --------------------------------------------------------------- batches

def selection_batch(rng, dim: int, J: int, exact: bool, B: int = 24):
    """B rows of mean-one spiky samples with two heights each: on the
    2**-20 grid with heights on the 1/8 grid, or off any grid with
    heights like 1.7 drawn as floats.  Every fourth row's heights
    come in decreasing order, and every fifth row's second height is
    above its largest sample, so it selects nothing."""
    x = rng.exponential(1.0, (B,) + (1 << J,) * dim) ** 4
    x /= x.reshape(B, -1).mean(axis=1).reshape((B,) + (1,) * dim)
    if exact:
        x = np.rint(x * 2.0**20) / 2.0**20
    heights = []
    for b in range(B):
        lam = float(rng.integers(9, 200)) / 8 if exact else rng.uniform(1.1, 25.0)
        pair = [lam, 2 * lam]
        if b % 5 == 0:
            pair[1] = float(np.ceil(2 * x[b].max())) + 1
        heights.append(pair[::-1] if b % 4 == 0 else pair)
    return x, heights


def same_cells(got, want):
    for name in ("exact", "row", "col", "cells"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name


@pytest.mark.parametrize("dim,J", [(1, 9), (2, 5)], ids=["1d", "2d"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_selection_matches_running_mask_oracle(dim, J, exact):
    rng = np.random.default_rng(40 + 2 * dim + exact)
    for _ in range(3):
        x, heights = selection_batch(rng, dim, J, exact)
        units = exact_units(x)
        got = stopping_cells(x, heights, units)
        # off the grid every height here is certified, against an oracle
        # that decides each comparison with Fractions
        assert got.exact.all() and (units[1] == exact).all()
        same_cells(got, running_mask_cells(x, heights, units))
        # rows where the second height selects nothing
        empty = [b for b, hs in enumerate(heights) if hs[1] > 2 * x[b].max()]
        assert empty and not np.isin(got.row[got.col == 1], empty).any()
        assert np.isin(empty, got.row[got.col == 0]).all()


@pytest.mark.parametrize("dim,J", [(1, 9), (2, 5)], ids=["1d", "2d"])
def test_selection_mixes_grid_rows_and_reuses_buffers(dim, J):
    """Rows on and off the grid in one batch, one of them with a NaN
    sample, through buffers sized for a larger batch and reused from
    call to call, match the oracle; only the NaN row is not exact."""
    rng = np.random.default_rng(7 + dim)
    sums = np.empty(40 * pyramid_cells(J - 1, dim), dtype=np.int64)
    codes = np.empty(40 * pyramid_cells(J, dim), dtype=np.uint8)
    for B in (40, 17):
        x, heights = selection_batch(rng, dim, J, True, B)
        y, float_heights = selection_batch(rng, dim, J, False, B)
        x[1::2], heights[1::2] = y[1::2], float_heights[1::2]
        x[3].flat[5] = np.nan
        units = exact_units(x)
        got = stopping_cells(x, heights, units, sums, codes)
        assert units[1].tolist() == [b % 2 == 0 for b in range(B)]
        assert got.exact.all(axis=1).tolist() == [b != 3 for b in range(B)]
        same_cells(got, running_mask_cells(x, heights, units))


@pytest.mark.parametrize("dim,J", [(1, 9), (2, 5)], ids=["1d", "2d"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_batch_cells_are_each_rows_bad_cells(dim, J, exact):
    """The cells a batch selects for one row at one height are the bad
    cells of `decompose` for that row alone at that height, as they
    stand: one cell format from the selection to the exceptional set."""
    x, heights = selection_batch(np.random.default_rng(60 + dim), dim, J, exact, 8)
    got = stopping_cells(x, heights, exact_units(x))
    for b, hs in enumerate(heights):
        for c, h in enumerate(hs):
            bad = decompose(GridFunction(dim, J, x[b]), h).bad
            mine = got.cells[(got.row == b) & (got.col == c)]
            assert mine.dtype == bad.dtype and np.array_equal(mine, bad), (b, c)


def test_batch_height_below_a_row_mean_refused():
    rng = np.random.default_rng(3)
    x, heights = selection_batch(rng, 1, 8, True, 6)
    heights[4] = [8.0, 0.5]  # every row has mean one
    units = exact_units(x)
    for select in (stopping_cells, running_mask_cells):
        with pytest.raises(HeightTooLowError, match="exceeds stopping height 0.5"):
            select(x, heights, units)


def test_at_most_eight_heights_per_row():
    x = np.ones((1, 16))
    units = exact_units(x)
    assert stopping_cells(x, [[2.0] * 8], units).row.size == 0
    with pytest.raises(ValueError):
        stopping_cells(x, [[2.0] * 9], units)


def test_decompositions_match_one_height_calls():
    """All of a function's heights in one selection, chunked by
    MAX_HEIGHTS, give each height the bad cells (bit for bit),
    exactness and height of a one-height `decompose`.  The delayed mean
    lies off the grid, and its selection is certified at every height."""
    on_grid = [f for _, f in corpus.standard_corpus(10, seed=3)]
    delayed = valle_poussin(corpus.spike(10), 16)
    _, tensor_fn = corpus.FAMILIES[2]["tkspikes"].sample(6, np.random.default_rng(4))
    lams = [16.0, 1.5, 64.0, 3.0, 2.3, 8.0, 2.0, 32.0, 4.0, 6.0]
    assert len(lams) > MAX_HEIGHTS
    for f in on_grid + [delayed, tensor_fn]:
        czs = decompositions(f, lams)
        assert len(czs) == len(lams)
        for lam, cz in zip(lams, czs):
            ref = decompose(f, lam)
            assert cz.height == ref.height == Fraction(lam)
            assert cz.source is f and cz.exact == ref.exact
            assert cz.exact, lam
            assert cz.bad.dtype == ref.bad.dtype and np.array_equal(cz.bad, ref.bad), lam
    assert decompositions(delayed, []) == []
    # the heights select different, non-empty bad sets
    assert len({decompose(delayed, lam).bad.tobytes() for lam in lams}) > 5
