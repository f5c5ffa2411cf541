"""Exceptional sets, moment sweeps, strong means, density extraction.

Oracles come first and stay independent of the implementation: set
measures and cell weights are recomputed with Fraction interval
arithmetic, moment curves with per-order partial sums, and the density
extractor against a direct loop over the defining thresholds and the
whole-array extractor in `oracles`.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmeans import cli, corpus, estimates, spectral
from strongmeans.cli import fmt
from strongmeans.czd import decompose
from strongmeans.estimates import (
    DEFAULT_LAM_GRID,
    NotBandLimitedError,
    ScheduleInfeasibleError,
    averaged_moment,
    averaged_moment_rect,
    build_exceptional_set,
    decay_slope,
    density_subsequence,
    strong_means_measure,
    verify_first_reduction,
    verify_second_reduction,
    weighted_moment,
)
from strongmeans.grid import GridFunction, tensor
from strongmeans.spectral import AliasingError, decay_kernel, modes

from oracles import (
    arcs_of,
    axis_arcs,
    constant,
    covered_length,
    k_spikes,
    off_arc_moments,
    plancherel_average,
    rect_moment_per_pair,
    reference_exceptional_set,
    shell_counts,
    sliced,
    trig_poly,
)
from oracles import density_subsequence as density_reference

NOISE = corpus.FAMILIES[1]["noise"]


# ---------------------------------------------------------------------------
# oracles


def union_measure_oracle(arcs) -> Fraction:
    return covered_length(arcs, Fraction(0), Fraction(1))


def weighted_moment_oracle(g: GridFunction, cz, c: int, p: int) -> Fraction:
    """16x oversampled exact quadrature of |g|^p off the dilated bad cells."""
    arcs = arcs_of(cz, c)
    F = 16 * g.n
    total = Fraction(0)
    for t in range(F):
        lo, hi = Fraction(t, F), Fraction(t + 1, F)
        out_len = (hi - lo) - covered_length(arcs, lo, hi)
        v = abs(float(g.samples[(t * g.n) // F]))
        total += Fraction(v) ** p * out_len
    return total


def brute_curve(f, lam, N_max, c, p):
    """Per-order partial sums on the 4 times finer grid, no streaming: the
    engine's ground truth."""
    exc = build_exceptional_set(decompose(f, lam), c)
    M = 1 << (f.J + 2)
    w = exc.complement_weights(M)
    per = []
    full = []
    for n in range(1, N_max + 1):
        Sn = spectral.partial_sum(f, n, 2).samples
        a = np.abs(Sn) ** p
        per.append(float(a @ w / M))
        full.append(float(a.mean()))
    return np.cumsum(per), np.cumsum(full)


# ---------------------------------------------------------------------------
# exceptional sets


def test_spike_exceptional_set_frozen():
    f = corpus.spike(6)
    cz = decompose(f, 8.0)
    for c, want in [(1, Fraction(1, 16)), (3, Fraction(3, 16)), (5, Fraction(5, 16))]:
        exc = build_exceptional_set(cz, c)
        assert exc.measure == want
        assert exc.measure == union_measure_oracle(arcs_of(cz, c))


@pytest.mark.parametrize("d,J", [(1, 10), (2, 6)])
def test_row_construction_matches_per_cell_reference(d, J):
    """The row-based E against the per-cell object construction at 16
    units per sample cell: the reference is constant on every sample
    cell, its coarsening is E's mask, and the Fraction measures agree,
    on corpus functions, every dilation and, in 2-d, both geometries;
    some arcs wrap past 1."""
    n = 1 << J
    wraps = 0
    for _, f in corpus.standard_corpus(J, seed=5, d=d, n_random=1):
        for lam in (2.0, 4.0, 16.0):
            cz = decompose(f, lam)
            for c in (1, 3, 5):
                wraps += sum(lo < 0 or hi > 1 for lo, hi in (
                    arcs_of(cz, c) if d == 1 else axis_arcs(cz, c, 0)))
                for geometry in ("cube", "slab") if d == 2 else ("cube",):
                    exc = build_exceptional_set(cz, c, geometry)
                    mask, measure = reference_exceptional_set(cz, c, geometry)
                    assert mask.shape == (16 * n,) * d
                    blocks = mask.reshape((n, 16) * d)
                    coarse = blocks[(slice(None), 0) * d]
                    assert np.array_equal(
                        blocks, np.broadcast_to(coarse.reshape((n, 1) * d), blocks.shape))
                    assert exc.mask.shape == (n,) * d
                    assert np.array_equal(exc.mask, coarse), (lam, c, geometry)
                    assert exc.measure == measure
    assert wraps > 0


def test_exceptional_set_rejects_other_dilations():
    cz = decompose(corpus.spike(5), 4.0)
    with pytest.raises(ValueError):
        build_exceptional_set(cz, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2.0, 4.0, 8.0, 16.0]),
       st.sampled_from([1, 3, 5]))
def test_measure_matches_fraction_oracle(seed, lam, c):
    rng = np.random.default_rng(seed)
    f = k_spikes(6, int(rng.integers(2, 9)), rng)
    cz = decompose(f, lam)
    exc = build_exceptional_set(cz, c)
    assert exc.measure == union_measure_oracle(arcs_of(cz, c))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2.0, 4.0, 8.0]))
def test_measure_bound_exact_rational(seed, lam):
    rng = np.random.default_rng(seed)
    f = NOISE.sample(7, rng)[1]
    exc = build_exceptional_set(decompose(f, lam), 5)
    assert exc.measure <= Fraction(5) / Fraction(lam)


def test_weighted_moment_vs_oversampled_oracle():
    rng = np.random.default_rng(9)
    f = k_spikes(5, 4, rng)
    cz = decompose(f, 4.0)
    exc = build_exceptional_set(cz, 5)
    want = float(weighted_moment_oracle(f, cz, 5, 2))
    assert abs(weighted_moment(f, exc, 2) - want) < 1e-9


def test_complement_weights_exact_on_both_grid_directions():
    """On the sample grid and each finer one, every weight is 0 or 1 and
    the mean removed weight is the measure; a coarser grid is refused,
    in 1-d and 2-d."""
    for f in (corpus.spike(4), corpus.spike(4, dim=2)):
        exc = build_exceptional_set(decompose(f, 4.0), 5)
        for M in (f.n, 2 * f.n, 4 * f.n):
            w = exc.complement_weights(M)
            assert w.shape == (M,) * f.dim
            assert np.all((w == 0) | (w == 1))
            assert np.array_equal(w[(slice(None, None, M // f.n),) * f.dim],
                                  1.0 - exc.mask)
            assert Fraction(int(w.sum()), M**f.dim) == 1 - exc.measure
        with pytest.raises(ValueError):
            exc.complement_weights(f.n // 2)


# ---------------------------------------------------------------------------
# averaged moments, 1-d


def test_engine_matches_brute_curve():
    rng = np.random.default_rng(21)
    trig = corpus.FAMILIES[1]["trig"].sample(6, rng)[1]
    spikes = k_spikes(5, 3, rng)
    assert abs(spectral.forward(spikes)[0]) > 0.1  # a Nyquist coefficient
    # (f, lam, N_max, measure_E); N_max = 16 is the Nyquist order at J = 5.
    # Height 1.25 selects a cell of the noise function large enough that
    # its 5-dilate is the whole torus; 16 is above every spike sample
    cases = [(trig, 4.0, 16, None), (spikes, 8.0, 16, None),
             (NOISE.sample(6, rng)[1], 1.25, 32, 1), (spikes, 16.0, 16, 0)]
    for f, lam, N_max, measure in cases:
        sched = tuple(1 << k for k in range(1, N_max.bit_length()))
        [reports] = averaged_moment(f, [lam], sched)
        if measure is not None:
            assert all(r.measure_E == measure for r in reports)
        cw, cf = brute_curve(f, lam, N_max, 5, 2)
        for rep in reports:
            want = cw[rep.N - 1] / rep.N
            assert abs(rep.avg_moment - want) <= 1e-12 * max(want, 1.0)
            assert abs(rep.full_torus_avg - cf[rep.N - 1] / rep.N) < 1e-10
        if measure == 1:
            assert all(r.avg_moment == 0.0 and fmt(r.avg_moment) == "0"
                       and fmt(r.ratio) == "0" for r in reports)
        if measure == 0:
            for rep in reports:
                plan = plancherel_average(f, rep.N)
                assert abs(rep.avg_moment - plan) <= 1e-12 * plan


def test_p2_curve_needs_no_partial_sums(monkeypatch):
    f = k_spikes(6, 3, np.random.default_rng(25))
    want = averaged_moment(f, [8.0], (4, 32))

    def refuse(*args, **kwargs):
        raise AssertionError("p = 2 streamed the partial sums")

    monkeypatch.setattr(estimates, "_partial_sum_stream", refuse)
    assert averaged_moment(f, [8.0], (4, 32)) == want


def test_stacked_heights_match_one_height_calls():
    """Six heights in one call against one call per height; the stack
    holds a height whose E is the whole torus and one whose E is empty.
    p = 2 stacks the heights' w^ and one product per order serves them
    all, which may move a curve's last bits: each curve matches to 1e-12
    of its largest value, and the shared full-torus column bit for bit.
    p = 4 streams each height on its own, so its reports are equal bit
    for bit."""
    g = k_spikes(7, 3, np.random.default_rng(29))
    lams = [64.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    curves = averaged_moment(g, lams, tuple(range(1, 65)))
    assert [c[0].lam for c in curves] == lams
    assert {c[0].measure_E for c in curves} >= {0, 1}
    for lam, curve in zip(lams, curves):
        [one] = averaged_moment(g, [lam], tuple(range(1, 65)))
        scale = max(r.avg_moment for r in one)
        for a, b in zip(curve, one, strict=True):
            assert (a.lam, a.N, a.measure_E, a.full_torus_avg) == \
                (b.lam, b.N, b.measure_E, b.full_torus_avg)
            assert abs(a.avg_moment - b.avg_moment) <= 1e-12 * scale
            assert abs(a.ratio - b.ratio) <= 1e-12 * scale / (lam * g.l1() ** 2)
    sched = (2, 8, 16, 64)
    curves = averaged_moment(g, lams, sched, p=4)
    assert curves == [averaged_moment(g, [lam], sched, p=4)[0] for lam in lams]


def test_engine_matches_brute_curve_p4():
    rng = np.random.default_rng(22)
    f = k_spikes(6, 3, rng)
    spikes = k_spikes(5, 3, rng)
    assert abs(spectral.forward(spikes)[0]) > 0.1  # a Nyquist coefficient
    # N_max = 16 is the Nyquist order at J = 5
    for g in (f, spikes):
        [reports] = averaged_moment(g, [8.0], (4, 16), p=4)
        cw, cf = brute_curve(g, 8.0, 16, 5, 4)
        for rep in reports:
            norm = rep.N * np.log(rep.N) ** 2
            want = cw[rep.N - 1] / norm
            assert abs(rep.avg_moment - want) < 1e-9 * max(1.0, want)
            full = cf[rep.N - 1] / norm
            assert abs(rep.full_torus_avg - full) < 1e-9 * max(1.0, full)


def refuse_stream(*args, **kwargs):
    raise AssertionError("p = 4 streamed the partial sums")


def test_p4_curve_on_empty_set_needs_no_partial_sums(monkeypatch):
    # w == 1, so the weighted column is the closed-form full column; the
    # height is above every sample, so E is empty
    f = k_spikes(6, 3, np.random.default_rng(26))
    assert build_exceptional_set(decompose(f, 64.0)).measure == 0
    cw, cf = brute_curve(f, 64.0, 32, 5, 4)
    monkeypatch.setattr(estimates, "_partial_sum_stream", refuse_stream)
    [reports] = averaged_moment(f, [64.0], (4, 32), p=4)
    for rep in reports:
        assert rep.measure_E == 0
        norm = rep.N * np.log(rep.N) ** 2
        assert rep.avg_moment == rep.full_torus_avg
        assert abs(rep.avg_moment - cw[rep.N - 1] / norm) <= 1e-12 * rep.avg_moment
        assert abs(rep.full_torus_avg - cf[rep.N - 1] / norm) <= 1e-12 * rep.full_torus_avg


def test_p4_curve_on_whole_set_is_zero(monkeypatch):
    # at height 1.25 a bad cell's 5-dilate covers the torus
    f = NOISE.sample(6, np.random.default_rng(27))[1]
    assert build_exceptional_set(decompose(f, 1.25)).measure == 1
    monkeypatch.setattr(estimates, "_partial_sum_stream", refuse_stream)
    [reports] = averaged_moment(f, [1.25], (4, 32), p=4)
    for rep in reports:
        assert rep.measure_E == 1
        assert rep.avg_moment == 0.0 and rep.ratio == 0.0
        assert rep.full_torus_avg > 0


def window_columns(M, cols=None):
    """The grid columns a stream over `cols` walks, ascending: every
    column of each window of min(`_WINDOW`, M) columns that holds one of
    cols (all of them when cols is None)."""
    W = min(estimates._WINDOW, M)
    win = np.arange(M) // W
    return np.arange(M) if cols is None else np.flatnonzero(np.isin(win, cols // W))


def assembled_stream(f, n_hi, refine, cols=None):
    """The partial-sum stream's tiles put together into an (n_hi, columns)
    array over the stream's own columns, `window_columns(M, cols)`;
    checks that each tile fits `_TILE`, or is one window wide when a
    window is wider, and that the tiles cover every (order, column)
    exactly once."""
    M = 1 << (f.J + refine)
    t = window_columns(M, cols)
    out = np.empty((n_hi, t.size))
    seen = np.zeros(out.shape, dtype=int)
    h, width = estimates._TILE
    for ns, span, rows in estimates._partial_sum_stream(f, modes(f, n_hi), refine,
                                                        cols):
        assert rows.shape == (len(ns), len(t[span]))
        assert rows.shape[0] <= h
        assert rows.shape[1] <= max(width, min(estimates._WINDOW, M))
        out[ns - 1, span] = rows
        seen[ns - 1, span] += 1
    assert (seen == 1).all()
    return out


def test_p4_weighted_column_streams_only_visible_columns(monkeypatch):
    # at 16 columns a window the streamed columns are a strict subset of
    # the grid; at 256 every grid here is one window
    f = k_spikes(6, 3, np.random.default_rng(28))
    for window in (16, 256):
        monkeypatch.setattr(estimates, "_WINDOW", window)
        exc = build_exceptional_set(decompose(f, 8.0), 5)
        assert 0 < exc.measure < 1
        M = 1 << (f.J + 2)
        w = exc.complement_weights(M)
        cols = np.flatnonzero(w)
        assert 0 < cols.size < M
        t = window_columns(M, cols)
        assert np.isin(cols, t).all() and (t.size < M) == (window < M)
        # the restricted stream is the full stream read at its columns,
        # bit for bit: both walk the same windows
        full = assembled_stream(f, 32, 2)
        part = assembled_stream(f, 32, 2, cols=cols)
        assert np.array_equal(part, full[:, t])
        per = np.abs(full) ** 4 @ w / M
        # ... and the curve's weighted column matches the full-grid sum
        [reports] = averaged_moment(f, [8.0], (4, 8, 32), p=4)
        cw = np.cumsum(per)
        for rep in reports:
            want = cw[rep.N - 1] / (rep.N * np.log(rep.N) ** 2)
            assert abs(rep.avg_moment - want) <= 1e-12 * want


def test_stream_tiles_match_partial_sums_at_ragged_edges(monkeypatch):
    # 3 orders x 10 columns: a tile holds one window of 8 or two of 4,
    # and every grid below is narrower than 256 columns; n_hi = 16 is
    # not a multiple of 3 orders, and the subset holds an odd number of
    # windows
    monkeypatch.setattr(estimates, "_TILE", (3, 10))
    rng = np.random.default_rng(29)
    spikes = k_spikes(5, 3, rng)
    assert abs(spectral.forward(spikes)[0]) > 0.1  # a Nyquist coefficient
    # n_hi = 16 is the Nyquist order at J = 5
    for window, f, refine in [(w, spikes, refine) for w in (256, 8, 4)
                              for refine in (2, 1, 0)]:
        monkeypatch.setattr(estimates, "_WINDOW", window)
        M = 1 << (f.J + refine)
        for cols in (None, np.arange(0, M, 12)):
            got = assembled_stream(f, 16, refine, cols=cols)
            t = window_columns(M, cols)
            for n in range(1, 17):
                want = spectral.partial_sum(f, n, refine).samples[t].real
                assert np.allclose(got[n - 1], want, rtol=0, atol=1e-12)


def test_stream_tiles_stay_within_the_tile():
    # grids of M = 2**(J + refine) columns up to 2**16, all columns and a
    # ragged subset; assembled_stream checks the bound on every tile
    rng = np.random.default_rng(30)
    for J, refine in [(3, 0), (5, 2), (8, 1), (12, 0), (11, 2), (14, 2)]:
        f = NOISE.sample(J, rng)[1]
        n_hi = min(f.n // 2, 21)
        assembled_stream(f, n_hi, refine)
        assembled_stream(f, n_hi, refine,
                         cols=np.arange(0, 1 << (J + refine), 3))


def test_stream_values_do_not_depend_on_the_column_width(monkeypatch):
    # a value of S_n f depends only on its column and `_WINDOW`: not on
    # the tile's orders or width, nor on which columns are streamed
    rng = np.random.default_rng(32)
    f = NOISE.sample(10, rng)[1]
    dense = np.flatnonzero(rng.random(1 << 13) < 0.6)
    sparse = np.flatnonzero(rng.random(1 << 13) < 0.001)
    assert window_columns(1 << 13, sparse).size < 1 << 13
    full = assembled_stream(f, 40, 3)
    for tile in ((3, 10), (16, 2048), (16, 8192)):
        monkeypatch.setattr(estimates, "_TILE", tile)
        for subset in (None, dense, sparse):
            got = assembled_stream(f, 40, 3, cols=subset)
            assert np.array_equal(got, full[:, window_columns(1 << 13, subset)])


def test_reader_may_overwrite_its_tile():
    # the stream copies its carry before it yields, so a reader that
    # spoils every tile it is given still receives the same next tiles
    f = k_spikes(9, 4, np.random.default_rng(33))
    c = modes(f, 100)
    want = [rows.copy() for _, _, rows in estimates._partial_sum_stream(f, c, 2)]
    got = []
    for _, _, rows in estimates._partial_sum_stream(f, c, 2):
        got.append(rows.copy())
        rows.fill(np.nan)
    assert len(got) == len(want) > 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_stream_scratch_is_tile_sized():
    # at M = 2**16 the table, the carry and the 16 x 2048 tile scratch
    # peak near 2.9 MB
    f = NOISE.sample(14, np.random.default_rng(31))[1]
    tracemalloc.start()
    try:
        for _ in estimates._partial_sum_stream(f, modes(f, 40), 2):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_p4_moment_peak_stays_within_the_stream_scratch():
    # one J = 14 spike at the p4_moment config's height, to order 256 (the
    # scratch does not grow with the order): the column weights come per
    # window from w, and no index array of the streamed columns is built,
    # so the traced peak stays under 4.5 MB (about 4.1 MB)
    f = corpus.spike(14)
    tracemalloc.start()
    try:
        averaged_moment(f, [8.0], (32, 64, 128, 256), p=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6


def test_stream_refuses_complex_samples():
    """Each entry point that streams partial sums refuses complex f with
    ValueError: p = 4 with 0 < |E| < 1, the rectangular factors and the
    strong means.  p = 2 takes its closed form and still reads c."""
    rng = np.random.default_rng(34)
    spikes = k_spikes(6, 3, rng)
    cplx = GridFunction(1, 6, spikes.samples + 1j * NOISE.sample(6, rng)[1].samples)
    assert 0 < build_exceptional_set(decompose(cplx, 8.0)).measure < 1
    with pytest.raises(ValueError, match="real samples"):
        averaged_moment(cplx, [8.0], (4, 32), p=4)
    with pytest.raises(ValueError, match="real samples"):
        averaged_moment_rect(tensor(cplx, spikes), [8.0], (4, 8))
    with pytest.raises(ValueError, match="real samples"):
        strong_means_measure(cplx, [0.5], (4, 32))
    averaged_moment(cplx, [8.0], (4, 32))


def test_stream_runs_once_per_function(monkeypatch):
    calls = []
    stream = estimates._partial_sum_stream

    def counted(f, *args, **kwargs):
        calls.append(f)
        return stream(f, *args, **kwargs)

    monkeypatch.setattr(estimates, "_partial_sum_stream", counted)
    f = k_spikes(6, 3, np.random.default_rng(23))
    averaged_moment(f, [8.0], (4, 8, 16, 32), p=4)
    assert calls == [f]
    calls.clear()
    cfg = cli.ExperimentConfig.from_dict({
        "experiment": "strong_means", "seed": 3, "J": 7,
        "schedule": [8, 16, 32],
        "corpus": {"families": ["spike", "trig"], "n_random": 1},
        "options": {"eps_factors": [0.5, 0.25, 0.125]},
    })
    rows, _, _ = cli.execute(cfg)
    assert len(calls) == 2 and calls[0] is not calls[1]
    assert len(rows) == 2 * 3 * 3  # functions x eps factors x schedule


def test_p4_curve_transforms_once(monkeypatch):
    # the closed-form full column and the stream off E share one forward(f)
    calls = []
    forward = spectral.forward

    def counted(f):
        calls.append(f)
        return forward(f)

    f = k_spikes(6, 3, np.random.default_rng(23))
    exc = build_exceptional_set(decompose(f, 8.0), 5)
    assert 0 < exc.measure < 1  # so both columns are computed
    monkeypatch.setattr(spectral, "forward", counted)
    averaged_moment(f, [8.0], (4, 8, 16, 32), p=4)
    assert calls == [f]


def test_full_torus_average_matches_closed_form():
    f = corpus.spike(6)
    [reports] = averaged_moment(f, [8.0], (4, 8, 16, 32))
    for rep in reports:
        assert abs(rep.full_torus_avg - (rep.N + 2)) < 1e-9
        assert abs(rep.full_torus_avg - plancherel_average(f, rep.N)) < 1e-9


def test_constant_function_curve_is_one():
    [reports] = averaged_moment(constant(1.0, 6), [2.0], (4, 16))
    for rep in reports:
        assert rep.measure_E == 0
        assert abs(rep.avg_moment - 1.0) < 1e-12
        assert abs(rep.ratio - 0.5) < 1e-12


def test_exceptional_set_shared_across_curve():
    f = corpus.spike(8)
    [reports] = averaged_moment(f, [8.0], (32, 64))
    assert all(r.exceptional is reports[0].exceptional for r in reports)


def test_full_torus_dominates_restricted():
    for _, f in corpus.standard_corpus(8, seed=5):
        for rep in averaged_moment(f, [8.0], (32, 64))[0]:
            assert rep.full_torus_avg >= rep.avg_moment - 1e-12


def test_averaged_moment_rejects_aliased_schedule():
    with pytest.raises(AliasingError):
        averaged_moment(corpus.spike(6), [8.0], (32, 64))


# ---------------------------------------------------------------------------
# reductions and decay kernels


def test_first_reduction_constant_passes():
    rep = verify_first_reduction(constant(1.0, 6), [2.0])[0]
    assert rep.avg_moment == 1.0 and rep.ratio == 0.5
    assert rep.ratio <= 1 + 1e-12


def test_first_reduction_spike_moment_zero():
    rep = verify_first_reduction(corpus.spike(8), [4.0])[0]
    assert rep.avg_moment == 0.0
    assert rep.ratio <= 1 + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2.0, 4.0, 8.0, 32.0]))
def test_first_reduction_ratio_never_exceeds_one(seed, lam):
    rng = np.random.default_rng(seed)
    f = NOISE.sample(7, rng)[1] if seed % 2 else k_spikes(7, 5, rng)
    rep = verify_first_reduction(f, [lam])[0]
    assert rep.ratio <= 1 + 1e-12


def test_first_reduction_exact_against_oracle():
    f = k_spikes(5, 3, np.random.default_rng(33))
    cz = decompose(f, 4.0)
    rep = verify_first_reduction(f, [4.0])[0]
    want = float(weighted_moment_oracle(f, cz, 1, 2))
    assert abs(rep.avg_moment - want) < 1e-9


def test_second_reduction_constant():
    rep = verify_second_reduction(constant(1.0, 6), [2.0], 8)[0]
    assert abs(rep.avg_moment - 1.0 / 64) < 1e-15


def test_second_reduction_rejects_wideband():
    f = NOISE.sample(8, np.random.default_rng(3))[1]
    with pytest.raises(NotBandLimitedError):
        verify_second_reduction(f, [4.0], 4)


def test_second_reduction_smoothed_spike_runs():
    f = spectral.valle_poussin(corpus.spike(8), 16)
    rep = verify_second_reduction(f, [8.0], 16)[0]
    assert rep.avg_moment >= 0 and np.isfinite(rep.ratio)
    assert rep.measure_E == build_exceptional_set(decompose(f, 8.0), 3).measure


def test_decay_kernel_rejects_small_s():
    with pytest.raises(ValueError):
        decay_kernel(4, 5, 1.0)


def test_decay_slopes_match_scale_dichotomy():
    # slope 2-s for every s > 1 (see criterion 06): growth below s=2,
    # flat at s=2, decay at s=3, with the bad interval held fixed
    f = corpus.spike(10)
    Ns = (32, 64, 128, 256)
    (slope15, reports), (slope2, _), (slope3, _) = decay_slope(f, [8.0], (1.5, 2.0, 3.0), Ns)[0]
    assert 0.25 < slope15 < 0.75
    assert all(r.exceptional is reports[0].exceptional for r in reports)
    assert -0.2 < slope2 < 0.2
    assert -1.3 < slope3 < -0.7
    # one s at a time gives the same slopes
    assert [decay_slope(f, [8.0], [s], Ns)[0][0][0] for s in (1.5, 2.0, 3.0)] == \
        [slope15, slope2, slope3]


def test_every_report_carries_its_ratio_and_set_measure():
    # every MomentReport comes from one builder: the ratio is the moment
    # over lam^(p-1) ||f||_1^p, bit for bit, and measure_E is E's measure
    rng = np.random.default_rng(5)
    f = k_spikes(7, 4, rng)
    smooth = spectral.valle_poussin(corpus.spike(8), 16)
    g = k_spikes(5, 3, rng, dim=2)
    [(_, decay)] = decay_slope(corpus.spike(8), [8.0], [1.5], (8, 16, 32))[0]
    cases = [(f, 4.0, 2, verify_first_reduction(f, [4.0])[0]),
             (smooth, 8.0, 2, verify_second_reduction(smooth, [8.0], 16)[0])]
    cases += [(spectral.valle_poussin(corpus.spike(8), rep.N), 8.0, 2, rep)
              for rep in decay]
    cases += [(f, 4.0, p, rep) for p in (2, 4)
              for rep in averaged_moment(f, [4.0], (4, 32), p=p)[0]]
    cases += [(g, 16.0, 2, rep)
              for rep in averaged_moment_rect(g, [16.0], (4, 8))[0][0]]
    assert len(cases) == 11
    for fn, lam, p, rep in cases:
        assert rep.lam == lam
        assert rep.ratio == rep.avg_moment / (lam ** (p - 1) * fn.l1() ** p)
        assert rep.measure_E == rep.exceptional.measure


# ---------------------------------------------------------------------------
# rectangular sweep


def test_rect_tensor_path_matches_general_path():
    f = k_spikes(4, 2, np.random.default_rng(8), dim=2)
    [(fast, _)] = averaged_moment_rect(f, [4.0], (2, 4, 8))
    bare = GridFunction(2, 4, f.samples.copy())
    exc = build_exceptional_set(decompose(bare, 4.0), 5)
    slow = rect_moment_per_pair(bare, exc, 8)
    for rep in fast:
        assert abs(rep.avg_moment - slow[rep.N - 1]) < 1e-10
        assert rep.measure_E == exc.measure
    with pytest.raises(ValueError, match="separable"):
        averaged_moment_rect(bare, [4.0], (8,))


def test_rect_tensor_spike_closed_form():
    f = corpus.spike(5, dim=2)
    [(reports, _)] = averaged_moment_rect(f, [16.0], (4, 8, 16))
    for rep in reports:
        assert abs(rep.full_torus_avg - (rep.N + 2) ** 2) < 1e-9
        assert rep.full_torus_avg >= rep.avg_moment - 1e-12


def test_rect_constant_curve():
    f = tensor(constant(1.0, 4), constant(1.0, 4))
    for rep in averaged_moment_rect(f, [2.0], (8,))[0][0]:
        assert rep.measure_E == 0
        assert abs(rep.avg_moment - 1.0) < 1e-12


def test_rect_measure_bound_uses_squared_dilation():
    f = k_spikes(5, 6, np.random.default_rng(urandom := 17), dim=2)
    exc = build_exceptional_set(decompose(f, 4.0), 5)
    assert exc.measure <= Fraction(25, 4)


# ---------------------------------------------------------------------------
# slab geometry


def test_slab_measure_matches_inclusion_exclusion_oracle():
    f = k_spikes(5, 4, np.random.default_rng(3), dim=2)
    cz = decompose(f, 4.0)
    exc = build_exceptional_set(cz, 5, geometry="slab")
    lens = [union_measure_oracle(axis_arcs(cz, 5, a)) for a in range(2)]
    assert exc.measure == 1 - (1 - lens[0]) * (1 - lens[1])
    assert exc.measure == Fraction(int(exc.mask.sum()), exc.mask.size)


def test_slab_contains_cube_set():
    f = k_spikes(5, 3, np.random.default_rng(11), dim=2)
    cz = decompose(f, 8.0)
    cube = build_exceptional_set(cz, 5, geometry="cube")
    slab = build_exceptional_set(cz, 5, geometry="slab")
    assert np.all(slab.mask >= cube.mask)
    assert slab.measure >= cube.measure


def test_slab_collapses_to_cube_in_1d():
    f = k_spikes(6, 3, np.random.default_rng(2))
    cz = decompose(f, 4.0)
    a = build_exceptional_set(cz, 5)
    b = build_exceptional_set(cz, 5, geometry="slab")
    assert np.array_equal(a.mask, b.mask)
    assert a.measure == b.measure


def test_build_rejects_unknown_geometry():
    f = corpus.spike(5, dim=2)
    with pytest.raises(ValueError):
        build_exceptional_set(decompose(f, 8.0), 5, geometry="ball")


def test_rect_slab_average_factorizes():
    # the slab complement is a product set, so the separable lattice
    # average must equal the product of two 1-d off-band averages
    f = corpus.spike(6, dim=2)
    cz = decompose(f, 16.0)
    [(_, reports)] = averaged_moment_rect(f, [16.0], (4, 8, 16))
    per_axis = [np.cumsum(off_arc_moments(f.factors[axis],
                                          axis_arcs(cz, 5, axis), 16, 1))
                for axis in range(2)]
    for rep in reports:
        N = rep.N
        want = (per_axis[0][N - 1] / N) * (per_axis[1][N - 1] / N)
        assert abs(rep.avg_moment - want) < 1e-9 * max(1.0, want)


def test_rect_cube_grows_where_slab_plateaus():
    # cross-bands of the cube complement carry partial-sum mass that
    # scales with the order; the slab complement removes them
    f = corpus.spike(6, dim=2)
    [(cube, slab)] = averaged_moment_rect(f, [32.0], (16, 32))
    cube_change = cube[1].avg_moment / cube[0].avg_moment - 1
    slab_change = abs(slab[1].avg_moment / slab[0].avg_moment - 1)
    assert cube_change > 0.5
    assert slab_change <= 0.15


# ---------------------------------------------------------------------------
# strong means


def test_strong_means_constant_is_zero():
    rep = strong_means_measure(constant(1.0, 6), [0.1], (4, 8, 16, 32))
    assert rep.measures == ((0.0, 0.0, 0.0, 0.0),)


def test_strong_means_matches_direct_recomputation():
    f = k_spikes(5, 3, np.random.default_rng(12))
    schedule = (4, 8, 16)
    eps_values = (0.5 * f.linf() ** 2, 0.25 * f.linf() ** 2)
    rep = strong_means_measure(f, eps_values, schedule)
    M = 1 << (f.J + 2)
    ref = spectral.saturated_sum(f, 2).samples
    R = np.zeros(M)
    P = np.zeros(M)
    weak = np.zeros(len(DEFAULT_LAM_GRID))
    want_measures = ([], [])
    for n in range(1, schedule[-1] + 1):
        Sn = spectral.partial_sum(f, n, 2).samples
        R += np.abs(Sn - ref) ** 2
        P += np.abs(Sn) ** 2
        if n in schedule:
            for want, eps in zip(want_measures, eps_values):
                want.append(np.count_nonzero(R / n > eps) / M)
            A = np.sqrt(P / n)
            for i, lam in enumerate(DEFAULT_LAM_GRID):
                weak[i] = max(weak[i], lam * (np.count_nonzero(A > lam) / M) / f.l1())
    assert want_measures[0] != want_measures[1]
    assert rep.eps == eps_values and len(rep.measures) == len(eps_values)
    # both sides count grid points over M
    assert rep.measures == tuple(map(tuple, want_measures))
    assert np.allclose(rep.weak_ratios, weak, atol=1e-9)


def test_strong_means_band_limited_poly_hits_zero():
    f = trig_poly(8, np.random.default_rng(14), 8)
    eps = 0.25 * f.linf() ** 2
    [measures] = strong_means_measure(f, [eps], (8, 16, 32, 64, 128)).measures
    assert measures[-1] == 0.0
    assert all(a >= b for a, b in zip(measures, measures[1:]))


def test_strong_means_rejects_aliased_schedule():
    with pytest.raises(AliasingError):
        strong_means_measure(corpus.spike(5), [1.0], (8, 64))


# ---------------------------------------------------------------------------
# density extraction


def density_oracle_1d(values, s, schedule):
    """Direct loop over the definitions; returns the membership mask."""
    size = len(values)
    dev = np.abs(values - s)
    msq = [float(np.mean(dev[:N] ** 2)) for N in schedule]
    ks, prev, m = [], -1, 1
    while True:
        k = next((i for i in range(prev + 1, len(schedule)) if msq[i] < m**-3), None)
        if k is None:
            break
        ks.append(k)
        prev, m = k, m + 1
    mask = np.zeros(size, dtype=bool)
    for m, kpos in enumerate(ks, start=1):
        lo = schedule[kpos]
        hi = schedule[ks[m]] if m < len(ks) else size
        for n in range(lo + 1, hi + 1):  # lattice index n at array slot n-1
            mask[n - 1] = dev[n - 1] < 1.0 / m
    return ks, mask


def streamed(values, s, schedule):
    """The streamed extractor on an array, through a slicing callable."""
    return density_subsequence(sliced(values), values.shape[0], values.ndim,
                               s, schedule)


def test_density_constant_values():
    size = 10_000
    values = np.full(size, 2.5)
    run = streamed(values, 2.5, (4, 16, 64, 256, 1024, 4096))
    assert run.density[-1] >= 0.999
    assert run.check_membership(sliced(values))
    assert run.density_floor_ok()


def test_density_quarter_power_matches_oracle():
    size = 100_000
    n = np.arange(1, size + 1)
    values = 1.0 + n**-0.25
    schedule = tuple(4**k for k in range(1, 9))
    run = streamed(values, 1.0, schedule)
    ks, mask = density_oracle_1d(values, 1.0, schedule)
    assert list(run.k_positions) == ks
    ref = density_reference(values, 1.0, schedule)
    assert np.array_equal(ref.mask, mask)
    assert run.kept == shell_counts(mask, run.shells)
    assert run.density[-1] >= 0.99
    assert run.check_membership(sliced(values))
    assert run.density_floor_ok()


def test_density_2d_radial():
    size = 200
    i = np.arange(1, size + 1)
    r = np.hypot(i[:, None], i[None, :])
    values = 3.0 + r**-0.5
    run = streamed(values, 3.0, (4, 16, 64, 200))
    assert run.dim == 2
    assert run.density[-1] >= 0.98
    assert run.check_membership(sliced(values))
    assert run.density_floor_ok()


def quarter_power(size, d, s=1.0):
    """s + |n|^(-1/4) on the whole lattice of side size."""
    i = np.arange(1, size + 1, dtype=float)
    radius = i if d == 1 else np.hypot(i[:, None], i[None, :])
    return s + radius ** -0.25


def on_thresholds(size, d):
    """Limit 0: a decaying base, and at indices whose coordinates are all
    squares k^2 the values 1/(1 + sum(k) % 7), which lie exactly on the
    shell thresholds 1/m, so every strict threshold test binds."""
    i = np.arange(1, size + 1, dtype=float)
    values = 1.0 / i if d == 1 else 1.0 / (i[:, None] ** 2 + i[None, :] ** 2)
    k = np.arange(1, math.isqrt(size) + 1)
    if d == 1:
        values[k**2 - 1] = 1.0 / (1 + k % 7)
    else:
        values[np.ix_(k**2 - 1, k**2 - 1)] = 1.0 / (1 + (k[:, None] + k) % 7)
    return values


@pytest.mark.parametrize("d,size,kind,schedule", [
    (1, 4096, "quarter", (4, 16, 64, 256, 1024, 4096)),
    (1, 5000, "quarter", (4, 16, 64, 256, 1024, 4096)),
    (1, 3000, "constant", (4, 16, 64, 256, 1024)),
    (1, 5000, "thresholds", (4, 16, 64, 256, 1024, 4096)),
    (2, 64, "quarter", (2, 4, 8, 16, 32, 64)),
    (2, 75, "quarter", (2, 4, 8, 16, 32, 64)),
    (2, 50, "constant", (2, 4, 8, 16, 32)),
    (2, 75, "thresholds", (2, 4, 8, 16, 32, 64)),
], ids=["1d-to-side", "1d-below-side", "1d-constant", "1d-thresholds",
        "2d-to-side", "2d-below-side", "2d-constant", "2d-thresholds"])
def test_density_stream_matches_whole_array(monkeypatch, d, size, kind,
                                            schedule):
    # blocks of 7 entries end off every shell, strip and row edge
    monkeypatch.setattr(estimates, "_SHELL_BLOCK", 7)
    s, values = {"quarter": lambda: (1.0, quarter_power(size, d)),
                 "constant": lambda: (2.5, np.full((size,) * d, 2.5)),
                 "thresholds": lambda: (0.0, on_thresholds(size, d))}[kind]()
    ref = density_reference(values, s, schedule)
    run = streamed(values, s, schedule)
    assert run.k_positions == ref.k_positions
    assert run.shells == ref.shells
    assert run.eval_points == ref.eval_points
    assert run.density == ref.density
    # the stream adds in the whole-array cumulative order, so the mean
    # squares agree bit for bit in both dimensions
    assert run.mean_square == ref.mean_square
    assert run.kept == shell_counts(ref.mask, ref.shells)
    assert run.check_membership(sliced(values))
    if kind == "thresholds":
        full = [hi**d - lo**d for _, lo, hi in run.shells]
        assert len(run.shells) >= 3 and run.kept != tuple(full)


def test_density_stream_scratch_is_block_sized():
    # each whole lattice below takes 8 MB as one float array
    for size, d, schedule in ((10**6, 1, tuple(4**k for k in range(1, 10))),
                              (1000, 2, (4, 16, 64, 256))):
        i = np.arange(1, size + 1, dtype=float)
        lattice = (sliced(1.0 + i**-0.25) if d == 1 else
                   lambda r0, r1, c0, c1: 1.0 + np.hypot(
                       i[r0:r1, None], i[None, c0:c1]) ** -0.25)
        tracemalloc.start()
        try:
            run = density_subsequence(lattice, size, d, 1.0, schedule)
            assert run.check_membership(lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (d, peak)


@pytest.mark.parametrize("d,size,schedule", [
    (1, 5000, (4, 16, 64, 256, 1024, 4096)),
    (2, 80, (2, 4, 8, 16, 32, 64)),
])
def test_density_membership_catches_one_changed_value(d, size, schedule):
    values = quarter_power(size, d)
    run = streamed(values, 1.0, schedule)
    assert run.check_membership(sliced(values))
    # the last slot of the final shell lies within 1/m of s; moved far
    # from s, it drops out of that shell's recount
    m, _, hi = run.shells[-1]
    last = (hi - 1,) * d
    assert abs(values[last] - 1.0) < 1.0 / m
    changed = values.copy()
    changed[last] = 11.0
    assert not run.check_membership(sliced(changed))


def test_density_infeasible_schedule():
    with pytest.raises(ScheduleInfeasibleError):
        streamed(np.full(100, 7.0), 0.0, (10, 100))


def test_density_rejects_bad_schedule():
    with pytest.raises(ValueError):
        streamed(np.zeros(10), 0.0, (4, 4))
    with pytest.raises(ValueError):
        streamed(np.zeros(10), 0.0, (4, 20))
