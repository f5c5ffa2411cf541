"""Exactness tests for the dyadic geometry core.

Oracles here are deliberately independent of the library code paths:
rational interval arithmetic with fractions.Fraction, brute-force
unit-grid point sets for distances, and slice-by-slice marking for
union bitmaps.  The library works on integer rows; `dilate` below
wraps its one dilation, the covering lemma's 9/8-dilate `dilate_units`,
into the oracles' arc objects.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strongmeans.dyadic import (
    DEFAULT_J_MAX,
    ResolutionExceededError,
    dilate_units,
    scale_for,
    union_mask,
)

from oracles import (
    NINE_EIGHTHS,
    DyadicCube,
    DyadicInterval,
    OverlapError,
    ScaledInterval,
    adjacent,
    cube_adjacent,
    cubes_disjoint,
    dilate_box,
    dilate_cube,
    dilate_scaled,
    dilated_arc,
    fraction_dilate,
    interval_to_scaled,
    intervals_disjoint,
    merged_segments,
    sliced_mask,
    torus_distance,
)


# --------------------------------------------------------------- oracles

def dilate(iv: DyadicInterval, j_max: int = DEFAULT_J_MAX) -> ScaledInterval:
    """`dilate_units` on one interval, as an arc object."""
    lo, length = dilate_units(iv.level, iv.index, j_max)
    return ScaledInterval(int(lo), int(lo + length), scale_for(j_max))


def oracle_union_measure(frac_arcs) -> Fraction:
    """Union measure of [lo, hi) mod 1 arcs, pure Fraction sweep."""
    segs = []
    for lo, hi in frac_arcs:
        lo %= 1
        length = min(hi - lo if hi >= lo else hi - lo, Fraction(1))
        hi = lo + length
        if hi <= 1:
            segs.append((lo, hi))
        else:
            segs.append((lo, Fraction(1)))
            segs.append((Fraction(0), hi - 1))
    segs.sort()
    total = Fraction(0)
    cur_lo, cur_hi = None, None
    for lo, hi in segs:
        if cur_lo is None:
            cur_lo, cur_hi = lo, hi
        elif lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return min(total, Fraction(1))


def union_measure(arcs) -> Fraction:
    """Union measure from the library's merged linear segments."""
    arcs = list(arcs)
    if not arcs:
        return Fraction(0)
    return Fraction(sum(hi - lo for lo, hi in merged_segments(arcs)), arcs[0].scale)


def scaled_to_frac(arc: ScaledInterval) -> tuple[Fraction, Fraction]:
    return Fraction(arc.lo, arc.scale), Fraction(arc.hi, arc.scale)


# --------------------------------------------------------------- dilation

def test_dilate_nine_eighths_frozen():
    # oracle: [3/4, 7/8) has midpoint 13/16, half-width 9/128
    iv = DyadicInterval(3, 6)
    lo, hi = dilated_arc(3, 6, Fraction(9, 8))
    assert (lo, hi) == (Fraction(95, 128), Fraction(113, 128))
    arc = dilate(iv)
    assert scaled_to_frac(arc) == (Fraction(95, 128), Fraction(113, 128))


def test_dilate_wraparound_is_single_arc():
    arc = dilate(DyadicInterval(3, 0))  # 9/8*[0,1/8) = [-1/128, 17/128)
    lo, hi = scaled_to_frac(arc)
    assert lo == Fraction(127, 128)
    assert hi == Fraction(127, 128) + Fraction(9, 64)
    assert arc.hi > arc.scale  # wraps, not split
    assert arc.measure == Fraction(9, 64)


def test_dilate_caps_at_full_torus_and_keeps_midpoint():
    iv = DyadicInterval(0, 0)  # measure 1, 9/8x would be 9/8
    arc = dilate(iv)
    assert arc.measure == Fraction(1)
    assert arc.midpoint == iv.midpoint


@pytest.mark.parametrize("j_max", [4, DEFAULT_J_MAX])
def test_dilate_integer_table_matches_fraction_reference(j_max):
    """Every level up to j_max, the first, a middle and the last index:
    the integer 9/8-dilate against Fraction arithmetic, one interval at
    a time and as arrays."""
    cells = [(j, k) for j in range(j_max + 1)
             for k in sorted({0, (1 << j) // 3, (1 << j) - 1})]
    level = np.array([j for j, _ in cells])
    index = np.array([k for _, k in cells])
    lo, length = dilate_units(level, index, j_max)
    for (j, k), a, n in zip(cells, lo.tolist(), length.tolist()):
        ref = fraction_dilate(DyadicInterval(j, k), NINE_EIGHTHS, j_max)
        assert (a, a + n) == (ref.lo, ref.hi), (j, k)
        assert dilate(DyadicInterval(j, k), j_max) == ref


def test_dilate_rejects_level_beyond_cap():
    with pytest.raises(ResolutionExceededError):
        dilate(DyadicInterval(15, 0), j_max=14)


@given(
    level=st.integers(min_value=0, max_value=DEFAULT_J_MAX),
    idx_seed=st.integers(min_value=0, max_value=2**32),
)
def test_dilate_measure_and_midpoint(level, idx_seed):
    iv = DyadicInterval(level, idx_seed % (1 << level))
    arc = dilate(iv)
    assert arc.measure == min(Fraction(1), NINE_EIGHTHS * iv.measure)
    assert arc.midpoint == iv.midpoint % 1


def test_dilate_scaled_composition():
    # 4 * (9/8 * I) has length (9/2) * |I| and the same midpoint
    iv = DyadicInterval(5, 17)
    inner = dilate(iv)
    outer = dilate_scaled(inner, 4)
    direct = fraction_dilate(iv, Fraction(9, 2))
    assert (outer.lo, outer.hi) == (direct.lo, direct.hi)


# --------------------------------------------------------------- distance

def test_distance_of_dilates_frozen():
    # 9/8-dilates of [0,1/8) and [1/4,3/8): [-1/128,17/128), [31/128,49/128)
    a = dilate(DyadicInterval(3, 0))
    b = dilate(DyadicInterval(3, 2))
    assert torus_distance(a, b) == Fraction(7, 64)
    assert torus_distance(b, a) == Fraction(7, 64)


def test_distance_zero_iff_touching():
    S = scale_for()
    a = ScaledInterval(0, S // 4, S)
    b = ScaledInterval(S // 4, S // 2, S)  # touches a at 1/4
    assert torus_distance(a, b) == 0
    c = ScaledInterval(S // 2, 3 * S // 4, S)
    assert torus_distance(a, c) == Fraction(1, 4)


def test_distance_wraparound():
    S = scale_for()
    a = ScaledInterval(S - S // 16, S + S // 16, S)  # [15/16, 17/16) wraps
    b = ScaledInterval(S // 8, S // 4, S)
    assert torus_distance(a, b) == Fraction(1, 16)


@given(st.data())
def test_distance_symmetric_and_matches_point_oracle(data):
    S = 256
    def arc(d):
        lo = d.draw(st.integers(min_value=0, max_value=S - 1))
        ln = d.draw(st.integers(min_value=1, max_value=S))
        return ScaledInterval(lo, lo + ln, S)
    a, b = arc(data), arc(data)
    dist = torus_distance(a, b)
    assert dist == torus_distance(b, a)
    # point oracle on the unit grid, over every pair of unit cells
    pts_a, pts_b = (np.concatenate([np.arange(lo, hi) for lo, hi in arc.segments()]) % S
                    for arc in (a, b))
    d0 = np.abs(pts_a[:, None] - pts_b[None, :])
    best = max(0, int(np.minimum(d0, S - d0).min()) - 1)  # cells are [x, x+1), sets touch at d0=1
    assert dist == Fraction(best, S)


# --------------------------------------------------------------- adjacency

def test_adjacent_basic_and_wraparound():
    assert adjacent(DyadicInterval(1, 0), DyadicInterval(2, 2)) is True
    assert adjacent(DyadicInterval(3, 7), DyadicInterval(3, 0)) is True  # across 0
    assert adjacent(DyadicInterval(2, 0), DyadicInterval(2, 2)) is False


def test_adjacent_rejects_overlap():
    with pytest.raises(OverlapError):
        adjacent(DyadicInterval(1, 0), DyadicInterval(2, 1))


@given(
    j1=st.integers(min_value=1, max_value=8),
    k1=st.integers(min_value=0, max_value=2**32),
    j2=st.integers(min_value=1, max_value=8),
    k2=st.integers(min_value=0, max_value=2**32),
)
def test_adjacent_iff_distance_zero(j1, k1, j2, k2):
    a = DyadicInterval(j1, k1 % (1 << j1))
    b = DyadicInterval(j2, k2 % (1 << j2))
    if not intervals_disjoint(a, b):
        return
    d = torus_distance(interval_to_scaled(a), interval_to_scaled(b))
    assert adjacent(a, b) == (d == 0)


# --------------------------------------------------------------- unions

def test_union_measure_frozen_example():
    # 9/8*[0,1/2) and 9/8*[1/2,1) jointly cover the torus
    arcs = [dilate(DyadicInterval(1, 0)), dilate(DyadicInterval(1, 1))]
    assert union_measure(arcs) == Fraction(1)
    frac_arcs = [scaled_to_frac(a) for a in arcs]
    assert oracle_union_measure(frac_arcs) == Fraction(1)


def test_union_measure_disjoint_sum():
    arcs = [
        interval_to_scaled(DyadicInterval(3, 0)),
        interval_to_scaled(DyadicInterval(3, 4)),
    ]
    assert union_measure(arcs) == Fraction(1, 4)


@given(st.data())
@settings(max_examples=200)
def test_union_measure_matches_fraction_oracle(data):
    S = scale_for(6)
    n = data.draw(st.integers(min_value=0, max_value=8))
    arcs = []
    for _ in range(n):
        lo = data.draw(st.integers(min_value=0, max_value=S - 1))
        ln = data.draw(st.integers(min_value=1, max_value=S))
        arcs.append(ScaledInterval(lo, lo + ln, S))
    got = union_measure(arcs)
    want = oracle_union_measure([scaled_to_frac(a) for a in arcs])
    assert got == want
    # monotone under adding one more arc
    extra = ScaledInterval(0, S // 2, S)
    assert union_measure(arcs + [extra]) >= got
    # permutation invariant
    assert union_measure(list(reversed(arcs))) == got


# --------------------------------------------------------------- cubes

def test_cube_adjacency_includes_corners():
    a = DyadicCube((DyadicInterval(2, 0), DyadicInterval(2, 0)))
    b = DyadicCube((DyadicInterval(2, 1), DyadicInterval(2, 1)))  # corner touch
    c = DyadicCube((DyadicInterval(2, 2), DyadicInterval(2, 0)))  # gap in x
    assert cube_adjacent(a, b) is True
    assert cube_adjacent(a, c) is False
    assert cubes_disjoint(a, b)


def test_cube_dilate_measure():
    q = DyadicCube((DyadicInterval(3, 0), DyadicInterval(3, 4)))
    box = dilate_cube(q, 3)
    assert box.measure == Fraction(9, 64)


def test_dilate_box_composition():
    q = DyadicCube((DyadicInterval(4, 3), DyadicInterval(4, 9)))
    inner = dilate_cube(q, Fraction(9, 8))
    outer = dilate_box(inner, 4)
    direct = dilate_cube(q, Fraction(9, 2))
    assert outer == direct


# --------------------------------------------------------------- bitmaps

@given(st.data())
@settings(max_examples=100)
def test_union_mask_matches_slicing(data):
    S = 64
    d = data.draw(st.sampled_from([1, 2]))
    k = data.draw(st.integers(min_value=0, max_value=6))
    lo = np.array([[data.draw(st.integers(0, S - 1)) for _ in range(d)]
                   for _ in range(k)], dtype=np.int64).reshape(k, d)
    length = np.array([[data.draw(st.integers(1, S)) for _ in range(d)]
                       for _ in range(k)], dtype=np.int64).reshape(k, d)
    boxes = [[ScaledInterval(int(a), int(a + n), S) for a, n in zip(r, m)]
             for r, m in zip(lo, length)]
    assert np.array_equal(union_mask(lo, length, S), sliced_mask(boxes, S, d))


@pytest.mark.parametrize("d, J", [(1, 12), (2, 7)])
def test_union_mask_matches_slicing_on_the_sample_grid(d, J):
    """Odd dilates of dyadic cells at the sample-grid sizes of the
    exceptional sets, S = 2**J, as `estimates.build_exceptional_set`
    makes them: some arcs wrap past 1 and the level-0 cell spans the
    torus."""
    S = 1 << J
    rng = np.random.default_rng(J)
    level = np.concatenate(([[0], [J - 3]], rng.integers(1, J + 1, (38, 1))))
    w = S >> level
    index = rng.integers(0, S, (len(level), d)) // w
    index[1] = 0  # its 5-dilate starts two cells before 0
    c = rng.choice([1, 3, 5], (len(level), 1))
    c[1] = 5
    lo, length = (index - c // 2) * w % S, np.minimum(c * w, S)
    arcs = np.broadcast_to(length, lo.shape)
    assert (arcs == S).any() and (lo + arcs > S).any()
    boxes = [[ScaledInterval(int(a), int(a + n), S) for a, n in zip(r, m)]
             for r, m in zip(lo, arcs)]
    assert np.array_equal(union_mask(lo, length, S), sliced_mask(boxes, S, d))


def test_union_mask_wrapping_and_full_arcs():
    S = 16
    # [12, 20) wraps to [12, 16) and [0, 4); a full arc from 5 covers all
    assert np.flatnonzero(union_mask([[12]], 8, S)).tolist() == [0, 1, 2, 3, 12, 13, 14, 15]
    assert union_mask([[5]], S, S).all()
    assert not union_mask(np.empty((0, 2), dtype=np.int64), 1, S).any()
