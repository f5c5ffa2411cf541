"""Covering-lemma geometry: components, hulls, chains.

Oracles here are pure-Fraction reimplementations: arcs as (lo, hi)
rational pairs on [0,1), touch via a three-shift circular gap, components
via transitive closure, hulls via complement-of-largest-gap on a merged
circular union.  The integer-array checks of `strongmeans.covering` are
compared against these exactly, and against the object-per-interval
references `dilated_components` and `cube_components` in oracles.py.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmeans.covering import (
    exhaustive_chain_scan,
    random_nonadjacent_cube_family,
    random_nonadjacent_family,
    verify_covering,
    verify_covering_cubes,
)
from strongmeans.dyadic import scale_for

from oracles import (
    NINE_EIGHTHS,
    DyadicCube,
    DyadicInterval,
    NonadjacentInputError,
    NotAChainError,
    ScaledInterval,
    adjacent,
    as_cubes,
    as_intervals,
    chain_check,
    covering_holds,
    cube_adjacent,
    cube_components,
    cube_covering_holds,
    cube_hulls,
    cube_statement_form_holds,
    cubes_disjoint,
    dilated_arc,
    dilated_components,
    fraction_dilate,
    intervals_disjoint,
    nonadjacent_cube_family,
    nonadjacent_family,
    statement_form_holds,
    torus_distance,
)

S = scale_for(14)


def components_of(check, families) -> list:
    """Per family, {sorted member tuple: hull per axis as (start, length)}
    from a batched covering check."""
    out, at = [], 0
    for fam in families:
        label = check.label[at:at + len(fam)]
        at += len(fam)
        out.append({
            tuple(np.flatnonzero(label == c).tolist()):
                tuple(tuple(int(v) for v in h) for h in check.hulls[c])
            for c in np.unique(label)})
    return out


# ---------------------------------------------------------------------------
# oracles

def arc_of(iv: DyadicInterval, factor) -> tuple:
    """Dilated arc of a dyadic interval as exact fractions (lo, hi), hi <= lo+1."""
    lo, hi = dilated_arc(iv.level, iv.index, factor)
    return (F(0), F(1)) if hi - lo == 1 else (lo % 1, lo % 1 + hi - lo)


def arcs_touch(a, b) -> bool:
    best = None
    for s in (-1, 0, 1):
        g = max(b[0] + s - a[1], a[0] - b[1] - s, 0)
        best = g if best is None else min(best, g)
    return best == 0


def closure_components(arcs):
    n = len(arcs)
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in range(n):
                if not seen[y] and arcs_touch(arcs[x], arcs[y]):
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return sorted(comps)


def circular_union_pieces(arcs):
    pieces = []
    for lo, hi in arcs:
        if hi <= 1:
            pieces.append((lo, hi))
        else:
            pieces.append((lo, F(1)))
            pieces.append((F(0), hi - 1))
    pieces.sort()
    merged = []
    for lo, hi in pieces:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def smallest_arc(arcs):
    """Oracle hull: (start, length) of the shortest arc containing the union."""
    segs = circular_union_pieces(arcs)
    total = sum(h - l for l, h in segs)
    if total >= 1:
        return (F(0), F(1))
    best_gap, at = F(-1), 0
    for i, (l, h) in enumerate(segs):
        nxt = segs[(i + 1) % len(segs)][0] + (1 if i + 1 == len(segs) else 0)
        if nxt - h > best_gap:
            best_gap, at = nxt - h, i
    lo = segs[(at + 1) % len(segs)][0]
    hi = segs[at][1]
    length = (hi - lo) % 1
    return (lo % 1, length if length else F(1))


def hull_as_fractions(h: ScaledInterval):
    return (F(h.lo, h.scale), F(h.length_units, h.scale))


# ---------------------------------------------------------------------------
# components: frozen cases

def test_two_separated_intervals_stay_separate():
    fam = dilated_components([DyadicInterval(1, 0), DyadicInterval(3, 6)])
    assert fam.components == [[0], [1]]
    # each hull is just the member's own dilate
    assert fam.hulls[0] == fam.dilates[0]
    assert fam.hulls[1] == fam.dilates[1]
    assert hull_as_fractions(fam.hulls[1]) == (F(95, 128), F(9, 64))
    check = verify_covering([np.array([[1, 0], [3, 6]])])
    assert components_of(check, [[0, 1]]) == [{
        (0,): ((fam.hulls[0].lo, fam.hulls[0].length_units),),
        (1,): ((fam.hulls[1].lo, fam.hulls[1].length_units),)}]


def test_touching_dilates_merge():
    # [0,1/4) dilates to [-1/64, 17/64); [17/64, 18/64) dilates to an arc
    # starting at 271/1024 < 272/1024 = 17/64, so the pair is connected.
    fam = dilated_components([DyadicInterval(2, 0), DyadicInterval(6, 17)])
    assert fam.components == [[0, 1]]
    lo, length = hull_as_fractions(fam.hulls[0])
    assert lo == F(-1, 64) % 1
    assert length == F(305, 1024)  # from -16/1024 up to 289/1024
    check = verify_covering([np.array([[2, 0], [6, 17]])])
    assert components_of(check, [[0, 1]]) == [
        {(0, 1): ((S - S // 64, 305 * S // 1024),)}]
    assert check.holds.tolist() == [True]


def test_wraparound_component_swallows_middle_arc():
    # factor-2 dilate of [3/4,1) wraps to [5/8, 9/8), reaching both the arc
    # around [1/32, 3/64) and the one around [3/32, 1/8): one component.
    family = [DyadicInterval(6, 2), DyadicInterval(5, 3), DyadicInterval(2, 3)]
    fam = dilated_components(family, factor=2)
    assert fam.components == [[0, 1, 2]]
    assert fam.hulls[0] == ScaledInterval(5 * S // 8, 5 * S // 8 + 33 * S // 64, S)


def test_full_cover_collapses_to_one_component():
    family = [DyadicInterval(1, 0), DyadicInterval(1, 1)]
    with pytest.raises(NonadjacentInputError):
        dilated_components(family)
    # nonadjacent full-ish cover: factor 2 on opposite quarters covers all
    fam = dilated_components([DyadicInterval(2, 0), DyadicInterval(2, 2)], factor=2)
    assert fam.components == [[0, 1]]
    assert fam.hulls[0] == ScaledInterval(0, S, S)
    # at 9/8 only the whole torus covers the circle: one full hull
    check = verify_covering([np.array([[0, 0]]), np.array([[1, 0]])])
    assert check.components.tolist() == [1, 1]
    assert check.hulls[0].tolist() == [[0, S]]
    assert check.holds.tolist() == [True, True]


def test_adjacent_input_rejected():
    with pytest.raises(NonadjacentInputError):
        dilated_components([DyadicInterval(2, 0), DyadicInterval(2, 1)])
    with pytest.raises(NonadjacentInputError):
        dilated_components([DyadicInterval(3, 0), DyadicInterval(2, 0)])  # nested


# ---------------------------------------------------------------------------
# components and hulls: randomized against the Fraction oracle

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([F(9, 8), F(2), F(3)]))
def test_components_match_transitive_closure(seed, factor):
    rng = np.random.default_rng(seed)
    rows = random_nonadjacent_family(rng, max_level=9, max_count=24)
    family = as_intervals(rows)
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            assert intervals_disjoint(a, b)
            assert not adjacent(a, b)
    arcs = [arc_of(iv, factor) for iv in family]
    fam = dilated_components(family, factor=factor)
    assert sorted(fam.components) == closure_components(arcs)
    for members, hull in zip(fam.components, fam.hulls):
        want = smallest_arc([arcs[i] for i in members])
        assert hull_as_fractions(hull) == want
    if factor == F(9, 8):
        check = verify_covering([rows])
        got = components_of(check, [rows])[0]
        assert sorted(got) == [tuple(c) for c in closure_components(arcs)]
        for members, hull in got.items():
            start, length = hull[0]
            assert (F(start, S), F(length, S)) == smallest_arc(
                [arcs[i] for i in members])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_validate_flag_does_not_change_result(seed):
    rng = np.random.default_rng(seed)
    family = as_intervals(random_nonadjacent_family(rng, max_level=10, max_count=32))
    a = dilated_components(family)
    b = dilated_components(family, validate=False)
    assert a.components == b.components and a.hulls == b.hulls


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_covering_holds_on_random_families(seed):
    rng = np.random.default_rng(seed)
    family = random_nonadjacent_family(rng, max_level=12, max_count=48)
    check = verify_covering([family])
    assert check.holds.tolist() == [True]
    assert statement_form_holds(as_intervals(family))


@pytest.mark.parametrize("seed", range(4))
def test_family_generators_read_the_stream_one_uniform_at_a_time(seed):
    """The batched uniforms give the families and the final generator
    state of one uniform per node and per kept tile, 1-d and 2-d
    families drawn from one stream as the covering suite draws them."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for draw, want, count in ((random_nonadjacent_family, nonadjacent_family, 2000),
                              (random_nonadjacent_cube_family, nonadjacent_cube_family, 200)):
        for _ in range(count):
            assert np.array_equal(draw(rng), want(ref))
    assert rng.bit_generator.state == ref.bit_generator.state
    # trees cut short by the level cap, and by a small budget
    for max_level, max_count in ((3, 64), (12, 3)):
        for draw, want in ((random_nonadjacent_family, nonadjacent_family),
                           (random_nonadjacent_cube_family, nonadjacent_cube_family)):
            for _ in range(50):
                assert np.array_equal(draw(rng, max_level, max_count),
                                      want(ref, max_level, max_count))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("max_level", [1, 14])
def test_family_generators_match_the_references_at_extreme_levels(max_level):
    """The tiling walk at the coarsest and the finest level a config
    allows: at 14 a cube tile's Morton code has 28 bits, all of which
    the de-interleaving must place."""
    rng, ref = np.random.default_rng(max_level), np.random.default_rng(max_level)
    for _ in range(100):
        assert np.array_equal(random_nonadjacent_family(rng, max_level),
                              nonadjacent_family(ref, max_level))
        assert np.array_equal(random_nonadjacent_cube_family(rng, max_level),
                              nonadjacent_cube_family(ref, max_level))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_integer_components_match_reference():
    """Batched integer components, hulls and verdicts against the
    object-per-interval reference, family by family."""
    rng = np.random.default_rng(41)
    for max_level, j_max in ((12, 12), (9, 14)):
        fams = [random_nonadjacent_family(rng, max_level=max_level)
                for _ in range(300)]
        check = verify_covering(fams, j_max=j_max)
        for fam, got, holds in zip(fams, components_of(check, fams), check.holds):
            ref = dilated_components(as_intervals(fam), j_max=j_max, validate=False)
            assert got == {tuple(m): ((h.lo, h.length_units),)
                           for m, h in zip(ref.components, ref.hulls)}
            assert holds == covering_holds(as_intervals(fam), j_max)


def test_integer_cube_components_match_reference():
    rng = np.random.default_rng(43)
    for max_level, j_max in ((7, 7), (6, 14)):
        fams = [random_nonadjacent_cube_family(rng, max_level=max_level)
                for _ in range(80)]
        check = verify_covering_cubes(fams, j_max=j_max)
        for fam, got, holds in zip(fams, components_of(check, fams), check.holds):
            _, _, comps, hulls = cube_hulls(as_cubes(fam), j_max)
            assert got == {tuple(m): tuple((a.lo, a.length_units) for a in h.axes)
                           for m, h in zip(comps, hulls)}
            assert holds == cube_covering_holds(as_cubes(fam), j_max)


def test_empty_families_hold_with_no_components():
    """An empty family, anywhere in the batch, holds, has no components
    and leaves the other families' labels and hulls as they are; an
    empty batch gives empty results.  The whole-torus family [(0, 0)]
    follows an empty one, so its circle is not the one its id names."""
    rng = np.random.default_rng(47)
    fams = [np.array([[0, 0]])] + [random_nonadjacent_family(rng) for _ in range(5)]
    cubes = [np.array([[0, 0, 0]])] + [random_nonadjacent_cube_family(rng)
                                       for _ in range(4)]
    for verify, batch, width in ((verify_covering, fams, 2),
                                 (verify_covering_cubes, cubes, 3)):
        empty = np.empty((0, width), dtype=np.int64)
        ref = verify(batch)
        got = verify([empty, *batch[:2], empty, *batch[2:], empty])
        empties = [0, 3, len(batch) + 2]
        rest = np.setdiff1d(np.arange(len(batch) + 3), empties)
        assert np.array_equal(got.holds[rest], ref.holds)
        assert np.array_equal(got.components[rest], ref.components)
        assert got.holds[empties].all() and not got.components[empties].any()
        assert np.array_equal(got.label, ref.label)
        assert np.array_equal(got.hulls, ref.hulls)
        none = verify([])
        assert len(none.holds) == len(none.components) == len(none.label) == 0


def test_statement_form_holds_on_generated_families():
    """The lemma as stated, hull inside 4 times a largest original
    member, on the generators' families at the suite's levels."""
    rng = np.random.default_rng(47)
    for _ in range(200):
        assert statement_form_holds(as_intervals(random_nonadjacent_family(rng)), 12)
    for _ in range(60):
        assert cube_statement_form_holds(as_cubes(random_nonadjacent_cube_family(rng)), 7)


# ---------------------------------------------------------------------------
# chains

def test_chain_bridge_is_longer_than_smaller_outer():
    # tiny [445/1024, 446/1024) bridged to [1/2,1) through [14/32, 15/32)
    i1 = DyadicInterval(10, 445)
    i2 = DyadicInterval(5, 14)
    i3 = DyadicInterval(1, 1)
    assert chain_check(i1, i2, i3) is True


def test_chain_rejects_adjacent_members():
    with pytest.raises(NotAChainError):
        chain_check(DyadicInterval(3, 0), DyadicInterval(3, 1), DyadicInterval(3, 4))


def test_chain_rejects_touching_outer_dilates():
    with pytest.raises(NotAChainError, match="outer"):
        chain_check(DyadicInterval(2, 0), DyadicInterval(4, 8), DyadicInterval(6, 17))


def test_chain_rejects_non_bridging_middle():
    with pytest.raises(NotAChainError, match="bridge"):
        chain_check(DyadicInterval(3, 0), DyadicInterval(4, 9), DyadicInterval(3, 2))


def _brute_chain_counts(max_level):
    ivs = [
        DyadicInterval(j, k)
        for j in range(1, max_level + 1)
        for k in range(1 << j)
    ]
    # chain_check's preconditions are all pairwise, so each pair is tested
    # once: a triple failing one of them is never a chain
    apart = [[x is not y and intervals_disjoint(x, y) and not adjacent(x, y)
              for y in ivs] for x in ivs]
    dil = [fraction_dilate(iv, NINE_EIGHTHS) for iv in ivs]
    touch = [[torus_distance(x, y) == 0 for y in dil] for x in dil]
    chains = violations = 0
    for a in range(len(ivs)):
        for b in range(a + 1, len(ivs)):
            if not apart[a][b] or touch[a][b]:  # outer dilates must be apart
                continue
            for m in range(len(ivs)):
                if not (apart[a][m] and apart[m][b]
                        and touch[m][a] and touch[m][b]):  # middle bridges
                    continue
                try:
                    ok = chain_check(ivs[a], ivs[m], ivs[b])
                except NotAChainError:
                    continue
                chains += 1
                violations += not ok
    return chains, violations


@pytest.mark.parametrize("level", [3, 4, 5])
def test_exhaustive_scan_matches_brute_force(level):
    scan = exhaustive_chain_scan(level)
    chains, violations = _brute_chain_counts(level)
    assert scan.chains == chains
    assert len(scan.violations) == violations == 0


def test_chains_exist_once_scales_are_mixed():
    assert exhaustive_chain_scan(4).chains == 0
    assert exhaustive_chain_scan(5).chains > 0


# ---------------------------------------------------------------------------
# cubes

def _cube(level, i, j):
    return DyadicCube((DyadicInterval(level, i), DyadicInterval(level, j)))


def test_diagonal_contact_connects_cubes():
    fam, dil, comps = cube_components([_cube(2, 0, 0), _cube(6, 17, 17)])
    assert comps == [[0, 1]]
    check = verify_covering_cubes([np.array([[2, 0, 0], [6, 17, 17]])])
    assert check.label.tolist() == [0, 0]


def test_single_axis_contact_is_not_enough():
    # x-projections touch, y-projections are far apart
    fam, dil, comps = cube_components([_cube(2, 0, 0), _cube(6, 17, 40)])
    assert comps == [[0], [1]]
    check = verify_covering_cubes([np.array([[2, 0, 0], [6, 17, 40]])])
    assert check.label.tolist() == [0, 1]


def test_cube_covering_frozen_pair():
    check = verify_covering_cubes([np.array([[4, 0, 0], [8, 17, 17]])])
    assert check.components.tolist() == [1]
    assert check.holds.tolist() == [True]
    assert cube_statement_form_holds([_cube(4, 0, 0), _cube(8, 17, 17)])


def test_cube_components_reject_overlap():
    with pytest.raises(NonadjacentInputError):
        cube_components([_cube(1, 0, 0), _cube(2, 1, 1)])  # nested
    with pytest.raises(NonadjacentInputError):
        cube_components([_cube(2, 0, 0), _cube(2, 1, 1)])  # corner contact


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cube_components_match_closure(seed):
    rng = np.random.default_rng(seed)
    rows = random_nonadjacent_cube_family(rng, max_level=6, max_count=18)
    family = as_cubes(rows)
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            assert cubes_disjoint(a, b)
            assert not cube_adjacent(a, b)
    ax_arcs = [[arc_of(iv, F(9, 8)) for iv in q.axes] for q in family]

    def boxes_touch(i, j):
        return all(arcs_touch(a, b) for a, b in zip(ax_arcs[i], ax_arcs[j]))

    n = len(family)
    seen = [False] * n
    want = []
    for i in range(n):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in range(n):
                if not seen[y] and boxes_touch(x, y):
                    seen[y] = True
                    stack.append(y)
        want.append(sorted(comp))
    fam, dil, comps = cube_components(family)
    assert comps == sorted(want)
    got = components_of(verify_covering_cubes([rows]), [rows])[0]
    assert sorted(got) == [tuple(c) for c in sorted(want)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cube_covering_holds_on_random_families(seed):
    rng = np.random.default_rng(seed)
    family = random_nonadjacent_cube_family(rng, max_level=7, max_count=30)
    assert verify_covering_cubes([family]).holds.tolist() == [True]
    assert cube_statement_form_holds(as_cubes(family))


# ---------------------------------------------------------------------------
# random family generators keep their promises

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_interval_generator_respects_bounds(seed):
    rng = np.random.default_rng(seed)
    family = random_nonadjacent_family(rng, max_level=12, max_count=64)
    assert family.shape[1] == 2
    assert 1 <= len(family) <= 64
    assert np.all(family[:, 0] <= 12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_cube_generator_respects_bounds(seed):
    rng = np.random.default_rng(seed)
    family = random_nonadjacent_cube_family(rng, max_level=7, max_count=40)
    assert family.shape[1] == 3
    assert 1 <= len(family) <= 40
    assert np.all(family[:, 0] <= 7)
