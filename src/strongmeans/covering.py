"""Dilation covering geometry for families of disjoint dyadic intervals.

Given a family G of pairwise disjoint, pairwise nonadjacent dyadic
intervals, the 9/8-dilates can merge into connected components, but each
component stays inside the 4-fold dilate of its largest member (which is
the 9/2-dilate of the largest original).  This module computes the
components exactly, checks that containment, and checks the chain
property: whenever the dilate of a middle interval bridges two outer
dilates that are themselves separated, the bridge is strictly longer
than the smaller outer dilate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dyadic import (
    DEFAULT_J_MAX,
    DyadicCube,
    DyadicInterval,
    ScaledBox,
    ScaledInterval,
    adjacent,
    cube_adjacent,
    cubes_disjoint,
    dilate,
    dilate_box,
    dilate_cube,
    dilate_scaled,
    gap_units,
    intervals_disjoint,
    merged_segments,
)

NINE_EIGHTHS = Fraction(9, 8)


class NonadjacentInputError(ValueError):
    """Family members must be pairwise disjoint and nonadjacent."""


def _validate_family(family, j_max):
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if not intervals_disjoint(a, b):
                raise NonadjacentInputError(f"{a} and {b} overlap")
            if adjacent(a, b, j_max):
                raise NonadjacentInputError(f"{a} and {b} are adjacent")


@dataclass
class DilatedFamily:
    """A nonadjacent family, its dilates, and their connected components."""

    originals: list
    dilates: list
    factor: Fraction
    components: list = field(default_factory=list)  # lists of member indices
    hulls: list = field(default_factory=list)  # ScaledInterval per component


def dilated_components(
    family,
    factor=NINE_EIGHTHS,
    j_max: int = DEFAULT_J_MAX,
    validate: bool = True,
) -> DilatedFamily:
    """Connected components of the union of dilated arcs.

    Touching arcs count as connected: [a,b) followed by [b,c) unions to
    the single arc [a,c).  Pass validate=False only when the caller
    guarantees the disjoint/nonadjacent preconditions by construction.
    """
    family = list(family)
    if validate:
        _validate_family(family, j_max)
    dil = [dilate(iv, factor, j_max) for iv in family]
    fam = DilatedFamily(originals=family, dilates=dil, factor=Fraction(factor))
    if not family:
        return fam
    S = dil[0].scale
    segs = merged_segments(dil)
    total = sum(hi - lo for lo, hi in segs)
    if total >= S:
        fam.components.append(sorted(range(len(dil))))
        fam.hulls.append(ScaledInterval(0, S, S))
        return fam
    # Cut the circle at an uncovered point, then a linear sweep suffices:
    # no rotated arc can cross the cut.
    cut = 0
    for i, (lo, hi) in enumerate(segs):
        nxt = segs[(i + 1) % len(segs)][0] + (S if i + 1 == len(segs) else 0)
        if nxt - hi > 0:
            cut = hi % S
            break
    order = sorted(range(len(dil)), key=lambda i: (dil[i].lo - cut) % S)
    comps = []
    cur_members, cur_lo, cur_hi = [], 0, -1
    for i in order:
        lo = (dil[i].lo - cut) % S
        hi = lo + dil[i].length_units
        if cur_members and lo <= cur_hi:
            cur_members.append(i)
            cur_hi = max(cur_hi, hi)
        else:
            if cur_members:
                comps.append((cur_members, cur_lo, cur_hi))
            cur_members, cur_lo, cur_hi = [i], lo, hi
    comps.append((cur_members, cur_lo, cur_hi))
    comps.sort(key=lambda c: min(c[0]))
    for members, lo, hi in comps:
        start = (lo + cut) % S
        fam.components.append(sorted(members))
        fam.hulls.append(ScaledInterval(start, start + (hi - lo), S))
    return fam


@dataclass
class ChainScan:
    """Exhaustive scan of all chain triples among dyadic intervals."""

    max_level: int
    intervals: int
    outer_pairs: int
    chains: int
    violations: list  # (i1, i2, i3) DyadicInterval triples


def exhaustive_chain_scan(max_level: int, factor=NINE_EIGHTHS) -> ChainScan:
    """Check the bridge-length property for every chain up to max_level.

    Enumerates all dyadic intervals of levels 1..max_level, finds every
    triple satisfying the chain preconditions, and records violations of
    |I2*| > min(|I1*|, |I3*|).  Vectorized over the middle interval.
    """
    ivs = [
        DyadicInterval(j, k)
        for j in range(1, max_level + 1)
        for k in range(1 << j)
    ]
    n = len(ivs)
    j_max = max(max_level, 4)
    dil = [dilate(iv, factor, j_max) for iv in ivs]
    S = dil[0].scale
    shift = [S >> iv.level for iv in ivs]
    lo_o = np.array([iv.index * s for iv, s in zip(ivs, shift)], dtype=np.int64)
    hi_o = lo_o + np.array(shift, dtype=np.int64)
    lo_d = np.array([d.lo for d in dil], dtype=np.int64)
    hi_d = np.array([d.hi for d in dil], dtype=np.int64)
    len_d = hi_d - lo_d

    contains = (lo_o[:, None] <= lo_o[None, :]) & (hi_o[None, :] <= hi_o[:, None])
    disjoint = ~(contains | contains.T)
    adj = (hi_o[:, None] % S == lo_o[None, :]) | (hi_o[None, :] % S == lo_o[:, None])
    valid_pair = disjoint & ~adj

    gap = None
    for s in (-S, 0, S):
        cand = np.maximum(lo_d[None, :] + s - hi_d[:, None], lo_d[:, None] - hi_d[None, :] - s)
        np.maximum(cand, 0, out=cand)
        gap = cand if gap is None else np.minimum(gap, cand)
    touch_d = gap == 0
    sep_d = gap > 0

    outer_pairs = chains = 0
    violations = []
    for a in range(n):
        row = valid_pair[a] & sep_d[a]
        for b in range(a + 1, n):
            if not row[b]:
                continue
            outer_pairs += 1
            mids = valid_pair[:, a] & valid_pair[:, b] & touch_d[:, a] & touch_d[:, b]
            idx = np.nonzero(mids)[0]
            chains += len(idx)
            thresh = min(len_d[a], len_d[b])
            for m in idx[len_d[idx] <= thresh]:
                violations.append((ivs[a], ivs[int(m)], ivs[b]))
    return ChainScan(
        max_level=max_level,
        intervals=n,
        outer_pairs=outer_pairs,
        chains=chains,
        violations=violations,
    )


@dataclass
class CoveringReport:
    holds: bool  # every component hull inside 4 * (largest dilated member)
    statement_form_holds: bool  # hull inside 4 * (largest original member)
    components: int
    witnesses: list  # (component index, hull) for proof-form failures


def verify_covering(
    family,
    factor=NINE_EIGHTHS,
    j_max: int = DEFAULT_J_MAX,
    validate: bool = True,
) -> CoveringReport:
    fam = dilated_components(family, factor, j_max, validate=validate)
    holds, literal = True, True
    witnesses = []
    for ci, members in enumerate(fam.components):
        hull = fam.hulls[ci]
        best = max(fam.dilates[i].length_units for i in members)
        largest = [i for i in members if fam.dilates[i].length_units == best]
        if not any(dilate_scaled(fam.dilates[i], 4).contains_arc(hull) for i in largest):
            holds = False
            witnesses.append((ci, hull))
        if not any(
            dilate(fam.originals[i], 4, j_max).contains_arc(hull) for i in largest
        ):
            literal = False
    return CoveringReport(
        holds=holds,
        statement_form_holds=literal,
        components=len(fam.components),
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# cubes

def _validate_cube_family(family, j_max):
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if not cubes_disjoint(a, b):
                raise NonadjacentInputError(f"{a} and {b} overlap")
            if cube_adjacent(a, b, j_max):
                raise NonadjacentInputError(f"{a} and {b} are adjacent")


def _smallest_covering_arc(arcs) -> ScaledInterval:
    """Shortest arc containing the union: complement of the largest gap."""
    S = arcs[0].scale
    segs = merged_segments(arcs)
    total = sum(hi - lo for lo, hi in segs)
    if total >= S:
        return ScaledInterval(0, S, S)
    best_gap, best_at = -1, 0
    for i, (lo, hi) in enumerate(segs):
        nxt = segs[(i + 1) % len(segs)][0] + (S if i + 1 == len(segs) else 0)
        gap = nxt - hi
        if gap > best_gap:
            best_gap, best_at = gap, i
    if best_gap <= 0:
        return ScaledInterval(0, S, S)
    lo = segs[(best_at + 1) % len(segs)][0]
    hi = segs[best_at][1]
    length = (hi - lo) % S or S
    return ScaledInterval(lo % S, lo % S + length, S)


def cube_components(
    family,
    factor=NINE_EIGHTHS,
    j_max: int = DEFAULT_J_MAX,
    validate: bool = True,
):
    """Union-find components of dilated cubes; zero box distance connects.

    Corner contact counts: two dilated boxes are connected when every
    axis projection touches.
    """
    family = list(family)
    if validate:
        _validate_cube_family(family, j_max)
    dil = [dilate_cube(q, factor, j_max) for q in family]
    bounds = [tuple((ax.lo, ax.hi) for ax in q.axes) for q in dil]
    S = dil[0].axes[0].scale if dil else 0
    parent = list(range(len(dil)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(dil)):
        bi = bounds[i]
        for j in range(i + 1, len(dil)):
            bj = bounds[j]
            if all(
                gap_units(a[0], a[1], b[0], b[1], S) == 0
                for a, b in zip(bi, bj)
            ):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(dil)):
        groups.setdefault(find(i), []).append(i)
    return family, dil, sorted(sorted(g) for g in groups.values())


def verify_covering_cubes(
    family,
    factor=NINE_EIGHTHS,
    j_max: int = DEFAULT_J_MAX,
    validate: bool = True,
) -> CoveringReport:
    family, dil, comps = cube_components(family, factor, j_max, validate=validate)
    holds, literal = True, True
    witnesses = []
    for ci, members in enumerate(comps):
        hull = ScaledBox(
            tuple(
                _smallest_covering_arc([dil[i].axes[ax] for i in members])
                for ax in range(dil[0].dim)
            )
        )
        best = max(dil[i].axes[0].length_units for i in members)
        largest = [i for i in members if dil[i].axes[0].length_units == best]
        if not any(dilate_box(dil[i], 4).contains_box(hull) for i in largest):
            holds = False
            witnesses.append((ci, hull))
        if not any(dilate_cube(family[i], 4, j_max).contains_box(hull) for i in largest):
            literal = False
    return CoveringReport(
        holds=holds,
        statement_form_holds=literal,
        components=len(comps),
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# random nonadjacent families (for the randomized suites)

def random_nonadjacent_family(rng, max_level: int = 12, max_count: int = 64,
                              j_max: int = DEFAULT_J_MAX):
    """Random family of pairwise disjoint, nonadjacent dyadic intervals.

    Draws a random stopping-time tiling of the torus, keeps alternating
    tiles in circular order (never two consecutive, hence nonadjacent),
    then thins randomly.  Levels get mixed because split depth varies.
    """
    leaves = []
    stack = [(0, 0)]
    budget = 4 * max_count
    while stack:
        level, index = stack.pop()
        if level < max_level and len(leaves) + len(stack) < budget and rng.random() < 0.62:
            stack.append((level + 1, 2 * index))
            stack.append((level + 1, 2 * index + 1))
        else:
            leaves.append((level, index))
    leaves.sort(key=lambda t: Fraction(t[1], 1 << t[0]))
    if len(leaves) < 2:
        return [DyadicInterval(1, 0)]
    phase = int(rng.integers(0, 2))
    kept = leaves[phase::2]
    if len(leaves) % 2 == 1 and phase == 0 and len(kept) > 1:
        kept = kept[:-1]  # circular order: first and last tiles are adjacent
    out = [DyadicInterval(j, k) for j, k in kept if rng.random() < 0.8]
    if not out:
        out = [DyadicInterval(leaves[0][0], leaves[0][1])]
    return out[:max_count]


def _tile_touches(a, b, W):
    """Closed-box contact for two tiles of a 2-d dyadic tiling, unit scale W."""
    for (a0, a1), (b0, b1) in zip(a, b):
        if a0 <= b1 and b0 <= a1:
            continue
        if (a0 == 0 and b1 == W) or (b0 == 0 and a1 == W):
            continue
        return False
    return True


def random_nonadjacent_cube_family(rng, max_level: int = 7, max_count: int = 40,
                                   j_max: int = DEFAULT_J_MAX):
    """Random nonadjacent dyadic cubes from a quadtree tiling of the torus."""
    leaves = []
    stack = [(0, 0, 0)]
    while stack:
        level, i, j = stack.pop()
        if level < max_level and len(leaves) + len(stack) < 5 * max_count and rng.random() < 0.55:
            for di in (0, 1):
                for dj in (0, 1):
                    stack.append((level + 1, 2 * i + di, 2 * j + dj))
        else:
            leaves.append((level, i, j))
    W = 1 << max_level
    order = rng.permutation(len(leaves))
    kept = []
    kept_bounds = []
    for idx in order:
        level, i, j = leaves[idx]
        w = W >> level
        box = ((i * w, (i + 1) * w), (j * w, (j + 1) * w))
        if any(_tile_touches(box, other, W) for other in kept_bounds):
            continue
        kept.append(DyadicCube((DyadicInterval(level, i), DyadicInterval(level, j))))
        kept_bounds.append(box)
        if len(kept) >= max_count:
            break
    return kept
