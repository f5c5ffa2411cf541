"""Dilation covering geometry for families of disjoint dyadic intervals
and cubes.

Given a family G of pairwise disjoint, pairwise nonadjacent dyadic
intervals, the 9/8-dilates can merge into connected components, but each
component stays inside the 4-fold dilate of its largest member (which is
the 9/2-dilate of the largest original).  This module computes the
components exactly, checks that containment for interval and cube
families, and checks the chain property: whenever the dilate of a middle
interval bridges two outer dilates that are themselves separated, the
bridge is strictly longer than the smaller outer dilate.

A family is an integer array of `dyadic` cell rows, (level, index) per
interval or (level, i, j) per cube, the format of the bad cells of a
`czd.decompose`.  Dilates come from `dyadic.dilate_units`, the one
9/8-dilate, so every endpoint is an integer at scale
S = 2**(j_max + 4), and the chain scan reports its violations as
(level, index) pairs.  One check serves every dimension: a circle
sweep of the first axis groups the members into runs, the touching
pairs within a run give the components, and a sweep per component and
axis gives the hulls.  The random families come from one stopping-time
tiling walk in either dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DEFAULT_J_MAX, dilate_units, scale_for


def _circle_gap(a, b, period: int) -> np.ndarray:
    """Distance from a to b around a circle of the given period,
    broadcast.  Closed arcs at most S long on a circle of length S meet
    exactly when the gap of their doubled centres, period 2 S, is at
    most the sum of their lengths."""
    d = np.abs(a - b)
    return np.minimum(d, period - d, out=d)


def _circle_runs(group: np.ndarray, lo: np.ndarray, hi: np.ndarray, S: int):
    """Connected runs of arcs, one circle of length S per group, and the
    hull of each run.

    Entry e is the arc [lo[e], hi[e]) on circle group[e], with
    0 <= lo < S and lo < hi <= lo + S; a group id no entry carries has
    no circle.  Touching arcs connect.  Each circle is cut at a point no arc
    covers, found from one sort by left end and a running maximum of
    right ends, and swept from there with a second running maximum; a
    circle the arcs cover entirely is one run with hull (0, S).
    Returns the run of each entry, runs numbered in group order, and
    each run's hull start and length.
    """
    n = len(group)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    span = 4 * S  # unrolled arcs stay below 2 S: offset circles apart
    order = np.lexsort((lo, group))
    g, lo, hi = group[order], lo[order], hi[order]
    new = np.r_[True, g[1:] != g[:-1]]
    first = np.flatnonzero(new)
    last = np.r_[first[1:], n] - 1
    r = np.cumsum(new) - 1  # position of each entry's circle among the circles
    reach = np.maximum.accumulate(g * span + hi) - g * span
    nxt = np.r_[lo[1:], 0]
    nxt[last] = lo[first] + S
    # the gap after an arc is uncovered unless the part [0, farthest - S)
    # of the circle's farthest-reaching arc wraps over it
    uncovered = nxt > np.maximum(reach, reach[last][r] - S)
    full = ~np.logical_or.reduceat(uncovered, first)
    cut = np.minimum.reduceat(np.where(uncovered, np.arange(n), n), first)
    shift = np.where(np.arange(n) <= cut[r], S, 0)
    lo, hi = lo + shift, hi + shift
    del reach, nxt, uncovered, cut, shift  # peak memory: n-sized, read no more
    turn = np.lexsort((lo, g))
    order, lo, hi = order[turn], lo[turn], hi[turn]
    reach = np.maximum.accumulate(g * span + hi) - g * span
    start = np.r_[True, lo[1:] > reach[:-1]] & ~full[r]
    start[first] = True
    run = np.empty(n, dtype=np.int64)
    run[order] = np.cumsum(start) - 1
    at = np.flatnonzero(start)
    hull_lo = lo[at] % S
    hull_len = np.maximum.reduceat(hi, at) - lo[at]
    whole = full[r[at]]
    hull_lo[whole], hull_len[whole] = 0, S
    return run, hull_lo, hull_len


@dataclass
class CoveringCheck:
    """Components of the 9/8-dilates of a batch of families, and the
    containment verdict of each family.  Hulls are at scale
    2**(j_max+4)."""

    holds: np.ndarray  # per family: each hull inside 4 * (a largest dilate)
    components: np.ndarray  # per family
    label: np.ndarray  # per member, in input order: its component
    hulls: np.ndarray  # per component and axis: hull start and length


def _check(F, fam, label, lo, length, hull_lo, hull_len, S) -> CoveringCheck:
    """A component holds when its hull lies, on every axis, inside the
    4-dilate of one of its members of largest dilate.  Components are
    numbered family by family; a family of F with no member has none
    and holds."""
    m = len(hull_lo)
    size = length[:, 0]
    best = np.zeros(m, dtype=np.int64)
    np.maximum.at(best, label, size)
    new_len = np.minimum(4 * length, S)
    lo4 = (2 * lo + length - new_len) // 2 % S
    inside = (new_len == S) | ((hull_lo[label] - lo4) % S + hull_len[label] <= new_len)
    ok = np.bincount(label, weights=(size == best[label]) & inside.all(axis=1),
                     minlength=m) > 0
    comp_fam = np.zeros(m, dtype=np.int64)
    comp_fam[label] = fam
    return CoveringCheck(
        holds=np.bincount(comp_fam, weights=~ok, minlength=F) == 0,
        components=np.bincount(comp_fam, minlength=F),
        label=label, hulls=np.stack((hull_lo, hull_len), axis=-1))


def verify_covering(families: list, j_max: int = DEFAULT_J_MAX) -> CoveringCheck:
    """Covering check of families of d-dimensional cells, each an array
    of (level, index) rows in 1-d or (level, i, j) rows in 2-d; d is the
    width of the rows less one.

    Two dilated cells connect when their projections touch on every axis
    (corner contact counts), so connected members touch on the first
    axis and share a run of its circle sweep.  The components come from
    the touching pairs among all pairs of members of one run, by
    min-label propagation.  A component's projections on one axis form
    one run of a circle sweep, whose hull is the component's hull on
    that axis.  The members must be pairwise disjoint and nonadjacent,
    as the random family generators guarantee by construction.
    """
    S = scale_for(j_max)
    axes = families[0].shape[1] - 1 if families else 1
    # the family and the 9/8-dilate's (lo, length) per axis of every
    # member of every family, from one `dilate_units` call
    rows = np.concatenate([np.empty((0, 1 + axes), dtype=np.int64), *families])
    fam = np.repeat(np.arange(len(families)), [len(f) for f in families])
    lo, length = dilate_units(rows[:, :1], rows[:, 1:], j_max)
    length = np.broadcast_to(length, lo.shape)  # a cell's sides are equal
    run, _, _ = _circle_runs(fam, lo[:, 0], lo[:, 0] + length[:, 0], S)
    # every pair (a, b), a < b, of members of one run
    by_run = np.argsort(run, kind="stable")
    run = run[by_run]
    n = len(run)
    later = np.searchsorted(run, run, side="right") - np.arange(n) - 1
    a = np.repeat(np.arange(n), later)
    b = a + np.arange(len(a)) - np.repeat(np.cumsum(later) - later - 1, later)
    a, b = by_run[a], by_run[b]
    # dilated cells meet when their projections meet on every axis
    gap = [_circle_gap(c[a], c[b], 2 * S) for c in (2 * lo + length).T]
    touch = np.max(gap, axis=0) <= length[a, 0] + length[b, 0]
    a, b = np.r_[a[touch], b[touch]], np.r_[b[touch], a[touch]]
    # each member takes the least root among its own and its touching
    # members', then its root's root, until nothing changes: every root
    # is then the first member of its component
    root, step = None, np.arange(n)
    while not np.array_equal(root, step):
        root, step = step, step.copy()
        np.minimum.at(step, a, root[b])
        step = step[step]
    roots, label = np.unique(root, return_inverse=True)
    m = len(roots)
    # one circle per component and axis
    _, hull_lo, hull_len = _circle_runs((label[:, None] * axes + np.arange(axes)).ravel(),
                                        lo.ravel(), (lo + length).ravel(), S)
    if len(hull_lo) != axes * m:
        raise RuntimeError("a connected component has a disconnected projection")
    return _check(len(families), fam, label, lo, length,
                  hull_lo.reshape(m, axes), hull_len.reshape(m, axes), S)


@dataclass
class ChainScan:
    """Exhaustive scan of all chain triples among dyadic intervals."""

    outer_pairs: int
    chains: int
    violations: list  # (I1, I2, I3) triples of (level, index) pairs


def exhaustive_chain_scan(max_level: int) -> ChainScan:
    """Check the bridge-length property for every chain up to max_level.

    Enumerates all dyadic intervals of levels 1..max_level, finds every
    triple satisfying the chain preconditions, and records violations of
    |I2*| > min(|I1*|, |I3*|), with * the 9/8-dilate.  Vectorized over
    the middle interval.
    """
    level = np.concatenate([np.full(1 << j, j) for j in range(1, max_level + 1)])
    index = np.concatenate([np.arange(1 << j) for j in range(1, max_level + 1)])
    n = len(level)
    j_max = max(max_level, 4)
    S = scale_for(j_max)
    lo_o = index << (j_max + 4 - level)
    hi_o = lo_o + (S >> level)
    lo_d, len_d = dilate_units(level, index, j_max)

    contains = (lo_o[:, None] <= lo_o[None, :]) & (hi_o[None, :] <= hi_o[:, None])
    disjoint = ~(contains | contains.T)
    adj = (hi_o[:, None] % S == lo_o[None, :]) | (hi_o[None, :] % S == lo_o[:, None])
    valid_pair = disjoint & ~adj

    centre = 2 * lo_d + len_d
    touch_d = _circle_gap(centre[:, None], centre, 2 * S) <= len_d[:, None] + len_d

    outer_pairs = chains = 0
    violations = []
    for a in range(n):
        row = valid_pair[a] & ~touch_d[a]
        for b in range(a + 1, n):
            if not row[b]:
                continue
            outer_pairs += 1
            mids = valid_pair[:, a] & valid_pair[:, b] & touch_d[:, a] & touch_d[:, b]
            idx = np.nonzero(mids)[0]
            chains += len(idx)
            thresh = min(len_d[a], len_d[b])
            for m in idx[len_d[idx] <= thresh]:
                violations.append(tuple((int(level[i]), int(index[i]))
                                        for i in (a, m, b)))
    return ChainScan(
        outer_pairs=outer_pairs,
        chains=chains,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# random nonadjacent families (for the randomized suites)

def _tiling(rng, dim: int, max_level: int, budget: int, p_split: float):
    """A random stopping-time tiling of the dim-torus, last tile first:
    each tile's b = dim * (max_level - level) and Morton code at its level.

    A depth-first walk, last child first, keeps p, the number of finest
    cells (in Morton order) not yet tiled.  Its node is the largest
    aligned block of 2**b cells ending at p.  Below max_level it
    draws while fewer than ceil(budget / (2**dim - 1)) nodes have split
    and splits below p_split, keeping its end; else it is a tile and p
    moves to its start.  The uniforms are drawn ahead in chunks, then
    the state is restored and exactly those read drawn again: the
    stream of a uniform per node."""
    limit = -(-budget // ((1 << dim) - 1))
    state = rng.bit_generator.state
    flags, used, splits = [], 0, 0
    b = dim * max_level
    p = 1 << b
    bits, codes = [], []
    while p:
        if b and splits < limit:
            if used == len(flags):
                flags += (rng.random(len(flags) + 32) < p_split).tolist()
            used += 1
            if flags[used - 1]:
                splits += 1
                b -= dim
                continue
        p -= 1 << b
        bits.append(b)
        codes.append(p >> b)
        b = ((p & -p).bit_length() - 1) & -dim  # p's lowest nonzero base-2**dim digit
    rng.bit_generator.state = state
    rng.random(used)
    return bits, codes


def random_nonadjacent_family(rng, max_level: int = 12,
                              max_count: int = 64) -> np.ndarray:
    """Random family of pairwise disjoint, nonadjacent dyadic intervals,
    as (level, index) rows.

    Draws a random stopping-time tiling of the torus with at most
    4 * max_count splits (`_tiling`, splitting below 0.62), keeps
    alternating tiles in circular order (never two consecutive, hence
    nonadjacent), then thins randomly.  Levels get mixed because split
    depth varies.
    """
    bits, index = _tiling(rng, 1, max_level, 4 * max_count, 0.62)
    n = len(bits)
    if n < 2:
        return np.array([[1, 0]], dtype=np.int64)
    bits.reverse()  # by left end
    index.reverse()
    phase = int(rng.integers(0, 2))
    # circular order: with an odd count the first and last tiles are adjacent
    kept = range(phase, n - (n % 2 > phase), 2)
    out = [(max_level - bits[t], index[t])
           for t, keep in zip(kept, (rng.random(len(kept)) < 0.8).tolist()) if keep]
    return np.array(out[:max_count] or [(max_level - bits[0], index[0])],
                    dtype=np.int64)


def _deinterleave(z: np.ndarray) -> np.ndarray:
    """The even bits of each entry of z, packed: the second coordinate
    of a Morton code below 2**32, or its first when given z >> 1."""
    z = z & 0x5555555555555555
    for s, mask in ((1, 0x3333333333333333), (2, 0x0F0F0F0F0F0F0F0F),
                    (4, 0x00FF00FF00FF00FF), (8, 0x0000FFFF0000FFFF)):
        z = (z | z >> s) & mask
    return z


def random_nonadjacent_cube_family(rng, max_level: int = 7,
                                   max_count: int = 40) -> np.ndarray:
    """Random nonadjacent dyadic cubes from a quadtree tiling of the
    torus, as (level, i, j) rows.

    The tiling has at most ceil(5 * max_count / 3) splits (`_tiling`,
    splitting below 0.55).  Visits the tiles in a random order and keeps each one
    whose closure touches no kept tile, read from a touch matrix of all
    tile pairs.
    """
    bits, codes = _tiling(rng, 2, max_level, 5 * max_count, 0.55)
    order = rng.permutation(len(bits))
    codes = np.array(codes, dtype=np.int64)
    tiles = np.stack((max_level - np.array(bits) // 2, _deinterleave(codes >> 1),
                      _deinterleave(codes)), axis=1)
    # closed cubes meet when their projections meet on both axes; int32
    # halves the pairwise work
    w = (1 << max_level >> tiles[:, :1]).astype(np.int32)
    centre = (2 * tiles[:, 1:] + 1).astype(np.int32) * w
    gap = [_circle_gap(c[:, None], c, 2 << max_level) for c in centre.T]
    touch = np.maximum(*gap) <= w + w.T
    blocked = np.zeros(len(tiles), dtype=bool)
    kept = []
    for idx in order.tolist():
        if blocked[idx]:
            continue
        kept.append(idx)
        blocked |= touch[idx]
        if len(kept) >= max_count:
            break
    return tiles[kept]
