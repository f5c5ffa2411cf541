"""Averaged-moment inequalities over complements of exceptional sets.

The experiments here all follow one pattern: decompose a function at
height lambda, remove a union E of dilated bad cells, and integrate a
spectral quantity (partial sums, or a kernel convolved with |f|^2) over
the complement.  E lives as a bitmap of the 2**J sample cells per axis,
on which every odd dilate of a dyadic cell starts and ends, so its
measure is an exact Fraction and its complement weights on any finer
power-of-two grid are 0 or 1.  It is built from the decomposition's
bad-cell rows by integer arithmetic and one `dyadic.union_mask`.  Each
moment estimator returns one result per height of a list, in order, from
one selection (`czd.decompositions`), and does the work that does not
depend on the height once.

Quadratic (p = 2) averaged moments never evaluate S_n f.  With w the
complement weights on the refined M-grid and w^ = fft(w)/M their DFT,
indexed mod M, the quadrature is an exact Parseval identity

    (1/M) sum_t w_t |S_n f(t)|^2 = sum_{|a|,|b|<=n} c_a conj(c_b) w^(b-a),

and raising n by one adds only the border max(|a|,|b|) = n, so a curve
n = 1..N_max costs O(N_max^2) work and O(N_max) memory.  The full-torus
column is the cumulative per-order energy sum_{|m|<=n} |c_m|^2 of the
same coefficients.  All of a function's heights take one pass: their
w^ are the columns of one array, filled one M-point transform at a
time, and one matrix-vector product per order gives every height's
border.  That product sums in another order than a one-column dot
product, so a height's values can move in the last bits with the
number of heights stacked beside it (see `_weighted_energy_curves`).

The full-torus column of the quartic (p = 4) moment has a closed form
too.  |S_n f|^2 = sum_m g_m e(m x) with the Hermitian autocorrelation

    g_m = sum_{a-b=m, |a|,|b|<=n} c_a conj(c_b),    |m| <= 2n,

which needs no symmetry of c.  On the M-grid, e(m t/M) depends on
m mod M only, so |S_n f|^2 has the grid coefficients
G_r = sum_{m = r mod M} g_m, and discrete Parseval gives

    (1/M) sum_t |S_n f(t)|^4 = sum_{r mod M} |G_r|^2.

The moments take the 4 times finer grid, M = 2**(J+2), and n <= H =
2**(J-1) gives 4n < M, so nothing folds and the sum is sum_m |g_m|^2.
Raising n by one adds only the pairs with a or b at +-n, O(n) entries
of g, so the column costs O(N_max^2).  The weighted column has no such
form (weighting |S_n f|^4 through its coefficients is a Toeplitz
product per order, O(N_max^3)), so it streams, but only the stream's
windows that hold a grid column with w_t > 0, weighting their columns
by w: none when E is the whole torus, and when E is empty w = 1 and it
is the full column.

Fourth moments, strong means and the rectangular factors need pointwise
values and use a partial-sum stream: S_n differs from S_{n-1} by the
real pair A_n cos n theta + B_n sin n theta = Re(C_n e(n theta)), with
C_n = A_n - i B_n, so a running sum over the refined grid computes the
whole curve in O(N_max * M) work.  It takes real samples only: the
strong means of real u and v bound those of f = u + i v.  The grid is
cut into windows of `_WINDOW` = 256 consecutive columns.  In the window
that starts at t0, e(n t) = e(n t0) e(n s) with s = t - t0 < 256, so one
table P[n, s] = e(n s) serves every window of a chunk of 16 orders, each
window needs one scalar D_n = C_n e(n t0) per order, and each entry
costs one complex product.  Order chunks form the outer loop and tiles
of 8 windows, at most `_TILE` = (orders, columns) = (16, 2048) entries,
the inner one, with a carry per streamed column, in scratch of a few
MB.  A value of S_n f depends only on its column and `_WINDOW`, which
fixes where each phase splits, so neither the tile shape nor the set
of columns streamed moves its bits.  A reader may overwrite its tile,
and every reader squares its tiles in place.
Each function is streamed at most once per experiment: strong means
count the grid points over all their eps and lam thresholds inside the
same sweep.

Orders are capped at the stored bandwidth H = n/2.  The stream, both
closed forms and the energy curves take their coefficients from
`spectral.modes`, which raises AliasingError beyond H (as
`spectral.valle_poussin` does for a band beyond H); it is the one
bandwidth check here.  At n = H it reads the stored Nyquist bin as both
+H and -H, as `spectral.partial_sum` does; on the finer grids the
moments take, +H and -H are distinct grid frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .czd import CZDecomposition, decompositions
from .dyadic import union_mask
from .grid import GridFunction
from .spectral import (
    band_energy,
    box_kernel,
    convolve,
    decay_kernel,
    modes,
    saturated_sum,
    valle_poussin,
)

SUPPORTED_DILATIONS = (1, 3, 5)
DEFAULT_LAM_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
# (orders, columns) in one tile of the partial-sum stream: 8 windows.
# Its tiles, one complex of 512 KB and one real of 256 KB, fit in a
# core's 2 MB L2 with room for the reader; the shape leaves every value
# as it is
_TILE = (16, 2048)
# consecutive grid columns that share their phases e(n s), s < _WINDOW,
# and so the one constant that fixes the stream's rounding; a column
# subset streams whole windows, so a wider one wastes columns
_WINDOW = 256
# lattice entries in one block of a density shell walk; the walk's
# scratch is a few arrays of this size whatever the lattice side
_SHELL_BLOCK = 1 << 16


class NotBandLimitedError(ValueError):
    """Input carries energy beyond the admissible frequency band."""


class ScheduleInfeasibleError(ValueError):
    """No schedule point satisfies the first mean-square threshold."""


# ---------------------------------------------------------------------------
# exceptional sets


@dataclass
class ExceptionalSet:
    """Union of dilated bad cells as a unit bitmap, with exact measure.

    Two geometries exist for dim >= 2.  "cube" dilates each bad cube
    about its center, so the removed set has measure <= (c/lam)^ (per
    cell sums).  "slab" removes every point whose i-th coordinate falls
    in the dilated i-th shadow of some bad cube, for any axis i; the
    complement is then a product set.  Cube removal is smaller but its
    complement keeps cross-bands that run along a bad cube in one
    coordinate, and partial-sum mass parked on those bands grows with
    the order.  Slab removal trades a larger measure for a complement
    on which separable averages factor.  For dim == 1 they coincide.
    """

    dim: int
    dilation: int
    mask: np.ndarray = field(repr=False)  # one entry per sample cell
    measure: Fraction

    def complement_weights(self, M: int) -> np.ndarray:
        """1 on each cell of the M-grid outside the set, else 0.

        M is a power-of-two multiple of the n sample cells per axis, so
        each M-cell lies in one sample cell and takes its value.
        """
        n = len(self.mask)
        if M % n:
            raise ValueError(f"M = {M} is no multiple of the {n} cells per axis")
        w = 1.0 - self.mask
        for axis in range(self.dim):
            w = np.repeat(w, M // n, axis)
        return w


def build_exceptional_set(cz: CZDecomposition, c: int = 5,
                          geometry: str = "cube") -> ExceptionalSet:
    """E = union of c-dilated bad cells, on the n = 2**J sample cells.

    A bad cell of side w samples has the c-dilate that starts c // 2
    sides before it and spans min(c w, n) samples; c = 1 is the cell
    itself.  "cube" marks each cell's box, the product of its arcs, and
    "slab" every point inside some cell's arc on either axis.
    """
    if c not in SUPPORTED_DILATIONS:
        raise ValueError(f"dilation {c} not in {SUPPORTED_DILATIONS}")
    if geometry not in ("cube", "slab"):
        raise ValueError(f"unknown geometry {geometry!r}")
    n = 1 << cz.J
    level, index = cz.bad[:, :1], cz.bad[:, 1:]
    w = n >> level
    lo, length = (index - c // 2) * w % n, np.minimum(c * w, n)
    if cz.dim == 1:
        geometry = "cube"  # identical constructions
    if geometry == "slab":
        axis_masks = [union_mask(lo[:, a:a + 1], length, n) for a in range(2)]
        mask = axis_masks[0][:, None] | axis_masks[1][None, :]
        # complement is a product set, so the measure multiplies out
        free = [n - int(m.sum()) for m in axis_masks]
        measure = 1 - Fraction(free[0] * free[1], n * n)
    else:
        mask = union_mask(lo, length, n)
        measure = Fraction(int(mask.sum()), n ** cz.dim)
    return ExceptionalSet(cz.dim, c, mask, measure)


def weighted_moment(g: GridFunction, exc: ExceptionalSet, p: int = 1) -> float:
    """Integral of |g|**p over the complement of the set.

    Exact quadrature of g read as piecewise constant on its own grid, at
    least as fine as the set's.
    """
    if g.dim != exc.dim:
        raise ValueError("dimension mismatch")
    w = exc.complement_weights(g.n)
    return float(np.mean(np.abs(g.samples) ** p * w))


# ---------------------------------------------------------------------------
# report types


@dataclass
class MomentReport:
    lam: float
    N: int
    avg_moment: float
    measure_E: Fraction
    ratio: float          # avg_moment / (lam^(p-1) ||f||_1^p)
    full_torus_avg: float
    exceptional: ExceptionalSet = field(repr=False, compare=False)


def _reports(f: GridFunction, lam: float, exc: ExceptionalSet, p: int,
             Ns, moments, fulls) -> list[MomentReport]:
    """One report per order in Ns: the p-th moment measured off exc, the
    full-torus one, and the moment's ratio to lam^(p-1) ||f||_1^p."""
    with np.errstate(over="ignore"):  # a scale past the float range gives ratio 0
        scale = np.float64(lam) ** (p - 1) * f.l1() ** p
    return [MomentReport(lam, N, avg, exc.measure, avg / scale, full, exc)
            for N, avg, full in zip(Ns, moments, fulls)]


@dataclass
class StrongMeansReport:
    eps: tuple
    schedule: tuple
    # per eps, the super-level measure of the averaged deviation per N
    measures: tuple
    lam_grid: tuple
    weak_ratios: tuple    # sup over the schedule of lam*|{A_N > lam}| / ||f||_1


@dataclass
class DensityRun:
    s: float
    dim: int
    schedule: tuple
    k_positions: tuple    # positions within the schedule chosen as k_m
    shells: tuple         # (m, N_lo, N_hi] index ranges
    mean_square: tuple    # per schedule point
    eval_points: tuple
    density: tuple
    kept: tuple           # entries kept per shell

    def check_membership(self, lattice) -> bool:
        """Walk each shell of `lattice` again and recount the indices with
        |s_n - s| < 1/m: the count must equal the shell's kept count, and
        the running total must give the density recorded at its end."""
        total = 0
        for (m, lo, hi), kept in zip(self.shells, self.kept):
            count = 0
            for _, block in _shell_blocks(lattice, self.dim, lo, hi):
                count += int(np.count_nonzero(np.abs(block - self.s) < 1.0 / m))
            total += count
            end = self.density[self.eval_points.index(hi)]
            if count != kept or total / hi**self.dim != end:
                return False
        return True

    def density_floor_ok(self) -> bool:
        """density(N_k) >= 1 - 1/l whenever k_l < k <= k_{l+1}."""
        ks = self.k_positions
        for pos, N in enumerate(self.schedule):
            ell = sum(1 for k in ks if k < pos)
            if ell >= 1 and self.density[pos] < 1.0 - 1.0 / ell - 1e-15:
                return False
        return True


def _shell_blocks(lattice, d: int, lo: int, hi: int):
    """The shell [0, hi)^d minus [0, lo)^d of 0-based lattice slots, as
    (columns, values) blocks of at most `_SHELL_BLOCK` entries.

    In 1-d the blocks run along the index and columns is None.  In 2-d
    the rectangle rows [0, lo) x columns [lo, hi) comes first, then rows
    [lo, hi) x columns [0, hi); each is cut into column strips and each
    strip into row bands, so every column meets its rows in ascending
    order and columns is the strip's slice.
    """
    if d == 1:
        for r in range(lo, hi, _SHELL_BLOCK):
            yield None, lattice(r, min(r + _SHELL_BLOCK, hi))
        return
    for r0, r1, c0 in ((0, lo, lo), (lo, hi, 0)):
        width = min(hi - c0, _SHELL_BLOCK)
        height = max(1, _SHELL_BLOCK // width)
        for c in range(c0, hi, width):
            c1 = min(c + width, hi)
            for r in range(r0, r1, height):
                yield slice(c, c1), lattice(r, min(r + height, r1), c, c1)


# ---------------------------------------------------------------------------
# running partial-sum engine


def _windows(M: int, cols: np.ndarray | None = None) -> tuple[int, np.ndarray]:
    """The width W of the stream's windows on the M-grid and the first
    column of each window it walks: all, or those holding one of cols."""
    W = min(_WINDOW, M)
    if cols is None:
        return W, np.arange(0, M, W)
    return W, np.flatnonzero(np.bincount(np.asarray(cols) // W, minlength=M // W)) * W


def _partial_sum_stream(f: GridFunction, c: np.ndarray, refine: int,
                        cols: np.ndarray | None = None):
    """Yield tiles (ns, span, rows): rows[i, j] is S_{ns[i]} f at the grid
    column t[span][j] of the 2**refine finer grid, for n = 1..n_hi with
    c = `modes(f, n_hi)`.  t is every column of the windows of
    `_windows(M, cols)` in turn, so every column in order when cols is
    None; span is a slice of positions in t.  Order chunks form the outer
    loop and tiles of whole windows the inner one; a tile is at most
    `_TILE` (orders x columns), or one window when that is wider.

    f must be real, else ValueError.  Rows are real: C_n = A_n - i B_n,
    where A_n = c_n + c_{-n} and B_n = i (c_n - c_{-n}) are real (at
    n = H both read the Nyquist bin), and each order adds Re(C_n e(n t)).
    In the window at t0, e(n t) = e(n t0) P[n, s] with P[n, s] = e(n s)
    for s = t - t0 < W, gathered once per chunk, so with D_n = C_n e(n t0)
    an entry is one product.  rows is scratch that the next tile
    overwrites; the carry is copied out of it before the yield, so a
    reader may overwrite it too.
    """
    if not f.is_real():
        raise ValueError("the partial-sum stream takes real samples")
    n_hi = c.size // 2
    ks = np.arange(1, n_hi + 1)
    cp, cm = c[n_hi + ks], c[n_hi - ks]  # modes +k and -k
    C = (cp + cm).real + 1j * (cp - cm).imag  # C_k = Re(c_k + c_-k) + i Im(c_k - c_-k)
    M = 1 << (f.J + refine)
    W, starts = _windows(M, cols)
    per, h = max(1, _TILE[1] // W), min(_TILE[0], n_hi)  # windows, orders a tile
    table = np.exp(2j * np.pi * np.arange(M) / M)
    # flat scratch, viewed as a contiguous (orders, windows, W) tile
    ph, buf = np.empty(h * per * W, complex), np.empty(h * per * W)
    carry = np.full(starts.size * W, c[n_hi].real)  # S_0 is the mean
    for n0 in range(1, n_hi + 1, h):
        ns = np.arange(n0, min(n0 + h, n_hi + 1))
        P = table[(ns[:, None] * np.arange(W)) & (M - 1)][:, None]  # e(n s)
        e0 = table[(ns[:, None] * starts) & (M - 1)][..., None]  # e(n t0)
        D = C[ns - 1, None, None] * e0
        for g0 in range(0, starts.size, per):
            g1 = min(g0 + per, starts.size)
            span = slice(g0 * W, g1 * W)
            e = ph[: len(ns) * (g1 - g0) * W].reshape(len(ns), g1 - g0, W)
            rows = buf[: e.size].reshape(e.shape)
            np.multiply(P, D[:, g0:g1], out=e)
            np.copyto(rows, e.real)  # Re(C_n e(n t)) = A_n cos + B_n sin
            rows = rows.reshape(len(ns), -1)
            rows[0] += carry[span]
            for j in range(1, len(ns)):  # running sum; np.cumsum on axis 0 is slow
                rows[j] += rows[j - 1]
            carry[span] = rows[-1]
            yield ns, span, rows


def _energy_curve(c: np.ndarray) -> np.ndarray:
    """||S_n f||_2^2 = sum_{|m|<=n} |c_m|^2 for n = 1..N; c is `modes(f, N)`."""
    N = c.size // 2
    n = np.arange(1, N + 1)
    return abs(c[N]) ** 2 + np.cumsum(np.abs(c[N + n]) ** 2 + np.abs(c[N - n]) ** 2)


def _weighted_energy_curves(c: np.ndarray, excs, M: int) -> np.ndarray:
    """(1/M) sum_t w_t |S_n f(t)|^2 for n = 1..N, by the Parseval identity,
    as an (N, L) array with one column per exceptional set of `excs`, w
    its complement weights on the M-grid; c is `modes(f, N)`.

    Column i of WH holds the 4N + 1 entries of set i's w^ that the border
    rows read, filled one M-point transform at a time; one product per
    order then serves every column.  Rounding in w^ acts like a
    perturbation of w that does not vanish on E, so the relative error
    grows like eps * (energy of S_n f on E) / (energy off E): largest
    for spikes whose mass sits inside E.  That matrix-vector product
    sums in another order than a dot product of one column does, so a
    column can move in its last bits with the number of columns beside
    it: against one-column dot products, by up to about 2e-14 relative
    for the corpus's trig, noise and k-spike functions and 9e-13 for
    its single spike.
    """
    N = c.size // 2
    K = 2 * N
    at = np.arange(-K, K + 1) % M
    WH = np.empty((2 * K + 1, len(excs)), complex)  # WH[K + k] is w^(k)
    for i, exc in enumerate(excs):
        WH[:, i] = np.fft.fft(exc.complement_weights(M))[at] / M
    cc = np.conj(c)
    n = np.arange(1, N + 1)
    # border rows a = +n and a = -n against every |b| < n
    r_plus = np.empty((N, len(excs)), complex)
    r_minus = np.empty_like(r_plus)
    for j in range(1, N + 1):
        row = cc[N - j + 1:N + j]
        np.matmul(row, WH[K - 2 * j + 1:K], out=r_plus[j - 1])
        np.matmul(row, WH[K + 1:K + 2 * j], out=r_minus[j - 1])
    cp, cm = c[N + n, None], c[N - n, None]
    diag = np.abs(cp) ** 2 + np.abs(cm) ** 2
    border = (2.0 * (cp * r_plus + cm * r_minus).real
              + diag * WH[K].real
              + 2.0 * (cp * cc[N - n, None] * WH[K - 2 * n]).real)
    return abs(c[N]) ** 2 * WH[K].real + np.cumsum(border, axis=0)


def _quartic_full_curve(c: np.ndarray) -> np.ndarray:
    """(1/M) sum_t |S_n f(t)|^4 on the 4 times finer M-grid for n = 1..N,
    in closed form; c is `modes(f, N)`.

    g[2N + m] holds g_m = sum_{a-b=m, |a|,|b|<=n} c_a conj(c_b), the
    coefficients of |S_n f|^2; raising n adds the pairs with a or b at
    +-n.  The quadrature is sum_r |G_r|^2 with G_r = sum_{m = r mod M} g_m,
    and nothing folds, since 4n < M: it is sum_m |g_m|^2.
    """
    N = c.size // 2
    cc = np.conj(c)
    g = np.zeros(4 * N + 1, dtype=complex)
    g[2 * N] = c[N] * cc[N]
    out = np.empty(N)
    for n in range(1, N + 1):
        cp, cm = c[N + n], c[N - n]
        v = cc[N - n:N + n + 1]        # conj(c_b), b = -n..n
        u = c[N - n + 1:N + n]         # c_a, |a| < n
        g[2 * N:2 * N + 2 * n + 1] += cp * v[::-1]       # a = +n: m = n - b
        g[2 * N - 2 * n:2 * N + 1] += cm * v[::-1]       # a = -n: m = -n - b
        g[2 * N - 2 * n + 1:2 * N] += u * np.conj(cp)    # b = +n: m = a - n
        g[2 * N + 1:2 * N + 2 * n] += u * np.conj(cm)    # b = -n: m = a + n
        gn = g[2 * N - 2 * n:2 * N + 2 * n + 1]
        out[n - 1] = np.vdot(gn, gn).real
    return out


def _norm_factor(N: int, p: int) -> float:
    # N for the quadratic moment; N log^(p-2) N beyond
    return float(N) * math.log(N) ** (p - 2)


def averaged_moment(f: GridFunction, lams, schedule: tuple, p: int = 2,
                    fn_id: str = "") -> list[list[MomentReport]]:
    """Curves of (1/norm(N)) sum_{n<=N} integral of |S_n f|^p off E, one
    per height of `lams`, in order; each holds one report per order N
    of the schedule, and the sums run to its last order, on the 4 times
    finer grid.

    E is the 5-dilated bad set of the decomposition at the curve's
    height, and every report in a curve shares it.  One selection serves
    all the heights (`czd.decompositions`), and the full-torus column is
    computed once for all of them.  p = 2 takes the closed form of the
    module docstring for every height at once; p = 4 takes the closed
    form for the full-torus column and streams the partial sums once
    per height, on the windows that hold a column off its E, for the
    weighted one, which needs real f.  `fn_id` only labels the call: the
    benchmark's tracer counts sweeps per function by it.
    """
    if f.dim != 1:
        raise ValueError("averaged_moment is the 1-d sweep")
    if p not in (2, 4):
        raise ValueError("p must be 2 or 4")
    N_max = max(schedule)
    c = modes(f, N_max)
    excs = [build_exceptional_set(cz) for cz in decompositions(f, lams)]
    M = 1 << (f.J + 2)
    if p == 2:
        weighted = _weighted_energy_curves(c, excs, M)
        full = _energy_curve(c)
    else:
        full = _quartic_full_curve(c)
        weighted = np.zeros((N_max, len(excs)))  # w == 0 when E is the torus
        for i, e in enumerate(excs):
            if e.measure == 0:  # w == 1
                weighted[:, i] = full
            elif e.measure < 1:  # stream only the windows the weights can see
                w = e.complement_weights(M)
                cols = np.flatnonzero(w)
                W, starts = _windows(M, cols)
                wt = w.reshape(-1, W)[starts // W].ravel()  # 0 on E
                wt /= M
                for ns, span, rows in _partial_sum_stream(f, c, 2, cols):
                    # squared in place twice; the stream has copied its carry
                    np.square(np.square(rows, out=rows), out=rows)
                    weighted[ns - 1, i] += rows @ wt[span]
    cw, cf = np.cumsum(weighted, axis=0), np.cumsum(full)
    at = np.array(schedule) - 1
    norm = np.array([_norm_factor(N, p) for N in schedule])
    return [_reports(f, lam, e, p, schedule, cw[at, i] / norm, cf[at] / norm)
            for i, (lam, e) in enumerate(zip(lams, excs))]


# ---------------------------------------------------------------------------
# single-moment checks


def verify_first_reduction(f: GridFunction, lams) -> list[MomentReport]:
    """Integral of |f|^2 off the undilated bad cells, against lam*||f||_1^2,
    one report per height of `lams`.

    Off the bad set every sample is at most lam, so the moment is at
    most lam times the L1 mass: the ratio is at most 1.
    """
    excs = [build_exceptional_set(cz, 1) for cz in decompositions(f, lams)]
    return [_reports(f, lam, exc, 2, [0], [weighted_moment(f, exc, 2)], [f.l2sq()])[0]
            for lam, exc in zip(lams, excs)]


def _require_band(f: GridFunction, N: int):
    # accept anything a delayed-mean smoothing at order N can produce
    H = f.n // 2
    band = min(2 * N - 1, H)
    tail = band_energy(f, band, H)
    if tail > 1e-9 * max(f.l2sq(), 1e-30):
        raise NotBandLimitedError(
            f"energy {tail:.3e} beyond frequency {band}; smooth the input first"
        )


def _kernel_moments(f: GridFunction, lams, N: int, kernel: GridFunction,
                    excs) -> list[MomentReport]:
    """Moment of kernel * |f|^2 off each height's E, one report per height."""
    _require_band(f, N)
    conv = convolve(GridFunction(1, f.J, np.abs(f.samples) ** 2), kernel)
    full = float(np.mean(conv.samples.real))
    return [_reports(f, lam, exc, 2, [N], [weighted_moment(conv, exc, 1)], [full])[0]
            for lam, exc in zip(lams, excs)]


def verify_second_reduction(f: GridFunction, lams, N: int) -> list[MomentReport]:
    """Moment of B_N * |f|^2 off the 3-dilated bad cells, one report per
    height of `lams`.

    No constant is asserted; the ratio is recorded for baseline
    comparison.  B_N carries total mass 1/N^2.
    """
    excs = [build_exceptional_set(cz, 3) for cz in decompositions(f, lams)]
    return _kernel_moments(f, lams, N, box_kernel(N, f.J), excs)


def decay_slope(f: GridFunction, lams, s_values, Ns: tuple
                ) -> list[list[tuple[float, list[MomentReport]]]]:
    """Log-log slope over a sweep of N of the moment of the power-decay
    kernel (`spectral.decay_kernel`) against |f|^2 off the 5-dilated bad
    cells: per height of `lams`, (slope, reports) per s > 1 of `s_values`.

    The base function is smoothed per N with the delayed mean, while
    the exceptional set stays fixed: the bad cells keep their length,
    so the slope isolates the kernel's scale behaviour.  The smoothed
    functions depend on neither s nor the height, and each convolution
    not on the height, so they are built once.
    """
    excs = [build_exceptional_set(cz) for cz in decompositions(f, lams)]
    smoothed = [valle_poussin(f, N) for N in Ns]
    logN = np.log(np.array(Ns, float))
    out = [[] for _ in lams]
    for s in s_values:
        by_order = [_kernel_moments(g, lams, N, decay_kernel(N, f.J, s), excs)
                    for g, N in zip(smoothed, Ns)]
        for slopes, reports in zip(out, zip(*by_order)):
            moments = np.array([r.avg_moment for r in reports])
            slopes.append((float(np.polyfit(logN, np.log(moments), 1)[0]),
                           list(reports)))
    return out


# ---------------------------------------------------------------------------
# rectangular (d = 2) sweep


def _abs2_rows(g: GridFunction, c: np.ndarray, refine: int) -> np.ndarray:
    """|S_n g|^2 on the refined grid for n = 1..n_hi, as an (n_hi, M) array;
    c is `modes(g, n_hi)`."""
    M = 1 << (g.J + refine)
    rows = np.empty((c.size // 2, M))
    for ns, span, block in _partial_sum_stream(g, c, refine):
        rows[ns - 1, span] = np.square(block, out=block)
    return rows


def averaged_moment_rect(f: GridFunction, lams, schedule: tuple,
                         fn_id: str = "", geometry: str = "cube"
                         ) -> list[list[MomentReport]]:
    """Square-lattice version: (1/N^2) sum over 1 <= n1, n2 <= N, one
    curve per height of `lams`, each with one report per order N of the
    schedule; the sums run to its last order.

    f must be real and separable (f.factors set, as for every 2-d corpus
    family and its delayed means).  Then S_{n1,n2} f = S_{n1} a (x) S_{n2} b, so
    with W the complement weights on the twice finer M x M grid, the
    integral off E of |S_{n1,n2} f|^2 is |S_{n1} a|^2 W |S_{n2} b|^2 / M^2,
    and one stream per factor gives every (n1, n2) pair at every height.
    The full-torus column needs no stream: it is the product of the
    factors' energy sums.  E is the 5-dilated bad set in the given
    geometry; `fn_id` only labels the call, as for `averaged_moment`.
    """
    if f.dim != 2:
        raise ValueError("averaged_moment_rect needs a 2-d function")
    if f.factors is None:
        raise ValueError("averaged_moment_rect needs a separable function"
                         " (f.factors)")
    N_max = max(schedule)
    a, b = f.factors
    ca, cb = modes(a, N_max), modes(b, N_max)
    M = 1 << (f.J + 1)
    rows_a, rows_b = _abs2_rows(a, ca, 1), _abs2_rows(b, cb, 1)
    # ||S_{n1,n2} f||^2 = ||S_{n1} a||^2 ||S_{n2} b||^2, so the full-torus
    # sum over the square is the product of the factors' energy sums
    full_a, full_b = np.cumsum(_energy_curve(ca)), np.cumsum(_energy_curve(cb))
    full = [full_a[N - 1] * full_b[N - 1] / N**2 for N in schedule]
    curves = []
    for lam, cz in zip(lams, decompositions(f, lams)):
        exc = build_exceptional_set(cz, geometry=geometry)
        T = rows_a @ exc.complement_weights(M) @ rows_b.T
        T /= M * M
        cum = T.cumsum(axis=0).cumsum(axis=1)
        curves.append(_reports(f, lam, exc, 2, schedule,
                               [cum[N - 1, N - 1] / N**2 for N in schedule], full))
    return curves


# ---------------------------------------------------------------------------
# strong means and the density extractor


def strong_means_measure(f: GridFunction, eps_values: tuple, schedule: tuple,
                         r: int = 2, lam_grid: tuple = DEFAULT_LAM_GRID,
                         fn_id: str = "") -> StrongMeansReport:
    """Super-level measures of the averaged r-th deviation, one curve per
    eps in eps_values, plus the weak-type ratio of the quadratic means
    functional, all from a single partial-sum stream of the real f.

    The reference value at each point is the saturated partial sum, so
    deviations vanish identically once n reaches the stored bandwidth.
    Measures are counting quadrature on the 4 times finer grid.  Only
    the final threshold count depends on eps.  `fn_id` only labels the
    call, as for `averaged_moment`.
    """
    if f.dim != 1:
        raise ValueError("strong_means_measure is one-dimensional")
    if r not in (2, 4):
        raise ValueError("r must be 2 or 4")
    eps_values = tuple(eps_values)
    if not eps_values:
        raise ValueError("strong_means_measure needs at least one eps")
    schedule = tuple(sorted(schedule))
    c = modes(f, schedule[-1])
    M = 1 << (f.J + 2)
    ref = saturated_sum(f, 2).samples.real
    R = np.zeros(M)
    P = np.zeros(M)
    # grid points over each eps and each lam, at each N of the schedule
    over_eps = np.zeros((len(schedule), len(eps_values)), dtype=np.int64)
    over_lam = np.zeros((len(schedule), len(lam_grid)), dtype=np.int64)
    half = r // 2
    for ns, span, rows in _partial_sum_stream(f, c, 2):
        # split the tile after each schedule point it contains
        start = 0
        for i, N in enumerate(schedule):
            if ns[0] <= N <= ns[-1]:
                end = N - ns[0] + 1
                _accumulate(R[span], P[span], rows[start:end], ref[span], half)
                RN, A = R[span] / N, np.sqrt(P[span] / N)
                over_eps[i] += [np.count_nonzero(RN > eps) for eps in eps_values]
                over_lam[i] += [np.count_nonzero(A > lam) for lam in lam_grid]
                start = end
        _accumulate(R[span], P[span], rows[start:], ref[span], half)
    # sup over the schedule of lam |{A_N > lam}| / ||f||_1
    weak = np.max(np.array(lam_grid) * (over_lam / M) / f.l1(), axis=0, initial=0.0)
    return StrongMeansReport(
        eps=eps_values, schedule=schedule,
        measures=tuple(map(tuple, (over_eps.T / M).tolist())),
        lam_grid=tuple(lam_grid), weak_ratios=tuple(weak))


def _accumulate(R: np.ndarray, P: np.ndarray, seg: np.ndarray,
                ref: np.ndarray, half: int):
    """Add the deviations |S_n - ref|^r and energies |S_n|^2 of seg's rows.

    The rows are squared in place, so seg is overwritten.
    """
    dev = seg - ref
    np.square(dev, out=dev)
    np.square(seg, out=seg)
    if half == 2:
        np.square(dev, out=dev)
    R += dev.sum(axis=0)
    P += seg.sum(axis=0)


def density_subsequence(lattice, size: int, d: int, s: float,
                        schedule: tuple) -> DensityRun:
    """Extract a density-one index set along which a lattice sequence
    approaches s.

    `lattice(r0, r1)` returns the values at 1-based indices r0+1..r1;
    in 2-d `lattice(r0, r1, c0, c1)` returns rows r0+1..r1 by columns
    c0+1..c1 of the side-`size` square.  Shell construction: pick
    schedule points k_m where the mean square of |values - s| over the
    initial lattice block drops below m**-3; between consecutive picks,
    keep exactly the indices within 1/m of the limit.  The final shell
    extends to the end of the lattice.

    No lattice-sized array is formed: both passes walk the shells
    between consecutive schedule and evaluation points in blocks of
    `_SHELL_BLOCK` entries.  The mean squares add |values - s|^2 in the
    order of a cumulative sum over the whole lattice (in 2-d, down each
    column, then across the columns), carrying the running sums from
    block to block, so they equal the whole-array sums bit for bit.
    The second pass counts the kept indices between evaluation points.
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    schedule = tuple(int(N) for N in schedule)
    if not all(1 <= N <= size for N in schedule) or \
            any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing within the lattice")

    # running sums of |values - s|^2 down each column; 1-d has one column
    sums = np.zeros(1 if d == 1 else schedule[-1])
    msq = []
    lo = 0
    for N in schedule:
        for cols, block in _shell_blocks(lattice, d, lo, N):
            dev = np.abs(block - s)
            sq = dev * dev
            if cols is None:
                sq, cols = sq[:, None], slice(0, 1)
            sq[0] += sums[cols]
            np.cumsum(sq, axis=0, out=sq)
            sums[cols] = sq[-1]
        msq.append(float(np.cumsum(sums[:N])[-1] / N**d))
        lo = N
    msq = tuple(msq)

    ks: list[int] = []
    prev = -1
    m = 1
    while True:
        k = next((i for i in range(prev + 1, len(schedule))
                  if msq[i] < m**-3), None)
        if k is None:
            if m == 1:
                raise ScheduleInfeasibleError(
                    "no schedule point has mean square below 1")
            break
        ks.append(k)
        prev = k
        m += 1

    eval_points = schedule if schedule[-1] == size else schedule + (size,)
    shells, kept, counted = [], [], {}
    total = 0
    for m, kpos in enumerate(ks, start=1):
        lo = schedule[kpos]
        hi = schedule[ks[m]] if m < len(ks) else size
        if hi <= lo:
            continue
        shells.append((m, lo, hi))
        thr = 1.0 / m
        before = total
        # the shell ends at an evaluation point; those inside cut it
        cuts = [lo] + [N for N in eval_points if lo < N <= hi]
        for a, b in zip(cuts, cuts[1:]):
            for _, block in _shell_blocks(lattice, d, a, b):
                total += int(np.count_nonzero(np.abs(block - s) < thr))
            counted[b] = total
        kept.append(total - before)
    density = tuple(float(counted.get(N, 0) / N**d) for N in eval_points)
    return DensityRun(
        s=s, dim=d, schedule=schedule, k_positions=tuple(ks),
        shells=tuple(shells), mean_square=msq,
        eval_points=eval_points, density=density, kept=tuple(kept),
    )
