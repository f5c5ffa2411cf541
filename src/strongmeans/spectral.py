"""Fourier transforms, partial sums, and summation kernels on dyadic grids.

Coefficients are stored centered: index i of a length-n array holds the
mode m = i - n/2, so the range is [-n/2, n/2).  Partial sums of order up
to n/2 inclusive are allowed.  `modes` is the one reader of the stored
spectrum up to that order: at order n/2 it reads the single stored
Nyquist bin for both modes +-n/2, which is the periodic reading of the
discrete spectrum, and every partial sum, band energy and closed form
takes its coefficients from it.  Orders beyond n/2 raise AliasingError.

Partial sums, the kernels `box_kernel` and `decay_kernel`, and
convolutions are one-dimensional.  Two-dimensional functions enter only
as tensor products: delayed means act on each factor, and rectangular
averages are products of the factors' 1-d averages.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction, tensor


class AliasingError(ValueError):
    """Requested spectral order exceeds what the grid can represent."""


def centered_modes(n: int) -> np.ndarray:
    return np.arange(-(n // 2), n // 2)


def forward(f: GridFunction) -> np.ndarray:
    """Fourier coefficients with mode m at index m + n/2 (per axis)."""
    return np.fft.fftshift(np.fft.fftn(f.samples)) / f.n**f.dim


def modes(f: GridFunction, N: int) -> np.ndarray:
    """Coefficients of the 1-d modes -N..N: entry N + m is mode m.

    The one reader of the stored spectrum up to the bandwidth H = n/2:
    at N = H the modes +-H both read the single stored Nyquist bin.
    """
    H = f.n // 2
    if N < 0:
        raise ValueError("order must be nonnegative")
    if N > H:
        raise AliasingError(f"order {N} exceeds stored bandwidth {H}")
    return forward(f)[(np.arange(-N, N + 1) + H) % f.n]


def partial_sum(f: GridFunction, N: int, refine: int = 2) -> GridFunction:
    """Partial sum of order N evaluated on a 2**refine finer grid."""
    if f.dim != 1:
        raise ValueError("partial sums are one-dimensional")
    c = modes(f, N)
    M = 1 << (f.J + refine)
    b = np.zeros(M, dtype=complex)
    np.add.at(b, np.arange(-N, N + 1) % M, c)
    samples = np.fft.ifft(b) * M
    return GridFunction(1, f.J + refine, samples)


def saturated_sum(f: GridFunction, refine: int = 2) -> GridFunction:
    """The stable limit of the partial sums: order n/2 on the finer grid."""
    return partial_sum(f, f.n // 2, refine)


def vp_multiplier(N: int, m) -> np.ndarray:
    """Trapezoid multiplier: 1 on |m|<=N, linear down to 0 at |m|=2N."""
    a = np.abs(np.asarray(m))
    ramp = (2 * N - a) / N
    return np.where(a <= N, 1.0, np.where(a <= 2 * N - 1, ramp, 0.0))


def valle_poussin(f: GridFunction, N: int) -> GridFunction:
    """Delayed-mean smoothing of f; reproduces every mode up to N.

    The result lives on the same grid, so its band 2N-1 must fit the
    stored bandwidth n/2.  The multiplier of a 2-d delayed mean is the
    tensor product of the 1-d one, so a separable f is smoothed factor
    by factor and stays separable.
    """
    if f.dim == 2:
        if f.factors is None:
            raise ValueError("2-d delayed means need a separable function")
        a, b = f.factors
        return tensor(valle_poussin(a, N), valle_poussin(b, N))
    H = f.n // 2
    if N < 1:
        raise ValueError("order must be positive")
    if 2 * N - 1 > H:
        raise AliasingError(f"band {2 * N - 1} exceeds stored bandwidth {H}")
    c = forward(f) * vp_multiplier(N, centered_modes(f.n))
    samples = np.fft.ifft(np.fft.ifftshift(c)) * f.n
    return GridFunction(1, f.J, samples.real if f.is_real() else samples)


# ---------------------------------------------------------------------------
# kernels

def _signed_points(n: int) -> np.ndarray:
    t = np.arange(n)
    return np.where(t < n // 2, t, t - n) / n


def box_kernel(N: int, J: int) -> GridFunction:
    """The box kernel B_N of mass 1/N**2, sampled on the 1-d grid."""
    x = _signed_points(1 << J)
    # half-open window so the cell count is exactly n/N
    half = 1.0 / (2 * N)
    return GridFunction(1, J, np.where((x >= -half) & (x < half), 1.0 / N, 0.0))


def decay_kernel(N: int, J: int, s: float) -> GridFunction:
    """The power-decay kernel min(N, N**(1-s) |x|**-s), s > 1, on the 1-d grid."""
    if s <= 1:
        raise ValueError("the power-decay kernel needs a decay exponent s > 1")
    x = _signed_points(1 << J)
    near = np.abs(x) < 1.0 / N
    vals = np.empty(x.size)
    vals[near] = float(N)
    if s * math.log2(N) < 1000:  # N**(1-s) and N**s stay normal floats
        vals[~near] = N ** (1.0 - s) * np.abs(x[~near]) ** (-s)
    else:  # the same values as N (N|x|)**-s, N|x| >= 1, which cannot overflow
        vals[~near] = N * (N * np.abs(x[~near])) ** (-s)
    return GridFunction(1, J, vals)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Circular convolution, reading both functions as piecewise constant."""
    if f.dim != 1 or g.dim != 1 or f.J != g.J:
        raise ValueError("convolution needs two 1-d functions on the same grid")
    samples = np.fft.ifft(np.fft.fft(f.samples) * np.fft.fft(g.samples)) / f.n
    if f.is_real() and g.is_real():
        samples = samples.real
    return GridFunction(1, f.J, samples)


def band_energy(f: GridFunction, lo: int, hi: int) -> float:
    """||S_hi f - S_lo f||_2^2: energy of modes lo < |m| <= hi (1-d)."""
    if f.dim != 1:
        raise ValueError("band energy is 1-d")
    if lo < 0:
        raise ValueError("order must be nonnegative")
    H = f.n // 2
    lo, hi = min(lo, H), min(hi, H)
    if hi <= lo:
        return 0.0
    c = modes(f, hi)
    a = c.real**2 + c.imag**2
    return float(np.sum(a[:hi - lo]) + np.sum(a[hi + lo + 1:]))
