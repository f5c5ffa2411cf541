"""Fourier transforms, partial sums, and summation kernels on dyadic grids.

Coefficients are stored centered: index i of a length-n array holds the
mode m = i - n/2, so the range is [-n/2, n/2).  Partial sums of order up
to n/2 inclusive are allowed; the order-n/2 sum reads the single stored
Nyquist bin for both modes +-n/2, which is the periodic reading of the
discrete spectrum.  Orders beyond n/2 raise AliasingError in the public
entry points; sweep engines instead saturate there, since a partial sum
of a band-limited function stops changing once the band is exhausted.

Partial sums, kernels and convolutions are one-dimensional.  Two-dimensional
functions enter only as tensor products: delayed means act on each factor,
and the rectangular energy average reads the 2-d coefficients directly.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, tensor


class AliasingError(ValueError):
    """Requested spectral order exceeds what the grid can represent."""


def centered_modes(n: int) -> np.ndarray:
    return np.arange(-(n // 2), n // 2)


def forward(f: GridFunction) -> np.ndarray:
    """Fourier coefficients with mode m at index m + n/2 (per axis)."""
    if f.dim == 1:
        return np.fft.fftshift(np.fft.fft(f.samples)) / f.n
    return np.fft.fftshift(np.fft.fft2(f.samples)) / f.n**2


def inverse(coeffs: np.ndarray, J: int) -> GridFunction:
    n = 1 << J
    if coeffs.shape != (n,):
        raise ValueError("coefficient shape does not match J")
    return GridFunction(1, J, np.fft.ifft(np.fft.ifftshift(coeffs)) * n)


def _check_order(N: int, H: int):
    if N < 0:
        raise ValueError("order must be nonnegative")
    if N > H:
        raise AliasingError(f"order {N} exceeds stored bandwidth {H}")


def partial_sum(f: GridFunction, N: int, refine: int = 2) -> GridFunction:
    """Partial sum of order N evaluated on a 2**refine finer grid."""
    if f.dim != 1:
        raise ValueError("partial sums are one-dimensional")
    H = f.n // 2
    _check_order(N, H)
    c = forward(f)
    M = 1 << (f.J + refine)
    ms = np.arange(-N, N + 1)
    b = np.zeros(M, dtype=complex)
    np.add.at(b, ms % M, c[(ms + H) % f.n])
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
    out = inverse(c, f.J)
    if f.is_real():
        out = GridFunction(1, f.J, out.samples.real)
    return out


# ---------------------------------------------------------------------------
# kernels

def _signed_points(n: int) -> np.ndarray:
    t = np.arange(n)
    return np.where(t < n // 2, t, t - n) / n


def kernel_samples(name: str, N: int, J: int, s: float | None = None) -> GridFunction:
    """Sample the box kernel or the power-decay kernel on the 1-d grid."""
    x = _signed_points(1 << J)
    if name == "power_decay":
        if s is None or s <= 1:
            raise ValueError("power_decay needs a decay exponent s > 1")
        near = np.abs(x) < 1.0 / N
        vals = np.empty(x.size)
        vals[near] = float(N)
        vals[~near] = N ** (1.0 - s) * np.abs(x[~near]) ** (-s)
        return GridFunction(1, J, vals)
    if name == "box":
        # half-open window so the cell count is exactly n/N
        half = 1.0 / (2 * N)
        vals = np.where((x >= -half) & (x < half), 1.0 / N, 0.0)
        return GridFunction(1, J, vals)
    raise ValueError(f"unknown kernel {name!r}")


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Circular convolution, reading both functions as piecewise constant."""
    if f.dim != 1 or g.dim != 1 or f.J != g.J:
        raise ValueError("convolution needs two 1-d functions on the same grid")
    samples = np.fft.ifft(np.fft.fft(f.samples) * np.fft.fft(g.samples)) / f.n
    if f.is_real() and g.is_real():
        samples = samples.real
    return GridFunction(1, f.J, samples)


# ---------------------------------------------------------------------------
# closed-form averaged second moments (full torus)

def _mode_weights(n: int, N: int) -> np.ndarray:
    """For each stored mode, how many of S_1..S_N contain it.

    The Nyquist bin enters both as +n/2 and -n/2 once n/2 <= N, hence
    the doubled weight.  Valid for every N; orders past n/2 change
    nothing, which encodes the saturation of partial sums.
    """
    H = n // 2
    ms = centered_modes(n)
    w = np.maximum(N + 1 - np.maximum(np.abs(ms), 1), 0).astype(float)
    w[0] = 2.0 * max(N + 1 - H, 0)
    return w


def plancherel_average_rect(f: GridFunction, N: int) -> float:
    """(1/N^2) sum_{n1, n2 <= N} ||S_{n1,n2} f||_2^2, exact."""
    if f.dim != 2:
        raise ValueError("needs a 2-d function")
    c = forward(f)
    w = _mode_weights(f.n, N)
    return float(w @ (c.real**2 + c.imag**2) @ w / N**2)


def band_energy(f: GridFunction, lo: int, hi: int) -> float:
    """||S_hi f - S_lo f||_2^2: energy of modes lo < |m| <= hi (1-d)."""
    if f.dim != 1:
        raise ValueError("band energy is 1-d")
    H = f.n // 2
    lo, hi = min(lo, H), min(hi, H)
    if hi <= lo:
        return 0.0
    c = forward(f)
    ms = np.abs(centered_modes(f.n))
    a = c.real**2 + c.imag**2
    mask = (ms > lo) & (ms <= hi)
    extra = a[0] if hi >= H > lo else 0.0  # Nyquist bin counts twice
    return float(np.sum(a[mask]) + extra)
