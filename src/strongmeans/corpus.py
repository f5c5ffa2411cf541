"""Deterministic corpus of test functions.

Every family is reproducible from a seed.  The 1-d families are
quantized to 24 fractional bits and then normalized so that the mean of
|samples| equals 1 *exactly* as a rational number: the stopping-time
decomposition can then run on the integer fast path and set-measure
bounds are checkable as Fractions, not as floats with slack.

Tensor factors are quantized to 12 bits per axis so the product samples
still carry at most 24 fractional bits.

Every random function is drawn in two steps: a per-function draw makes
its random number calls, in order, and keeps only the raw floats; one
call per block then does the float work (transform, magnitude,
normalization, outer product) on all rows at once.  A single function,
as in `standard_corpus`, is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .czd import FRACT_BITS
from .grid import GridFunction, tensor


def normalize_l1_exact(samples: np.ndarray, bits: int = FRACT_BITS,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Rescale and quantize each row (the last axis) so that its mean
    |sample| is 1 exactly.

    The rounding deficit (at most half a unit per sample) is dumped on
    the row's largest-magnitude sample, which keeps the perturbation
    relative size O(n * 2**-bits / max).  The result goes to `out` when
    given, a float array whose rows are contiguous; it may be the
    samples themselves only when they are nonnegative, since their
    signs are read last.
    """
    u = np.abs(samples, out=out).astype(float, copy=False)
    total = u.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("cannot normalize the zero function")
    n = samples.shape[-1]
    scale = 1 << bits
    # whole units, held as floats: every partial sum of a row is an
    # integer below 2**53, so the sums and the deficit are exact
    np.rint(np.multiply(u, n * scale / total, out=u), out=u)
    deficit = n * scale - u.sum(axis=-1, keepdims=True)
    k = np.argmax(u, axis=-1, keepdims=True)
    top = np.take_along_axis(u, k, axis=-1) + deficit
    if np.any(top <= 0):
        raise ValueError("quantization deficit exceeds the largest sample")
    np.put_along_axis(u, k, top, axis=-1)
    np.multiply(u, 1.0 / scale, out=u)
    return np.copysign(u, samples, out=u)


def spike(J: int, dim: int = 1) -> GridFunction:
    """Unit-mass indicator of the first grid cell, height 2**(J*dim)."""
    n = 1 << J
    if dim == 1:
        s = np.zeros(n)
        s[0] = n
        return GridFunction(1, J, s)
    return tensor(spike(J), spike(J))


# Raw draws and their block finishers.  A raw draw takes (J, rng, *args)
# and makes every random call of one 1-d function; the matching rows
# function takes (J, raws, bits) and returns one sample row per raw.

def _spike_cells(J: int, rng: np.random.Generator, k: int) -> tuple:
    """k distinct cells and their heights."""
    n = 1 << J
    if not 2 <= k <= n:
        raise ValueError("k out of range")
    cells = rng.choice(n, size=k, replace=False)
    return cells, rng.uniform(0.25, 1.0, size=k)


def _spike_rows(J: int, raws: list, bits: int, out=None) -> np.ndarray:
    s = np.empty((len(raws), 1 << J)) if out is None else out
    s.fill(0.0)
    for row, (cells, heights) in zip(s, raws):
        row[cells] = heights
    return normalize_l1_exact(s, bits, out=s)  # heights are positive


def _trig_coeffs(J: int, rng: np.random.Generator):
    """Real and imaginary parts of the modes 1..D, D = 2**(J-3), then
    the mean."""
    D = (1 << J) // 8
    if D < 1:
        raise ValueError("degree out of range")
    re = rng.standard_normal(D)
    im = rng.standard_normal(D)
    return re, im, rng.standard_normal()


def _trig_samples(J: int, raws: list) -> np.ndarray:
    """The real trigonometric polynomials of a block of coefficient draws,
    by one inverse FFT over the rows, in place (`out=` of the fft
    functions needs numpy 2); mode m is scaled by m**-1/2."""
    n = 1 << J
    re, im = np.array([r[0] for r in raws]), np.array([r[1] for r in raws])
    D = re.shape[1]
    amp = 1.0 / np.sqrt(np.arange(1, D + 1))
    re *= amp
    im *= amp
    # mode m sits at column m mod n: the order ifft reads
    coeffs = np.zeros((len(raws), n), dtype=complex)
    coeffs[:, 0] = [r[2] for r in raws]
    coeffs[:, 1:D + 1] = (re + 1j * im) / 2
    coeffs[:, n - 1:n - D - 1:-1] = (re - 1j * im) / 2
    return np.fft.ifft(coeffs, axis=-1, out=coeffs).real * n


def _trig_rows(J: int, raws: list, bits: int, out=None) -> np.ndarray:
    return normalize_l1_exact(_trig_samples(J, raws), bits, out=out)


def _noise(J: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(1 << J)


def _noise_rows(J: int, raws: list, bits: int, out=None) -> np.ndarray:
    s = np.stack(raws, out=out)
    return normalize_l1_exact(np.abs(s, out=s), bits, out=s)


@dataclass(frozen=True)
class Family:
    """One corpus family of dimension `dim`, drawn in blocks.

    A function of the family is `dim` factors, each drawn by
    `factor(J, rng, *args)` and finished by `rows(J, raws, bits, out)`; a
    2-d function is the outer product of its two factors, each
    quantized to FRACT_BITS // 2.  A k-spike family draws k from [2, 16]
    first, passes it to both factors and is tagged -kNN.  `least_J` is
    the least J at which every draw works.
    """

    dim: int
    factor: Callable
    rows: Callable
    k_spikes: bool = False
    least_J: int = 1

    def draw(self, J: int, rng: np.random.Generator) -> tuple[str, list]:
        """Every random call of one function, in order: its id tag and
        the raw draws of its factors."""
        tag, args = "", ()
        if self.k_spikes:
            k = int(rng.integers(2, 17))
            tag, args = f"-k{k:02d}", (k,)
        return tag, [self.factor(J, rng, *args) for _ in range(self.dim)]

    def block(self, J: int, raws: list, out: np.ndarray | None = None
              ) -> tuple[np.ndarray, list]:
        """Samples of a block of raw draws, shape (B, n) or (B, n, n),
        and the (B, n) rows of each factor.  The samples go to `out`
        when given, an array whose last axis is contiguous."""
        bits = FRACT_BITS // self.dim
        if self.dim == 1:
            rows = [self.rows(J, list(r), bits, out) for r in zip(*raws)]
            return rows[0], rows
        rows = [self.rows(J, list(r), bits) for r in zip(*raws)]
        a, b = rows
        return np.multiply(a[:, :, None], b[:, None, :], out=out), rows

    def sample(self, J: int, rng: np.random.Generator) -> tuple[str, GridFunction]:
        """One function, as a block of one: its id tag and the function."""
        tag, raw = self.draw(J, rng)
        samples, rows = self.block(J, [raw])
        if self.dim == 1:
            return tag, GridFunction(1, J, samples[0])
        a, b = (GridFunction(1, J, r[0]) for r in rows)
        return tag, GridFunction(2, J, samples[0], factors=(a, b))


def _unit_spike_rows(J: int, raws: list, bits: int, out=None) -> np.ndarray:
    return np.stack([spike(J).samples] * len(raws), out=out)


# the families of each dimension in draw order, name -> Family; the name
# is the first part of each fn_id.  The first family is the unit spike,
# which draws nothing; the rest are the random families.
# k-spikes need 16 cells per axis and trig polynomials 2**(J-3) >= 1 modes
FAMILIES = {
    1: {"spike": Family(1, lambda J, rng: None, _unit_spike_rows),
        "kspikes": Family(1, _spike_cells, _spike_rows, k_spikes=True, least_J=4),
        "trig": Family(1, _trig_coeffs, _trig_rows, least_J=3),
        "noise": Family(1, _noise, _noise_rows)},
    2: {"tspike": Family(2, lambda J, rng: None, _unit_spike_rows),
        "tkspikes": Family(2, _spike_cells, _spike_rows, k_spikes=True, least_J=4),
        "ttrig": Family(2, _trig_coeffs, _trig_rows, least_J=3)},
}


def standard_corpus(J: int, seed: int, d: int = 1,
                    n_random: int = 2) -> list[tuple[str, GridFunction]]:
    """The named function battery used by experiment sweeps.

    One spike plus n_random draws each of the random families, in a
    fixed order so ids are stable for a given (J, seed, d).
    """
    if d not in FAMILIES:
        raise ValueError("d must be 1 or 2")
    rng = np.random.default_rng(seed)
    (name, unit), *drawn = FAMILIES[d].items()
    out = [(f"{name}-J{J}", unit.sample(J, rng)[1])]
    for name, family in drawn:
        for r in range(n_random):
            tag, f = family.sample(J, rng)
            out.append((f"{name}-J{J}{tag}-r{r}", f))
    return out
