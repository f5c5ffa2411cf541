"""Deterministic corpus of test functions.

Every family is reproducible from a seed.  The 1-d families are
quantized to 24 fractional bits and then normalized so that the mean of
|samples| equals 1 *exactly* as a rational number: the stopping-time
decomposition can then run on the integer fast path and set-measure
bounds are checkable as Fractions, not as floats with slack.

Tensor factors are quantized to 12 bits per axis so the product samples
still carry at most 24 fractional bits.
"""

from __future__ import annotations

import numpy as np

from .czd import FRACT_BITS
from .grid import GridFunction, tensor

FACTOR_BITS = FRACT_BITS // 2


def normalize_l1_exact(samples: np.ndarray, bits: int = FRACT_BITS) -> np.ndarray:
    """Rescale and quantize so that mean(|samples|) == 1 exactly.

    The rounding deficit (at most half a unit per sample) is dumped on
    the largest-magnitude sample, which keeps the perturbation relative
    size O(n * 2**-bits / max).
    """
    a = np.abs(samples).astype(float)
    total = a.sum()
    if total <= 0:
        raise ValueError("cannot normalize the zero function")
    scale = 1 << bits
    u = np.rint(a * (samples.size * scale / total)).astype(np.int64)
    deficit = samples.size * scale - int(u.sum())
    k = np.unravel_index(int(np.argmax(u)), u.shape)
    if u[k] + deficit <= 0:
        raise ValueError("quantization deficit exceeds the largest sample")
    u[k] += deficit
    signs = np.where(np.signbit(samples), -1.0, 1.0)
    return signs * (u / scale)


def spike(J: int, dim: int = 1, cell: int = 0) -> GridFunction:
    """Unit-mass indicator of a single grid cell, height 2**(J*dim)."""
    n = 1 << J
    if dim == 1:
        s = np.zeros(n)
        s[cell] = n
        return GridFunction(1, J, s)
    return tensor(spike(J, 1, cell), spike(J, 1, cell))


def multi_spike(J: int, k: int, rng: np.random.Generator,
                bits: int = FRACT_BITS) -> GridFunction:
    """k distinct cells with random heights, unit L1 mass."""
    n = 1 << J
    if not 2 <= k <= n:
        raise ValueError("k out of range")
    cells = rng.choice(n, size=k, replace=False)
    s = np.zeros(n)
    s[cells] = rng.uniform(0.25, 1.0, size=k)
    return GridFunction(1, J, normalize_l1_exact(s, bits))


def trig_poly(J: int, rng: np.random.Generator, degree: int | None = None,
              quantized: bool = True, bits: int = FRACT_BITS) -> GridFunction:
    """Real random trigonometric polynomial of degree <= 2**(J-3).

    Coefficients decay like m**-1/2 so the sample paths are rough but
    integrable-looking.  With quantized=True (the corpus default) the
    samples are snapped to the dyadic grid and exactly normalized; this
    trades exact band-limitedness for exact set arithmetic.
    """
    n = 1 << J
    D = n // 8 if degree is None else degree
    if not 1 <= D < n // 2:
        raise ValueError("degree out of range")
    ms = np.arange(1, D + 1)
    amp = 1.0 / np.sqrt(ms)
    re = rng.standard_normal(D) * amp
    im = rng.standard_normal(D) * amp
    coeffs = np.zeros(n, dtype=complex)
    H = n // 2
    coeffs[H] = rng.standard_normal()
    coeffs[H + ms] = (re + 1j * im) / 2
    coeffs[H - ms] = (re - 1j * im) / 2
    s = np.fft.ifft(np.fft.ifftshift(coeffs)).real * n
    if not quantized:
        return GridFunction(1, J, s / np.mean(np.abs(s)))
    return GridFunction(1, J, normalize_l1_exact(s, bits))


def abs_noise(J: int, rng: np.random.Generator,
              bits: int = FRACT_BITS) -> GridFunction:
    """|white noise|, unit L1 mass."""
    s = np.abs(rng.standard_normal(1 << J))
    return GridFunction(1, J, normalize_l1_exact(s, bits))


def tensor_multi_spike(J: int, k: int, rng: np.random.Generator) -> GridFunction:
    return tensor(multi_spike(J, k, rng, FACTOR_BITS),
                  multi_spike(J, k, rng, FACTOR_BITS))


def tensor_trig(J: int, rng: np.random.Generator) -> GridFunction:
    return tensor(trig_poly(J, rng, bits=FACTOR_BITS),
                  trig_poly(J, rng, bits=FACTOR_BITS))


def _draw(make, k_spikes: bool = False):
    """A family's draw(J, rng) -> (id tag, function).  A k-spike family
    draws k from [2, 16] first and is tagged -kNN."""
    def draw(J, rng):
        if not k_spikes:
            return "", make(J, rng)
        k = int(rng.integers(2, 17))
        return f"-k{k:02d}", make(J, k, rng)
    return draw


# the families of each dimension in draw order, name -> draw; the name is
# the first part of each fn_id.  The first family is the unit spike,
# which draws nothing; the rest are the random families.
FAMILIES = {
    1: {"spike": _draw(lambda J, rng: spike(J)),
        "kspikes": _draw(multi_spike, k_spikes=True),
        "trig": _draw(trig_poly), "noise": _draw(abs_noise)},
    2: {"tspike": _draw(lambda J, rng: spike(J, 2)),
        "tkspikes": _draw(tensor_multi_spike, k_spikes=True),
        "ttrig": _draw(tensor_trig)},
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
    (name, draw), *drawn = FAMILIES[d].items()
    out = [(f"{name}-J{J}", draw(J, rng)[1])]
    for name, draw in drawn:
        for r in range(n_random):
            tag, f = draw(J, rng)
            out.append((f"{name}-J{J}{tag}-r{r}", f))
    return out
