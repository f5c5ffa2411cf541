"""Transforms, partial sums, kernels: checked against brute-force sums.

The oracles avoid the library's FFT paths entirely: direct O(n^2) DFT
loops, pointwise mode sums with the same periodic Nyquist reading, and
direct convolution sums.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmeans import corpus, estimates
from strongmeans.grid import GridFunction, tensor
from strongmeans.spectral import (
    AliasingError,
    band_energy,
    box_kernel,
    centered_modes,
    convolve,
    decay_kernel,
    forward,
    modes,
    partial_sum,
    saturated_sum,
    valle_poussin,
    vp_multiplier,
)

from oracles import (
    constant,
    exponential,
    inverse,
    inverse_2d,
    partial_sum_rect,
    plancherel_average,
    plancherel_average_rect,
)


def random_function(seed, J=4, dim=1, real=False):
    rng = np.random.default_rng(seed)
    n = 1 << J
    shape = (n,) if dim == 1 else (n, n)
    s = rng.normal(size=shape)
    if not real:
        s = s + 1j * rng.normal(size=shape)
    return GridFunction(dim, J, s)


# ---------------------------------------------------------------------------
# oracles

def brute_forward(f):
    n = f.n
    H = n // 2
    return np.array(
        [
            sum(f.samples[t] * np.exp(-2j * np.pi * m * t / n) for t in range(n)) / n
            for m in range(-H, H)
        ]
    )


def brute_partial(f, N, refine):
    """Pointwise mode sum with periodic coefficient lookup."""
    n = f.n
    H = n // 2
    c = brute_forward(f)
    M = 1 << (f.J + refine)
    out = np.zeros(M, dtype=complex)
    for t in range(M):
        acc = 0
        for m in range(-N, N + 1):
            acc += c[(m + H) % n] * np.exp(2j * np.pi * m * t / M)
        out[t] = acc
    return out


# ---------------------------------------------------------------------------
# transforms

@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_forward_matches_direct_dft(seed):
    f = random_function(seed, J=4)
    assert np.allclose(forward(f), brute_forward(f), atol=1e-10)


def test_forward_of_exponential_is_one_hot():
    f = exponential(3, 5)
    c = forward(f)
    want = np.zeros(32)
    want[3 + 16] = 1.0
    assert np.allclose(c, want, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_roundtrip(seed):
    f = random_function(seed, J=5)
    g = inverse(forward(f), 5)
    assert np.allclose(g.samples, f.samples, atol=1e-10)


def test_roundtrip_2d():
    f = random_function(7, J=3, dim=2)
    g = inverse_2d(forward(f), 3)
    assert np.allclose(g.samples, f.samples, atol=1e-10)


# ---------------------------------------------------------------------------
# partial sums

@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 8))
def test_partial_sum_matches_brute(seed, N):
    f = random_function(seed, J=4)
    got = partial_sum(f, N, refine=2)
    assert got.J == 6
    assert np.allclose(got.samples, brute_partial(f, N, 2), atol=1e-8)


def test_rect_partial_sum_separates_on_tensors():
    g = random_function(3, J=4, real=True)
    h = random_function(4, J=4, real=True)
    f = tensor(g, h)
    got = partial_sum_rect(f, 3, 5, refine=1)
    a = partial_sum(g, 3, refine=1)
    b = partial_sum(h, 5, refine=1)
    assert np.allclose(got.samples, np.outer(a.samples, b.samples), atol=1e-8)


def test_partial_sum_reproduces_low_modes():
    f = exponential(3, 5)
    assert np.max(np.abs(partial_sum(f, 2).samples)) < 1e-10
    s3 = partial_sum(f, 3)
    x = np.arange(1 << 7) / (1 << 7)
    assert np.allclose(s3.samples, np.exp(2j * np.pi * 3 * x), atol=1e-10)
    g = constant(2.5, 6)
    assert np.allclose(partial_sum(g, 4).samples, 2.5, atol=1e-12)


def test_nyquist_order_reads_the_bin_twice():
    # unit spike: every coefficient is exactly 1, so the order-H sum has
    # squared norm 2H+1 on the refined grid
    J, n = 6, 64
    s = np.zeros(n)
    s[0] = n
    f = GridFunction(1, J, s)
    sat = partial_sum(f, 32, refine=2)
    assert abs(sat.l2sq() - 65.0) < 1e-9
    assert np.allclose(saturated_sum(f, refine=2).samples, sat.samples)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_every_reader_takes_the_nyquist_bin_twice(real):
    # J = 4, H = 8: each reader of the stored spectrum, at every order up to
    # and including H, against direct DFT sums and the mode-counting oracles
    J, H = 4, 8
    f = random_function(31, J=J, real=real)
    bf = brute_forward(f)  # modes -H..H-1
    c = {m: bf[(m + H) % f.n] for m in range(-H, H + 1)}  # +H reads the -H bin
    energy = [sum(abs(c[m]) ** 2 for m in range(-n, n + 1)) for n in range(H + 1)]
    for n in range(H + 1):
        want = np.array([c[m] for m in range(-n, n + 1)])
        assert np.allclose(modes(f, n), want, atol=1e-12)
        for refine in (0, 1):
            assert np.allclose(partial_sum(f, n, refine).samples,
                               brute_partial(f, n, refine), atol=1e-10)
        assert band_energy(f, n, H) == pytest.approx(energy[H] - energy[n],
                                                     rel=1e-12, abs=1e-14)
    orders = tuple(range(1, H + 1))
    for rep in estimates.averaged_moment(f, [8.0], orders)[0]:
        want = sum(energy[1:rep.N + 1]) / rep.N
        assert rep.full_torus_avg == pytest.approx(want, rel=1e-12)
        assert rep.full_torus_avg == pytest.approx(plancherel_average(f, rep.N),
                                                   rel=1e-12)
    fg = tensor(f, random_function(32, J=J, real=real))
    if not real:  # the rectangular factors stream, which takes real samples
        with pytest.raises(ValueError, match="real samples"):
            estimates.averaged_moment_rect(fg, [8.0], orders)
        return
    for rep in estimates.averaged_moment_rect(fg, [8.0], orders)[0]:
        N = rep.N
        want = np.mean([partial_sum_rect(fg, n1, n2).l2sq()
                        for n1 in range(1, N + 1) for n2 in range(1, N + 1)])
        assert rep.full_torus_avg == pytest.approx(want, rel=1e-12)
        assert rep.full_torus_avg == pytest.approx(plancherel_average_rect(fg, N),
                                                   rel=1e-12)


def test_orders_beyond_bandwidth_raise():
    f = random_function(0, J=4)
    with pytest.raises(AliasingError):
        partial_sum(f, 9)
    with pytest.raises(AliasingError):
        valle_poussin(f, 5)  # band 9 > 8


# ---------------------------------------------------------------------------
# delayed means

def test_vp_multiplier_ramp():
    got = vp_multiplier(4, np.array([0, 3, 4, 5, 6, 7, 8, 9]))
    assert got.tolist() == [1.0, 1.0, 1.0, 0.75, 0.5, 0.25, 0.0, 0.0]


def test_vp_scales_single_modes():
    for m, want in [(2, 1.0), (4, 1.0), (5, 0.75), (7, 0.25), (8, 0.0)]:
        f = exponential(m, 5)
        out = valle_poussin(f, 4)
        x = np.arange(32) / 32
        assert np.allclose(out.samples, want * np.exp(2j * np.pi * m * x), atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_vp_reproduces_functions_within_order(seed):
    rng = np.random.default_rng(seed)
    c = np.zeros(64, dtype=complex)
    for m in range(-4, 5):
        c[m + 32] = rng.normal() + 1j * rng.normal()
    f = inverse(c, 6)
    out = valle_poussin(f, 4)
    assert np.allclose(out.samples, f.samples, atol=1e-10)


def test_vp_keeps_real_functions_real():
    f = random_function(5, J=5, real=True)
    assert valle_poussin(f, 4).is_real()


def test_vp_of_tensor_smooths_each_factor():
    # the 2-d multiplier is the tensor product of the 1-d one
    cases = [(corpus.spike(7, dim=2), 8),
             (tensor(random_function(6, J=5), random_function(7, J=5)), 4)]
    for f, N in cases:
        out = valle_poussin(f, N)
        assert out.factors is not None and out.is_real() == f.is_real()
        w = vp_multiplier(N, centered_modes(f.n))
        want = inverse_2d(forward(f) * np.multiply.outer(w, w), f.J).samples
        assert np.max(np.abs(out.samples - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="separable"):
        valle_poussin(GridFunction(2, 5, np.ones((32, 32))), 4)


# ---------------------------------------------------------------------------
# kernels

def test_box_kernel_grid_mass_is_exact():
    for N in (2, 8, 32):
        k = box_kernel(N, 10)
        assert float(np.mean(k.samples)) == pytest.approx(1.0 / N**2, abs=1e-15)


def test_power_decay_requires_s_above_one():
    with pytest.raises(ValueError):
        decay_kernel(8, 8, 1.0)


@pytest.mark.parametrize("N,s", [(16, 249.0), (16, 251.0), (16, 1e308), (1024, 101.0)])
def test_power_decay_stays_finite_for_any_s(N, s):
    """Where N**s leaves the float range, N**(1-s) |x|**-s would be
    0 * inf: the kernel is N (N|x|)**-s instead, with N|x| >= 1, so it
    is finite, N near 0, and agrees with the direct product where both
    are representable (s log2 N = 996 and 1004 at N = 16)."""
    J = 12
    with np.errstate(all="raise", under="ignore"):  # the far tail may round to 0
        k = decay_kernel(N, J, s).samples
    x = np.abs(np.where(np.arange(1 << J) < 1 << (J - 1), np.arange(1 << J),
                        np.arange(1 << J) - (1 << J)) / (1 << J))
    assert np.isfinite(k).all() and (k[x < 1 / N] == N).all()
    far = x >= 1 / N
    np.testing.assert_allclose(k[far], N * (N * x[far]) ** -s, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# convolution

@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_convolve_matches_direct_sum(seed):
    f = random_function(seed, J=5, real=True)
    g = random_function(seed + 1, J=5, real=True)
    got = convolve(f, g)
    n = f.n
    want = np.array(
        [sum(f.samples[j] * g.samples[(t - j) % n] for j in range(n)) / n for t in range(n)]
    )
    assert np.allclose(got.samples, want, atol=1e-10)


# ---------------------------------------------------------------------------
# closed-form averages

def brute_average(f, N):
    H = f.n // 2
    vals = [partial_sum(f, min(n, H), refine=1).l2sq() for n in range(1, N + 1)]
    return sum(vals) / N


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 3, 8, 12]))
def test_plancherel_average_matches_sweep(seed, N):
    f = random_function(seed, J=4)
    assert plancherel_average(f, N) == pytest.approx(brute_average(f, N), rel=1e-10)


def test_plancherel_average_spike_is_linear():
    J, n = 6, 64
    s = np.zeros(n)
    s[0] = n
    f = GridFunction(1, J, s)
    assert plancherel_average(f, 32) == pytest.approx(34.0, abs=1e-12)
    assert plancherel_average(f, 64) == pytest.approx(49.5, abs=1e-12)
    assert plancherel_average(f, 64) == pytest.approx(brute_average(f, 64), rel=1e-10)


def test_plancherel_average_rect_tensor():
    # the full column of averaged_moment_rect, from the factors' energies
    g = random_function(21, J=4, real=True)
    h = random_function(22, J=4, real=True)
    f = tensor(g, h)
    reports = estimates.averaged_moment_rect(f, [8.0], (5, 8))[0]
    for rep in reports:  # 8 is the Nyquist order at J = 4
        want = plancherel_average(g, rep.N) * plancherel_average(h, rep.N)
        assert rep.full_torus_avg == pytest.approx(want, rel=1e-10)
        assert rep.full_torus_avg == pytest.approx(
            plancherel_average_rect(f, rep.N), rel=1e-10)
    # an unseparable input against the per-pair rectangular sums
    f = random_function(23, J=3, dim=2)
    for N in (2, 4):
        want = np.mean([partial_sum_rect(f, n1, n2).l2sq()
                        for n1 in range(1, N + 1) for n2 in range(1, N + 1)])
        assert plancherel_average_rect(f, N) == pytest.approx(want, rel=1e-10)


def test_band_energy_matches_difference_norm():
    f = random_function(9, J=5)
    for lo, hi in [(0, 3), (3, 9), (9, 16), (0, 16), (5, 40)]:
        a = partial_sum(f, min(hi, 16), refine=1)
        b = partial_sum(f, min(lo, 16), refine=1)
        want = float(np.mean(np.abs(a.samples - b.samples) ** 2))
        assert band_energy(f, lo, hi) == pytest.approx(want, abs=1e-10)
    with pytest.raises(ValueError):
        band_energy(f, -1, 3)
