"""Corpus generators: exact normalization, determinism, family shapes."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmeans import czd, spectral
from strongmeans.corpus import FAMILIES, normalize_l1_exact, spike, standard_corpus

from oracles import trig_poly


def exact_mean_abs(samples: np.ndarray, bits: int) -> Fraction:
    """Fraction-arithmetic oracle for mean |f|; floats must be dyadic."""
    scale = 1 << bits
    total = Fraction(0)
    for v in samples.flat:
        u = Fraction(abs(float(v))) * scale
        assert u.denominator == 1, "sample is not on the dyadic grid"
        total += u
    return total / (samples.size * scale)


def test_normalize_exact_unit_mean():
    rng = np.random.default_rng(1)
    s = normalize_l1_exact(rng.standard_normal(256) * 3.7)
    assert exact_mean_abs(s, czd.FRACT_BITS) == 1


def test_normalize_preserves_signs():
    raw = np.array([1.5, -2.0, 0.25, -0.125])
    s = normalize_l1_exact(raw, bits=8)
    assert np.all(np.sign(s) == np.sign(raw))


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize_l1_exact(np.zeros(16))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 9))
def test_normalize_exact_over_random_inputs(seed, logn):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(1 << logn) * rng.uniform(0.01, 50.0)
    s = normalize_l1_exact(raw)
    assert exact_mean_abs(s, czd.FRACT_BITS) == 1


def test_spike_shape():
    f = spike(6)
    assert f.samples[0] == 64 and np.count_nonzero(f.samples) == 1
    assert exact_mean_abs(f.samples, 0) == 1


def test_spike_tensor():
    f = spike(4, dim=2)
    assert f.dim == 2 and f.samples[0, 0] == 256
    assert f.factors is not None
    assert exact_mean_abs(f.samples, 0) == 1


def test_multi_spike_support_and_mass():
    tag, f = FAMILIES[1]["kspikes"].sample(8, np.random.default_rng(3))
    k = int(tag.removeprefix("-k"))
    assert 2 <= k <= 16 and np.count_nonzero(f.samples) == k
    assert np.all(f.samples >= 0)
    assert exact_mean_abs(f.samples, czd.FRACT_BITS) == 1


def test_trig_poly_unquantized_band():
    D = 16  # 2**(7-3)
    f = trig_poly(7, np.random.default_rng(4), D)
    assert f.is_real()
    assert spectral.band_energy(f, D, f.n // 2) < 1e-20
    assert abs(f.l1() - 1.0) < 1e-12


def test_trig_poly_quantized_exact_mass():
    _, f = FAMILIES[1]["trig"].sample(9, np.random.default_rng(5))
    assert f.is_real()
    assert exact_mean_abs(f.samples, czd.FRACT_BITS) == 1


def test_abs_noise_nonnegative_unit():
    _, f = FAMILIES[1]["noise"].sample(9, np.random.default_rng(6))
    assert np.all(f.samples >= 0)
    assert exact_mean_abs(f.samples, czd.FRACT_BITS) == 1


def test_tensor_multi_spike_is_outer_product():
    _, f = FAMILIES[2]["tkspikes"].sample(5, np.random.default_rng(7))
    a, b = f.factors
    assert np.array_equal(f.samples, np.outer(a.samples, b.samples))
    # 12-bit factors keep the product on the 24-bit grid with unit mass
    assert exact_mean_abs(a.samples, czd.FRACT_BITS // 2) == 1
    assert exact_mean_abs(f.samples, czd.FRACT_BITS) == 1


def test_corpus_functions_take_exact_cz_path():
    for _, f in standard_corpus(8, seed=11, d=1):
        assert czd.decompose(f, 4.0).exact


def test_standard_corpus_deterministic():
    a = standard_corpus(9, seed=42, d=1)
    b = standard_corpus(9, seed=42, d=1)
    assert [i for i, _ in a] == [i for i, _ in b]
    for (_, fa), (_, fb) in zip(a, b):
        assert np.array_equal(fa.samples, fb.samples)
    c = standard_corpus(9, seed=43, d=1)
    assert any(
        not np.array_equal(fa.samples, fc.samples)
        for (_, fa), (_, fc) in zip(a[1:], c[1:])
    )


def test_standard_corpus_2d():
    fam = standard_corpus(5, seed=2, d=2, n_random=1)
    assert [i for i, _ in fam] == ["tspike-J5", "tkspikes-J5-k14-r0", "ttrig-J5-r0"]
    for _, f in fam:
        assert f.dim == 2 and f.factors is not None
