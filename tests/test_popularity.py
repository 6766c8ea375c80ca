"""Popularity models: Zipf construction, harmonic normalizer, regimes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnscale import popularity as pop
from ccnscale.popularity import HarmonicClass

from oracles import harmonic_fsum, zipf_by_harmonic


class TestHarmonic:
    def test_single_term_is_one(self):
        for alpha in (0.0, 0.5, 1.0, 2.0, 7.5):
            assert pop.harmonic(1, alpha) == 1.0

    def test_h1_of_3_is_11_sixths(self):
        assert pop.harmonic(3, 1.0) == pytest.approx(11 / 6, rel=1e-15)

    def test_alpha_zero_counts_terms(self):
        assert pop.harmonic(10**6, 0.0) == 10**6

    @given(
        m=st.integers(min_value=1, max_value=5000),
        alpha=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_compensated_sum(self, m, alpha):
        assert pop.harmonic(m, alpha) == pytest.approx(
            harmonic_fsum(m, alpha), rel=1e-13
        )

    def test_large_m_accuracy_against_fsum(self):
        # Chunked accumulation must hold 1e-12 relative accuracy at
        # catalog sizes past the chunk boundary (2^22 terms).
        m = 4_300_000
        for alpha in (0.3, 1.0, 1.7):
            assert pop.harmonic(m, alpha) == pytest.approx(
                harmonic_fsum(m, alpha), rel=1e-12
            )

    def test_monotone_in_m_and_alpha(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(1, 2000))
            alpha = float(rng.uniform(0, 3))
            h = pop.harmonic(m, alpha)
            assert pop.harmonic(m + int(rng.integers(1, 50)), alpha) >= h
            assert pop.harmonic(m, alpha + float(rng.uniform(0.01, 1))) <= h

    def test_convergent_regime_ratio_flattens(self):
        # alpha > 1: H(2M)/H(M) -> 1 within 1% once the M^(1-alpha) tail
        # has decayed; the slowest case tested (alpha=1.2) needs M = 1e6.
        for alpha in (1.2, 1.5, 2.0):
            ratio = pop.harmonic(2 * 10**6, alpha) / pop.harmonic(10**6, alpha)
            assert abs(ratio - 1.0) < 0.01

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pop.harmonic(0, 1.0)
        with pytest.raises(ValueError):
            pop.harmonic(5, -0.2)


class TestHarmonicClass:
    def test_growth_class_per_exponent_band(self):
        assert pop.harmonic_class(1.2).kind is HarmonicClass.CONSTANT
        assert pop.harmonic_class(1.0).kind is HarmonicClass.LOG
        reg = pop.harmonic_class(0.8)
        assert reg.kind is HarmonicClass.POWER
        assert reg.exponent == pytest.approx(0.2)

    def test_boundary_tolerance(self):
        assert pop.harmonic_class(1.0 + 5e-13).kind is HarmonicClass.LOG
        assert pop.harmonic_class(1.0 - 5e-13).kind is HarmonicClass.LOG
        assert pop.harmonic_class(1.0 + 5e-12).kind is HarmonicClass.CONSTANT
        assert pop.harmonic_class(1.0 - 5e-12).kind is HarmonicClass.POWER

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            pop.harmonic_class(-0.1)


class TestZipf:
    def test_single_content(self):
        model = pop.zipf(1, 2.0)
        assert model.p.tolist() == [1.0]

    def test_alpha_zero_uniform(self):
        model = pop.zipf(4, 0.0)
        assert model.p.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_m3_alpha1(self):
        model = pop.zipf(3, 1.0)
        np.testing.assert_allclose(model.p, [6 / 11, 3 / 11, 2 / 11], rtol=1e-14)

    def test_rejects_empty_catalog(self):
        with pytest.raises(ValueError):
            pop.zipf(0, 1.0)
        with pytest.raises(ValueError):
            pop.zipf(3, -1.0)

    @given(
        m=st.integers(min_value=1, max_value=300),
        alpha=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_model_invariants(self, m, alpha):
        model = pop.zipf(m, alpha)
        assert model.m_count == m
        assert abs(float(model.p.sum()) - 1.0) <= 1e-12
        assert np.all(model.p > 0)
        assert np.all(np.diff(model.p) <= 0)
        if alpha >= 1e-6 and m > 1:
            # strictly decreasing (below ~1e-17 the powers round to
            # equal floats, so the strict check needs a representable alpha)
            assert np.all(np.diff(model.p) < 0)

    # Sizes around the _fsum/kkt block (2**15), the largest sample-config
    # catalog (n = 10**6, beta = 0.9) and the first size past one harmonic
    # chunk; exponents that take numpy's scalar-power fast paths (0, -1)
    # and the general one.
    @pytest.mark.parametrize(
        "m", [1, 2, 2**15 - 1, 2**15 + 1, 251_189, pop._HARMONIC_CHUNK + 1]
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.2, 2.0])
    def test_same_bits_as_harmonic_form(self, m, alpha):
        assert np.array_equal(pop.zipf(m, alpha).p, zipf_by_harmonic(m, alpha))

    def test_past_one_harmonic_chunk_holds_p_alone(self):
        # p, the one-byte-per-content mask of the model's monotonicity
        # check, and no chunked rebuild of the terms for the normalizer.
        m, alpha = pop._HARMONIC_CHUNK + 1, 0.8
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            p = pop.zipf(m, alpha).p
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * p.nbytes
        assert abs(float(p.sum()) - 1.0) <= 1e-12
        k = np.array([1, 2, 999, 2**20, m - 1])
        np.testing.assert_allclose(p[k] / p[0], (k + 1.0) ** -alpha, rtol=1e-12)

    def test_explicit_ratio_follows_power_law(self):
        model = pop.zipf(50, 1.3)
        for m in (2, 7, 49):
            assert model.p[0] / model.p[m - 1] == pytest.approx(m**1.3, rel=1e-12)


class TestFromWeights:
    def test_sorts_and_normalizes(self):
        model = pop.from_weights([2.0, 6.0, 3.0, 1.0])
        np.testing.assert_allclose(model.p, [0.5, 0.25, 1 / 6, 1 / 12], rtol=1e-14)
        assert model.order.tolist() == [1, 2, 0, 3]
        assert model.alpha is None

    def test_tied_weights_keep_caller_order(self):
        model = pop.from_weights([1.0, 1.0, 1.0])
        assert model.order.tolist() == [0, 1, 2]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pop.from_weights([1.0, 0.0])
        with pytest.raises(ValueError):
            pop.from_weights([])

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            pop.PopularityModel(p=np.array([0.2, 0.3, 0.5]))  # increasing
        with pytest.raises(ValueError):
            pop.PopularityModel(p=np.array([0.6, 0.5]))  # sums to 1.1
        ok = pop.PopularityModel(p=np.array([0.5, 0.3, 0.2]))
        assert ok.order is None  # the identity


def test_harmonic_class_drives_growth_of_harmonic():
    """Empirical growth of H matches the declared regime."""
    # CONSTANT: bounded as M doubles.
    assert pop.harmonic(2 * 10**5, 1.4) / pop.harmonic(10**5, 1.4) < 1.01
    # LOG: H(M) - ln(M) converges to the Euler-Mascheroni constant.
    gamma = 0.5772156649015329
    assert pop.harmonic(10**7, 1.0) - math.log(10**7) == pytest.approx(
        gamma, abs=1e-7
    )
    # POWER: H(4M) ~ 4^(1-alpha) H(M).
    grow = pop.harmonic(4 * 10**5, 0.5) / pop.harmonic(10**5, 0.5)
    assert grow == pytest.approx(2.0, rel=0.01)
