import math

import mpmath as mp
import numpy as np
import pytest

from memdiff import (ConvergenceError, DomainError, MLParams, SeriesControl,
                     log_gamma, prabhakar_ml, reg_lower_inc_gamma)
from memdiff import special


class TestLogGamma:
    def test_integer_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-15)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [1e-6, 0.1, 0.5, 1.5, 2.0, 7.3, 100.0,
                                   1e3, 1e5, 1e6])
    def test_relative_accuracy_against_mpmath(self, x):
        mp.mp.dps = 40
        ref = float(mp.loggamma(mp.mpf(x)))
        if ref == 0.0:
            assert abs(log_gamma(x)) <= 1e-13
        else:
            assert abs(log_gamma(x) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestRegLowerIncGamma:
    def test_at_zero(self):
        assert reg_lower_inc_gamma(0.7, 0.0) == 0.0

    def test_mu_one_closed_form(self):
        for x in (0.1, 1.0, 5.0, 40.0):
            assert reg_lower_inc_gamma(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), abs=1e-13)
        assert reg_lower_inc_gamma(1.0, 1.0) == pytest.approx(
            0.6321205588285577, abs=1e-13)

    def test_half_is_erf(self):
        assert reg_lower_inc_gamma(0.5, 1.0) == pytest.approx(
            math.erf(1.0), abs=1e-13)
        for x in (0.2, 2.0, 9.0):
            assert reg_lower_inc_gamma(0.5, x) == pytest.approx(
                math.erf(math.sqrt(x)), abs=1e-13)

    def test_frozen_goldens(self):
        # 50-digit reference values
        assert reg_lower_inc_gamma(0.3, 2.5) == pytest.approx(
            0.9881546781546886624584383, abs=1e-12)
        assert reg_lower_inc_gamma(0.8, 0.3) == pytest.approx(
            0.3600595808880584447670386, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.8, 1.0])
    def test_absolute_accuracy_against_mpmath(self, mu):
        mp.mp.dps = 40
        for x in (1e-8, 1e-3, 0.4, mu + 0.99, mu + 1.01, 3.0, 17.0, 250.0):
            ref = float(mp.gammainc(mp.mpf(mu), 0, mp.mpf(x), regularized=True))
            assert abs(reg_lower_inc_gamma(mu, x) - ref) <= 1e-12

    @pytest.mark.parametrize("mu", [0.2, 0.6, 1.0])
    def test_monotone_and_bounded(self, mu):
        xs = np.linspace(0.0, 60.0, 301)
        vals = [reg_lower_inc_gamma(mu, x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(1.5, 1.0)
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(0.5, -1.0)


class TestPrabhakarML:
    def test_value_at_zero_is_inverse_factorial(self):
        for k in (0, 1, 2, 5, 20):
            expected = math.exp(-math.lgamma(k + 1.0))
            assert prabhakar_ml(MLParams(0.5, k), 0.0) == expected

    def test_frozen_golden(self):
        # 50-digit partial sum of the defining series
        assert prabhakar_ml(MLParams(0.5, 2), 1.5) == pytest.approx(
            1.019441336305306801230853, rel=1e-12)

    def test_cosh_identity(self):
        # first index 2, second 1: E(z) = cosh(sqrt z) for z >= 0
        assert prabhakar_ml(MLParams(1.0, 0), 1.0) == pytest.approx(
            math.cosh(1.0), rel=1e-12)
        for z in np.linspace(0.0, 100.0, 41):
            got = prabhakar_ml(MLParams(1.0, 0), float(z))
            assert got == pytest.approx(math.cosh(math.sqrt(z)), abs=1e-10 * math.cosh(math.sqrt(z)))

    def test_cos_identity(self):
        assert prabhakar_ml(MLParams(1.0, 0), -1.0) == pytest.approx(
            math.cos(1.0), rel=1e-12)
        for z in np.linspace(-100.0, 0.0, 41):
            got = prabhakar_ml(MLParams(1.0, 0), float(z))
            assert got == pytest.approx(math.cos(math.sqrt(-z)), abs=1e-10)

    @pytest.mark.parametrize("mu,k", [(0.3, 0), (0.5, 1), (0.8, 3), (1.0, 2)])
    def test_monotone_for_nonnegative_argument(self, mu, k):
        zs = np.linspace(0.0, 100.0, 26)
        vals = [prabhakar_ml(MLParams(mu, k), float(z)) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mu,k", [(0.3, 0), (0.5, 2), (1.0, 0)])
    @pytest.mark.parametrize("z", [-100.0, -31.4, 10.0, 100.0])
    def test_truncation_met_inside_declared_domain(self, mu, k, z):
        # Terms decay (entire function), so the truncation criterion is met
        # for every |z| <= 100; the only admissible failure is the honest
        # precision guard on strongly alternating sums.
        try:
            prabhakar_ml(MLParams(mu, k), z)
        except ConvergenceError as exc:
            assert exc.reason == "precision"
            assert z < 0.0

    def test_term_overflow_raises(self):
        with pytest.raises(ConvergenceError) as info:
            prabhakar_ml(MLParams(0.9, 0), 1e9)
        assert info.value.reason == "overflow"

    def test_max_terms_exhaustion_carries_last_term(self):
        with pytest.raises(ConvergenceError) as info:
            prabhakar_ml(MLParams(0.5, 0), 80.0, SeriesControl(max_terms=16))
        assert info.value.reason == "max_terms"
        assert info.value.last_term is not None and info.value.last_term > 0.0

    def test_param_validation(self):
        with pytest.raises(DomainError):
            MLParams(0.0, 0)
        with pytest.raises(DomainError):
            MLParams(1.2, 0)
        with pytest.raises(DomainError):
            MLParams(0.5, -1)
        with pytest.raises(DomainError):
            prabhakar_ml(MLParams(0.5, 0), math.inf)

    def test_control_validation(self):
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=0.0)
        with pytest.raises(DomainError):
            SeriesControl(max_terms=8)
        with pytest.raises(DomainError):
            SeriesControl(consecutive_small=1)


class TestRegLowerIncGammaArray:
    @pytest.mark.parametrize("mu", [0.05, 1.0])
    def test_array_equals_one_point_calls(self, mu):
        # 8000 points on both sides of the series / continued-fraction switch
        # at x = mu + 1, including the switch itself and its lower neighbour
        xs = np.concatenate([np.linspace(0.0, 4.0 * (mu + 1.0), 7998),
                             [np.nextafter(mu + 1.0, 0.0), mu + 1.0]])
        table = reg_lower_inc_gamma(mu, xs)
        assert table.shape == (8000,)
        for i in list(range(0, 8000, 16)) + [7998, 7999]:
            assert table[i] == reg_lower_inc_gamma(mu, float(xs[i])), xs[i]

    def test_shape_and_scalar_type_follow_the_argument(self):
        assert isinstance(reg_lower_inc_gamma(0.5, 1.0), float)
        got = reg_lower_inc_gamma(0.5, np.array([[0.0, 1.0], [2.0, 50.0]]))
        assert got.shape == (2, 2)
        assert got[0, 0] == 0.0

    def test_array_domain(self):
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(0.5, np.array([1.0, math.nan]))
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(0.5, np.array([1.0, -1e-300]))


class TestCoefficientCache:
    def test_small_argument_fills_one_chunk(self):
        mu, k = 0.4375, 3
        special._COEFF_CACHE.pop((mu, k), None)
        prabhakar_ml(MLParams(mu, k), 0.5)
        _, _, n_terms = special._prabhakar_full(MLParams(mu, k), 0.5,
                                                special.DEFAULT_SERIES_CONTROL)
        assert len(special._COEFF_CACHE[(mu, k)]) <= n_terms + special._CHUNK

    def test_grown_cache_holds_the_series_coefficients(self):
        # z = 100 at mu = 0.3 needs more terms than one chunk, so the list
        # grows in the middle of the evaluation
        mu, k = 0.3, 0
        special._COEFF_CACHE.pop((mu, k), None)
        for z in (0.5, 100.0):
            prabhakar_ml(MLParams(mu, k), z)
        coeffs = special._COEFF_CACHE[(mu, k)]
        assert len(coeffs) > special._CHUNK
        assert coeffs == [math.lgamma(k + n + 1.0) - math.lgamma(n + 1.0)
                          - math.lgamma(n * (mu + 1.0) + k + 1.0)
                          for n in range(len(coeffs))]

    def test_key_count_is_bounded(self, monkeypatch):
        monkeypatch.setattr(special, "_COEFF_CACHE", {})
        mus = [0.05 + 0.0008 * i for i in range(1100)]
        first = prabhakar_ml(MLParams(mus[0], 0), 0.5)
        for mu in mus[1:]:
            prabhakar_ml(MLParams(mu, 0), 0.5)
            assert len(special._COEFF_CACHE) <= special._COEFF_CACHE_KEYS
        assert len(special._COEFF_CACHE) == special._COEFF_CACHE_KEYS
        # the oldest keys went first
        assert (mus[0], 0) not in special._COEFF_CACHE
        assert (mus[-1], 0) in special._COEFF_CACHE
        again = prabhakar_ml(MLParams(mus[0], 0), 0.5)
        assert float.hex(again) == float.hex(first)
