import math

import mpmath as mp
import numpy as np
import pytest

from memdiff import (ConvergenceError, DomainError, MLParams, SeriesControl,
                     prabhakar_ml, reg_lower_inc_gamma)
from memdiff import special
from conftest import error_record


class TestLogGamma:
    """The series builds its coefficients from libm's lgamma."""

    def test_integer_values(self):
        assert math.lgamma(1.0) == 0.0
        assert math.lgamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-15)

    def test_half(self):
        assert math.lgamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [1e-6, 0.1, 0.5, 1.5, 2.0, 7.3, 100.0,
                                   1e3, 1e5, 1e6])
    def test_relative_accuracy_against_mpmath(self, x):
        mp.mp.dps = 40
        ref = float(mp.loggamma(mp.mpf(x)))
        if ref == 0.0:
            assert abs(math.lgamma(x)) <= 1e-13
        else:
            assert abs(math.lgamma(x) - ref) <= 1e-13 * abs(ref)


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


def _series_reference(mu: float, k: int, z: float) -> float:
    """E(mu, k; z) by its defining series at 40 digits."""
    with mp.workdps(40):
        a, z = mp.mpf(mu) + 1, mp.mpf(z)
        total, n = mp.mpf(0), 0
        while True:
            term = mp.binomial(k + n, n) * z ** n / mp.gamma(n * a + k + 1)
            total += term
            if n > 2 * abs(z) and abs(term) < mp.mpf(10) ** -45:
                return float(total)
            n += 1


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

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.7])
    def test_stated_domain_for_negative_argument(self, mu):
        # inside |z|^{1/(mu+1)} = 13 the value matches the defining series
        # within its own error estimate; at 16 the precision guard raises
        p = MLParams(mu, 0)
        z = -(13.0 ** (mu + 1.0))
        value, est, _ = special._prabhakar_full(
            p, z, special.DEFAULT_SERIES_CONTROL)
        assert prabhakar_ml(p, z) == value
        ref = _series_reference(mu, 0, z)
        assert abs(value - ref) <= est
        assert abs(value - ref) <= 1e-7 * abs(ref)
        with pytest.raises(ConvergenceError) as info:
            prabhakar_ml(p, -(16.0 ** (mu + 1.0)))
        assert info.value.reason == "precision"

    def test_term_overflow_raises(self):
        with pytest.raises(ConvergenceError) as info:
            prabhakar_ml(MLParams(0.9, 0), 1e9)
        assert info.value.reason == "overflow"

    def test_overflow_raises_as_the_scalar_walk(self):
        # memdiff eval-ml -m 0.5 -k 0 -z 30000
        with pytest.raises(ConvergenceError) as info:
            special._prabhakar_full(MLParams(0.5, 0), 30000.0,
                                    special.DEFAULT_SERIES_CONTROL)
        assert error_record(info.value) == (
            ConvergenceError,
            "series term overflows for z=30000.0 (mu=0.5, k=0)",
            "overflow", 233, "inf")

    def test_pairs_engine_is_the_one_pair_call(self):
        # converging, alternating, z = 0, overflowing and max_terms pairs
        ctl = SeriesControl(max_terms=64)
        ks = np.array([0, 3, 3, 7, 0, 2, 0, 5])
        zs = np.array([1.5, -31.4, 0.0, 60.0, 1e9, -2.0, 80.0, 0.3])
        for mu in (0.05, 0.5, 1.0):
            values, ests, n_terms, failures = special._prabhakar_pairs(
                mu, ks, zs, ctl)
            for i, (k, z) in enumerate(zip(ks.tolist(), zs.tolist())):
                try:
                    one = special._prabhakar_scaled(mu, k, z, ctl)
                except ConvergenceError as exc:
                    assert error_record(failures[i]) == error_record(exc)
                    continue
                assert i not in failures
                assert (float.hex(float(values[i])), float.hex(float(ests[i])),
                        int(n_terms[i])) == (float.hex(one[0]),
                                             float.hex(one[1]), one[2])
            assert failures  # the sample reaches the failure paths

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
    """The series' log-coefficients, computed per call: memdiff keeps no
    coefficient cache between calls."""

    @pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 0.77, 1.0])
    def test_log_factorial_table_keeps_the_three_lgamma_bits(self, mu):
        ks = [0, 3, 17, 60]
        log_fact = [math.lgamma(m + 1.0) for m in range(max(ks) + 201)]
        for n in (0, 1, 2, 63, 64, 65, 127, 200):
            coeffs = special._log_coeffs(mu, ks, n, log_fact)
            for k, got in zip(ks, coeffs.tolist()):
                three = (math.lgamma(k + n + 1.0) - math.lgamma(n + 1.0)
                         - math.lgamma(n * (mu + 1.0) + k + 1.0))
                assert float.hex(got) == float.hex(three)

    def test_long_series_keeps_its_bits(self):
        # bits of the cached walk this replaced, whose 68 terms crossed one
        # of its 64-coefficient chunks
        value, est, n_terms = special._prabhakar_scaled(
            0.3, 0, 100.0, special.DEFAULT_SERIES_CONTROL)
        assert float.hex(value) == "0x1.6222346e9130ep+49"
        assert float.hex(est) == "0x1.f2661497c174bp+2"
        assert n_terms == 68
