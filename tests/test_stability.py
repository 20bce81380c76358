import numpy as np
import pytest

from memdiff import (AccuracyError, Curve, DomainError, HypothesisError,
                     KernelParams, RegimeClass, VolterraConfig, classify,
                     fit_decay_rate, lemma_property_suite, solve_volterra,
                     theoretical_bound, verify_bound)
from conftest import problem


class TestClassify:
    def test_positive_alpha(self):
        regime = classify(KernelParams(1.0, 0.5, 0.5), omega=-1.0)
        assert regime.regime_class is RegimeClass.POSITIVE_ALPHA
        assert regime.decay_applicable  # 0.5 - 1 <= 0
        assert regime.beta_plus_omega == pytest.approx(-0.5)

    def test_negative_alpha_admissible(self):
        regime = classify(KernelParams(-0.2, 1.0, 0.5), omega=-2.0)
        assert regime.regime_class is RegimeClass.NEGATIVE_ALPHA_ADMISSIBLE
        assert regime.decay_applicable  # beta + omega = -1

    def test_unsupported(self):
        regime = classify(KernelParams(-1.0, 1.0, 0.5), omega=-1.0)
        assert regime.regime_class is RegimeClass.UNSUPPORTED
        assert not regime.supported

    def test_alpha_zero_is_unsupported(self):
        assert not classify(KernelParams(0.0, 1.0, 0.5), omega=-1.0).supported

    def test_decay_flag_needs_nonpositive_shift(self):
        regime = classify(KernelParams(1.0, 2.0, 0.5), omega=-1.0)
        assert regime.supported and not regime.decay_applicable

    def test_non_finite_omega_rejected(self):
        for omega in (float("inf"), float("nan")):
            with pytest.raises(DomainError, match="omega must be finite"):
                classify(KernelParams(1.0, 0.5, 0.5), omega)

    def test_idempotent_and_total(self):
        params = KernelParams(-0.3, 2.0, 0.7)
        assert classify(params, -1.0) == classify(params, -1.0)


@pytest.mark.parametrize("beta, mu", [(1.0, 0.5), (2.0, 0.5), (0.7, 0.3),
                                      (1.5, 0.8)])
class TestAdmissibilityBoundary:
    """alpha = -beta^mu / 2, where alpha + beta^mu >= |alpha| holds with
    equality: the last supported negative alpha."""

    def test_boundary_is_supported_and_the_next_float_is_not(self, beta, mu):
        alpha = -beta ** mu / 2.0
        assert classify(KernelParams(alpha, beta, mu), -beta).regime_class \
            is RegimeClass.NEGATIVE_ALPHA_ADMISSIBLE
        below = float(np.nextafter(alpha, -np.inf))
        assert not classify(KernelParams(below, beta, mu), -beta).supported

    def test_bound_and_lemmas_hold_at_the_boundary(self, beta, mu):
        params = KernelParams(-beta ** mu / 2.0, beta, mu)
        bound = theoretical_bound(params, -beta)
        assert np.isfinite([bound.rate, bound.poly_coeff]).all()
        assert lemma_property_suite(params, seed=0).total_violations == 0


class TestTheoreticalBound:
    def test_positive_alpha_pure_exponential(self):
        bound = theoretical_bound(KernelParams(1.0, 0.5, 0.5), omega=-1.0)
        assert bound.rate == pytest.approx(-0.5)
        assert bound.poly_coeff == 0.0
        assert bound.uniformly_stable

    def test_negative_alpha_polynomial_factor(self):
        # 50-digit arithmetic: 0.2^(2/3) = 0.34199518933533940
        bound = theoretical_bound(KernelParams(-0.2, 1.0, 0.5), omega=-1.0)
        assert bound.rate == pytest.approx(-0.6580048106646606, rel=1e-14)
        assert bound.poly_coeff == pytest.approx(0.2)
        assert bound.poly_power == pytest.approx(1.5)
        assert bound.uniformly_stable  # beta^1.5 = 1 > 0.2

    def test_stability_flag_flips(self):
        # alpha*omega = 1.2 > beta^(mu+1) = 1: bounded but not stable
        bound = theoretical_bound(KernelParams(-0.3, 1.0, 0.5), omega=-4.0)
        assert not bound.uniformly_stable
        assert bound.rate > 0.0

    def test_powers_past_the_float_range(self):
        # beta^(mu+1) = 1e380 overflows a float but still exceeds
        # alpha omega = 1e200
        bound = theoretical_bound(KernelParams(-0.1, 1e200, 0.9), -1e201)
        assert bound.uniformly_stable
        # alpha omega = 1e310 itself overflows: no finite envelope
        with pytest.raises(DomainError, match="alpha \\* omega is not a finite"):
            theoretical_bound(KernelParams(-1e10, 1e300, 0.5), -1e300)

    def test_hypothesis_errors(self):
        with pytest.raises(HypothesisError):
            theoretical_bound(KernelParams(-1.0, 1.0, 0.5), omega=-1.0)
        with pytest.raises(HypothesisError):
            theoretical_bound(KernelParams(1.0, 2.0, 0.5), omega=-1.0)
        with pytest.raises(HypothesisError):
            theoretical_bound(KernelParams(1.0, 0.5, 0.5), omega=1.0)

    def test_rate_monotone_in_alpha_omega(self):
        # (alpha omega)^{1/(mu+1)} grows with alpha omega, so the decay rate
        # weakens monotonically; admissibility needs |alpha| <= beta^mu / 2
        # and the decay hypotheses need beta + omega <= 0
        beta, mu, omega = 2.0, 0.5, -3.0
        rates = []
        for alpha in (-0.1, -0.2, -0.4, -0.6, -0.7):
            params = KernelParams(alpha, beta, mu)
            assert classify(params, omega).supported
            rates.append(theoretical_bound(params, omega).rate)
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestFitDecayRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 20.0, 801)
        fit = fit_decay_rate(Curve(t, np.exp(-2.0 * t), "synthetic", None))
        assert fit.rate == pytest.approx(-2.0, abs=1e-6)
        assert fit.r_squared > 0.999999
        assert not fit.oscillatory

    def test_polynomial_factor_fades(self):
        t = np.linspace(10.0, 20.0, 401)
        fit = fit_decay_rate(Curve(t, (1.0 + t) * np.exp(-2.0 * t),
                                   "synthetic", None))
        assert -2.0 <= fit.rate <= -1.9

    def test_oscillatory_envelope(self):
        t = np.linspace(0.0, 30.0, 3001)
        vals = np.exp(-1.5 * t) * np.cos(2.0 * t)
        fit = fit_decay_rate(Curve(t, vals, "synthetic", None))
        assert fit.oscillatory
        assert fit.rate == pytest.approx(-1.5, abs=1e-2)

    def test_volterra_tail_beats_exponent(self):
        prob = problem(1.0, 1.0, 0.5, -2.0)
        curve = solve_volterra(prob, VolterraConfig(0.005, 4000))
        fit = fit_decay_rate(curve)
        assert fit.rate <= -1.0 + 0.05

    def test_unresolvable_envelope_raises(self):
        t = np.linspace(0.0, 1.0, 11)
        vals = np.where(t < 0.55, 1.0, -1.0)
        with pytest.raises(AccuracyError):
            fit_decay_rate(Curve(t, vals, "synthetic", None))

    def test_window_validation(self):
        t = np.linspace(0.0, 1.0, 3)
        curve = Curve(t, np.exp(-t), "synthetic", None)
        with pytest.raises(DomainError, match="fewer than 3 samples"):
            fit_decay_rate(curve)


class TestVerifyBound:
    def test_exact_exponential_gives_unit_constant(self):
        t = np.linspace(0.0, 20.0, 801)
        curve = Curve(t, np.exp(-0.7 * t), "synthetic", None)
        bound = theoretical_bound(KernelParams(1.0, 0.7, 0.5), omega=-1.0)
        check = verify_bound(curve, bound)
        assert check.c_min == pytest.approx(1.0, rel=1e-12)
        assert check.holds

    def test_stability_under_horizon_doubling(self):
        prob = problem(1.0, 1.0, 0.5, -2.0)
        bound = theoretical_bound(prob.params, omega=prob.rho)
        base = solve_volterra(prob, VolterraConfig(0.005, 4000))
        doubled = solve_volterra(prob, VolterraConfig(0.005, 8000))
        check = verify_bound(base, bound, doubled=doubled)
        assert check.holds
        assert check.c_min < 100.0
        assert check.c_min_doubled < check.c_min * 1.05

    def test_violated_rate_fails_stability(self):
        t = np.linspace(0.0, 10.0, 401)
        slow = Curve(t, np.exp(-0.5 * t), "synthetic", None)
        slow2 = Curve(np.linspace(0.0, 20.0, 801),
                      np.exp(-0.5 * np.linspace(0.0, 20.0, 801)),
                      "synthetic", None)
        bound = theoretical_bound(KernelParams(1.0, 1.0, 0.5), omega=-2.0)
        check = verify_bound(slow, bound, doubled=slow2)
        assert not check.holds
        assert check.c_min_doubled > check.c_min * 1.05


class TestLemmaPropertySuite:
    CONFIGS = [
        KernelParams(1.0, 0.0, 0.5),
        KernelParams(1.0, 0.5, 0.5),
        KernelParams(-0.2, 1.0, 0.5),
    ]

    @pytest.mark.parametrize("params", CONFIGS)
    def test_zero_violations(self, params):
        report = lemma_property_suite(params, n_samples=2000, seed=5)
        assert report.total_violations == 0
        for check in report.checks:
            assert check.worst_margin >= -1e-10

    def test_g_cap_value(self):
        report = lemma_property_suite(KernelParams(-0.2, 1.0, 0.5),
                                      n_samples=500, seed=5)
        assert report.violation_counts() == {
            "g_bound": 0, "arg_h": 0, "re_power": 0, "arg_h_tilde": 0}

    def test_deterministic_given_seed(self):
        a = lemma_property_suite(self.CONFIGS[0], n_samples=500, seed=42)
        b = lemma_property_suite(self.CONFIGS[0], n_samples=500, seed=42)
        assert a == b

    def test_unsupported_regime_rejected(self):
        with pytest.raises(HypothesisError):
            lemma_property_suite(KernelParams(-1.0, 1.0, 0.5), n_samples=10)

    @pytest.mark.parametrize("params", [
        KernelParams(1.0, 0.0, 0.0005),  # (2|alpha|)^(1/mu) overflows
        KernelParams(1.0, 0.0, 0.00099),  # it is finite, 10^6 times it not
        KernelParams(1e300, 0.0, 1.0),  # the moduli are finite, h_tilde not
    ])
    def test_margins_past_the_float_range_are_no_clean_result(self, params):
        with pytest.raises(AccuracyError, match=r"^arg_h_tilde: \d+ of 100 "
                           "sampled margins are not finite$"):
            lemma_property_suite(params, n_samples=100)

    def test_report_serializes(self):
        report = lemma_property_suite(self.CONFIGS[1], n_samples=100, seed=1)
        assert report.seed == 1
        assert set(report.violation_counts()) == {
            "g_bound", "arg_h", "re_power", "arg_h_tilde"}
