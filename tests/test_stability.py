import numpy as np
import pytest

from memdiff import (AccuracyError, Curve, DomainError, HypothesisError,
                     KernelParams, RegimeClass, classify,
                     fit_decay_rate, lemma_property_suite, solve_volterra,
                     theoretical_bound, verify_bound)
from memdiff.symbols import symbol_g, symbol_h, symbol_h_tilde
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
        assert lemma_property_suite(params).total_violations == 0


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
        curve = solve_volterra(prob, np.arange(4001) * 0.005)
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
        t2 = np.linspace(0.0, 40.0, 1601)
        doubled = Curve(t2, np.exp(-0.7 * t2), "synthetic", None)
        check = verify_bound(curve, bound, doubled=doubled)
        assert check.c_min == pytest.approx(1.0, rel=1e-12)
        assert check.holds

    def test_stability_under_horizon_doubling(self):
        prob = problem(1.0, 1.0, 0.5, -2.0)
        bound = theoretical_bound(prob.params, omega=prob.rho)
        base = solve_volterra(prob, np.arange(4001) * 0.005)
        doubled = solve_volterra(prob, np.arange(8001) * 0.005)
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
        report = lemma_property_suite(params)
        assert report.total_violations == 0
        for check in report.checks:
            assert check.worst_margin >= -1e-10

    def test_g_cap_value(self):
        report = lemma_property_suite(KernelParams(-0.2, 1.0, 0.5))
        assert report.violation_counts() == {
            "g_bound": 0, "arg_h": 0, "re_power": 0, "arg_h_tilde": 0}

    def test_deterministic(self):
        a = lemma_property_suite(self.CONFIGS[0])
        b = lemma_property_suite(self.CONFIGS[0])
        assert a == b

    def test_unsupported_regime_rejected(self):
        with pytest.raises(HypothesisError):
            lemma_property_suite(KernelParams(-1.0, 1.0, 0.5))

    @pytest.mark.parametrize("params", [
        KernelParams(1.0, 0.0, 0.0005),  # (2|alpha|)^(1/mu) overflows
        KernelParams(1.0, 0.0, 0.00099),  # it is finite, 10^6 times it not
        KernelParams(1e300, 0.0, 1.0),  # the moduli are finite, h_tilde not
    ])
    def test_margins_past_the_float_range_are_no_clean_result(self, params):
        with pytest.raises(AccuracyError, match=r"^arg_h_tilde: \d+ of 10000 "
                           "sampled margins are not finite$"):
            lemma_property_suite(params)

    def test_report_serializes(self):
        report = lemma_property_suite(self.CONFIGS[1])
        assert set(report.violation_counts()) == {
            "g_bound", "arg_h", "re_power", "arg_h_tilde"}


# The worst margins of the sampled suite that the boundary check replaced
# (10^4 Philox(0) samples per half plane), in the order g_bound, arg_h,
# re_power (then unscaled: Re (lam+beta)^mu - (Re lam + beta)^mu) and
# arg_h_tilde, for the 12 golden triples, criterion 3's six and the failing
# verify of tests/test_cli.py at (1, 3, 0.5).
SAMPLED_WORST = {
    (0.5, 0.0, 0.3): (0.05386002266878476, 8.072722684099304e-06,
                      1.5307327627667178e-10, 0.31859671247141796),
    (0.5, 0.0, 0.5): (0.01141487169717137, 9.500941640816848e-06,
                      1.0297496189082267e-10, 0.5384559603395331),
    (0.5, 0.0, 0.8): (0.000699380872468458, 7.938478823962011e-06,
                      2.7994911944162482e-11, 0.8884204591416336),
    (0.5, 1.0, 0.3): (0.053866191149473996, 1.7259300705651553e-05,
                      2.9043434324194095e-13, -0.4227398758339125),
    (0.5, 1.0, 0.5): (0.011419805690857321, 2.876944422261063e-05,
                      3.4572344986827375e-13, -0.2010631041402955),
    (0.5, 1.0, 0.8): (0.0007008379764182893, 4.604052825892588e-05,
                      2.2137847111025621e-13, 0.14890139480850628),
    (1.0, 0.0, 0.3): (0.10273810083771862, 5.239757535515784e-06,
                      1.5307327627667178e-10, 0.31859671247141796),
    (1.0, 0.0, 0.5): (0.022681233884866425, 5.670032482095794e-06,
                      1.0297496189082267e-10, 0.5384559603395331),
    (1.0, 0.0, 0.8): (0.0014012478520140093, 4.336510155940557e-06,
                      2.7994911944162482e-11, 0.8884204591416336),
    (1.0, 1.0, 0.3): (0.10274852758909347, 1.7100180566626195e-05,
                      2.9043434324194095e-13, 0.22825065656267363),
    (1.0, 1.0, 0.5): (0.02269075531243503, 2.8504770061007958e-05,
                      3.4572344986827375e-13, 0.31299142511299305),
    (1.0, 1.0, 0.8): (0.001404155567142018, 4.561835573402142e-05,
                      2.2137847111025621e-13, 0.5194567890265),
    (1.0, 0.5, 0.5): (0.022685996904569072, 2.755873657052795e-05,
                      9.765521724602877e-13, 0.42481138193386503),
    (0.5, 2.0, 0.8): (0.0007022937706596677, 4.6578712467680624e-05,
                      9.658940314238862e-14, 0.28751032958922496),
    (-0.2, 1.0, 0.5): (6.255980771197045e-07, 2.9676745185598562e-05,
                       3.4572344986827375e-13, 0.20157322716740733),
    (-0.5, 4.0, 0.8): (1.317765978559038e-07, 4.699603178656095e-05,
                       4.218847493575595e-14, 0.6700672120888411),
    (1.0, 3.0, 0.5): (0.022709742752994755, 2.909066342486104e-05,
                      6.639133687258436e-14, -0.0651876777839373),
}


def _polar_grid(r0: float, angles: np.ndarray) -> np.ndarray:
    """401 moduli geometric over [r0, 1e6 r0] times ``angles``."""
    moduli = r0 * np.geomspace(1.0, 1e6, 401)[:, None]
    return (moduli * np.exp(1j * angles)[None, :]).ravel()


@pytest.mark.parametrize("triple", list(SAMPLED_WORST),
                         ids=lambda t: "-".join(map(str, t)))
def test_boundary_minimum_is_the_region_minimum(triple):
    """The referee of the boundary check: a dense polar grid over each whole
    region, both half planes, finds no margin below the boundary's worst,
    and that worst is at most the sampled worst, with a violation exactly
    where the samples found one."""
    alpha, beta, mu = triple
    params = KernelParams(alpha, beta, mu)
    cap = 1.0 if alpha > 0.0 else beta ** mu / (alpha + beta ** mu)
    r_min = max(1e-3, (2.0 * abs(alpha)) ** (1.0 / mu), beta * (1.0 + 1e-9))
    right = _polar_grid(1e-3, np.linspace(-np.pi / 2, np.pi / 2, 801))
    half = np.linspace(np.pi / 2, np.pi, 401)
    left = _polar_grid(r_min, np.concatenate([half, -half]))
    z = right + beta
    grid = {
        "g_bound": cap - np.abs(symbol_g(params, right)),
        "arg_h": (1.0 + mu) * np.abs(np.angle(right))
        - np.abs(np.angle(symbol_h(params, right))),
        # re_power scaled by |z|^mu: the boundary check's cos(mu phi) -
        # cos(phi)^mu
        "re_power": ((z ** mu).real - z.real ** mu) / np.abs(z) ** mu,
        "arg_h_tilde": (1.0 + mu) * np.abs(np.angle(left))
        - np.abs(np.angle(symbol_h_tilde(params, left))),
    }
    report = lemma_property_suite(params)
    assert [c.name for c in report.checks] == list(grid)
    for check, sampled in zip(report.checks, SAMPLED_WORST[triple]):
        assert grid[check.name].min() >= check.worst_margin - 1e-12, check
        assert check.worst_margin <= sampled, check
        assert (check.violations > 0) == (sampled < 0.0), check
