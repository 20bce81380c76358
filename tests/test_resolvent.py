import math

import numpy as np
import pytest

from memdiff import (ConvergenceError, Curve, CurveMethod, DomainError,
                     Mu1Case, VolterraConfig, laplace_G_hat,
                     invert_transform, mu1_classify, mu1_closed_form,
                     series_S, series_curve, solve_volterra)
from conftest import problem


class TestSeriesS:
    def test_value_at_zero(self):
        for prob in (problem(1.0, 0.0, 0.5, -1.0), problem(-0.2, 1.0, 0.5, -1.0)):
            assert series_S(prob, 0.0) == 1.0

    def test_double_root_golden(self, double_root_problem):
        assert series_S(double_root_problem, 1.0) == pytest.approx(
            2.0 * math.exp(-2.0), abs=1e-12)

    def test_two_root_golden(self, two_root_problem):
        expected = -0.5 * math.exp(-0.25) + 1.5 * math.exp(-0.75)
        assert series_S(two_root_problem, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_fractional_goldens_from_extended_precision(self):
        # 50-digit values of the double series
        cases = [
            (problem(1.0, 1.0, 0.5, -1.0), 2.0, -0.02021420503840534458465828),
            (problem(1.0, 1.0, 0.3, -2.0), 1.0, -0.009851646167843841472593818),
            (problem(1.0, 0.0, 0.8, -1.0), 3.0, -0.169713331514435295477451),
            (problem(0.5, 1.0, 0.5, -2.0), 4.0, -0.0007970312058552320912781695),
        ]
        for prob, t, expected in cases:
            assert series_S(prob, t) == pytest.approx(expected, abs=1e-11)

    def test_degenerate_no_memory_is_exponential(self):
        prob = problem(0.0, 0.7, 0.5, -1.3)
        for t in (0.25, 1.0, 4.0):
            assert series_S(prob, t) == pytest.approx(math.exp(-1.3 * t), rel=1e-12)

    def test_matches_volterra_for_fractional_mu(self):
        prob = problem(1.0, 1.0, 0.5, -1.0)
        curve = solve_volterra(prob, VolterraConfig(0.0025, 800))
        i = 400  # t = 1
        assert series_S(prob, 1.0) == pytest.approx(curve.values[i], abs=2e-5)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            series_S(problem(1.0, 0.0, 0.5, -1.0), -0.5)

    def test_precision_exhaustion_raises(self):
        # (rho+beta) t = -60 forces catastrophic outer cancellation
        prob = problem(1.0, 0.0, 1.0, -6.0)
        with pytest.raises(ConvergenceError) as info:
            series_S(prob, 10.0)
        assert info.value.reason in ("precision", "overflow")


class TestSeriesCurve:
    def test_single_point_grid(self):
        curve = series_curve(problem(1.0, 0.5, 0.5, -1.0), [0.0])
        assert curve.values.tolist() == [1.0]
        assert curve.method == "series"

    def test_matches_pointwise(self):
        prob = problem(0.5, 1.0, 0.8, -2.0)
        grid = np.linspace(0.0, 3.0, 7)
        curve = series_curve(prob, grid)
        for t, v in zip(curve.times, curve.values):
            assert v == series_S(prob, float(t))

    def test_degenerate_curve(self):
        prob = problem(0.0, 0.0, 0.5, -2.0)
        grid = np.linspace(0.0, 2.0, 9)
        curve = series_curve(prob, grid)
        assert np.allclose(curve.values, np.exp(-2.0 * grid), rtol=1e-12)

    def test_error_tagged_with_time(self):
        prob = problem(1.0, 0.0, 1.0, -6.0)
        with pytest.raises(ConvergenceError) as info:
            series_curve(prob, np.linspace(0.0, 10.0, 11))
        assert "t=" in str(info.value)

    def test_grid_validation(self):
        prob = problem(1.0, 0.0, 0.5, -1.0)
        with pytest.raises(DomainError):
            series_curve(prob, [0.5, 1.0])
        with pytest.raises(DomainError):
            series_curve(prob, [0.0, 1.0, 1.0])


class TestCurveType:
    def test_resolvent_curve_invariants(self):
        prob = problem(1.0, 0.0, 0.5, -1.0)
        with pytest.raises(DomainError):
            Curve([0.0, 1.0], [0.5, 0.4], CurveMethod.SERIES, prob)
        with pytest.raises(DomainError):
            Curve([1.0, 2.0], [1.0, 0.4], CurveMethod.SERIES, prob)

    def test_synthetic_curve_allows_any_window(self):
        t = np.linspace(10.0, 20.0, 5)
        c = Curve(t, np.exp(-t), "synthetic", None)
        assert len(c) == 5

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            Curve([0.0, 1.0], [1.0], CurveMethod.SERIES, None)


class TestMu1Classify:
    def test_double_root(self, double_root_problem):
        cls = mu1_classify(double_root_problem)
        assert cls.case is Mu1Case.DOUBLE_ROOT
        assert cls.discriminant == pytest.approx(0.0, abs=1e-12)

    def test_two_real_roots(self, two_root_problem):
        cls = mu1_classify(two_root_problem)
        assert cls.case is Mu1Case.TWO_REAL_ROOTS
        assert cls.discriminant == pytest.approx(0.25)

    def test_complex_pair(self, complex_pair_problem):
        cls = mu1_classify(complex_pair_problem)
        assert cls.case is Mu1Case.COMPLEX_PAIR
        assert cls.discriminant == pytest.approx(-7.0)

    def test_tie_band_is_relative(self):
        # discriminant 4e-13 * (rho+beta)^2-scale lands in the tie band
        prob = problem(1.0, 3.0, 1.0, -1.0 + 1e-13)
        assert mu1_classify(prob).case is Mu1Case.DOUBLE_ROOT

    def test_requires_mu_one(self):
        with pytest.raises(DomainError):
            mu1_classify(problem(1.0, 0.0, 0.5, -1.0))


class TestMu1ClosedForm:
    def test_value_at_zero_all_cases(self, double_root_problem,
                                     two_root_problem, complex_pair_problem):
        for prob in (double_root_problem, two_root_problem, complex_pair_problem):
            assert mu1_closed_form(prob, 0.0) == 1.0

    def test_double_root_value(self, double_root_problem):
        assert mu1_closed_form(double_root_problem, 1.0) == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-15)

    def test_two_root_value(self, two_root_problem):
        assert mu1_closed_form(two_root_problem, 1.0) == pytest.approx(
            0.3191494375758196265844847, rel=1e-14)

    def test_complex_pair_value_from_extended_precision(self, complex_pair_problem):
        # 50-digit reference via the series; also pins the re-derived real
        # form of the conjugate-pair inverse transform
        assert mu1_closed_form(complex_pair_problem, 1.0) == pytest.approx(
            -0.02700307374133957035683498, abs=1e-14)

    def test_complex_pair_volterra_arbitration(self, complex_pair_problem):
        curve = solve_volterra(complex_pair_problem, VolterraConfig(0.0025, 2000))
        sampled = [mu1_closed_form(complex_pair_problem, float(t))
                   for t in curve.times]
        assert np.max(np.abs(curve.values - np.array(sampled))) < 5e-5

    def test_series_agreement_all_cases(self, double_root_problem,
                                        two_root_problem, complex_pair_problem):
        for prob in (double_root_problem, two_root_problem, complex_pair_problem):
            for t in (0.3, 1.0, 2.5, 6.0):
                assert series_S(prob, t) == pytest.approx(
                    mu1_closed_form(prob, t), abs=1e-9)

    def test_requires_mu_one(self):
        with pytest.raises(DomainError):
            mu1_closed_form(problem(1.0, 0.0, 0.5, -1.0), 1.0)


class TestDampingRelation:
    def test_series_times_exponential_matches_inverse_of_G(self):
        # e^{beta t} S(t) inverts the beta-shifted transform
        prob = problem(1.0, 1.0, 0.5, -1.0)
        for t in (0.5, 1.5, 3.0):
            lifted = math.exp(prob.params.beta * t) * series_S(prob, t)
            inverted, resid = invert_transform(
                lambda lam: laplace_G_hat(prob, lam), t,
                contour_scale=2.0 * (abs(prob.rho) + prob.params.beta))
            assert resid < 1e-8
            assert lifted == pytest.approx(inverted, abs=1e-6)
