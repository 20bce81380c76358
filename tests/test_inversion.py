import math

import numpy as np
import pytest

import memdiff.inversion as inversion_mod
from memdiff import (AccuracyError, ContourError, Curve, DomainError,
                     InversionConfig, forward_transform, invert_S,
                     invert_S_curve, invert_transform, laplace_S_hat,
                     series_curve, mu1_closed_form)
from conftest import problem


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            InversionConfig(n_nodes=15)
        with pytest.raises(DomainError):
            InversionConfig(n_nodes=14)
        with pytest.raises(DomainError):
            InversionConfig(n_nodes=512)
        with pytest.raises(DomainError):
            InversionConfig(contour_scale=-1.0)


class TestInvertTransform:
    def test_constant_pair(self):
        value, resid = invert_transform(lambda lam: 1.0 / lam, 1.0)
        assert abs(value - 1.0) <= 1e-10
        assert resid < 1e-10

    def test_exponential_pair(self):
        value, resid = invert_transform(lambda lam: 1.0 / (lam + 1.0), 1.0)
        assert abs(value - math.exp(-1.0)) <= 1e-10
        assert resid < 1e-10

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            invert_transform(lambda lam: 1.0 / lam, 0.0)

    def test_calls_transform_once_on_the_node_array(self):
        calls = []

        def transform(lam):
            calls.append(lam)
            return 1.0 / (lam + 1.0)

        cfg = InversionConfig(n_nodes=32)
        invert_transform(transform, 1.0, cfg)
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray)
        assert calls[0].shape == (cfg.n_nodes,)


class TestInvertS:
    def test_double_root_golden(self, double_root_problem):
        got = invert_S(double_root_problem, 1.0)
        assert abs(got - 2.0 * math.exp(-2.0)) <= 1e-8

    def test_matches_series_goldens(self):
        cases = [
            (problem(1.0, 1.0, 0.5, -1.0), 2.0, -0.02021420503840534458465828),
            (problem(1.0, 1.0, 0.3, -2.0), 1.0, -0.009851646167843841472593818),
            (problem(1.0, 0.0, 0.8, -1.0), 3.0, -0.169713331514435295477451),
        ]
        for prob, t, expected in cases:
            assert invert_S(prob, t) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("prob, t, bits", [
        (problem(1.0, 1.0, 0.5, -1.0), 2.0, "-0x1.4b308561e0000p-6"),
        (problem(1.0, 1.0, 0.3, -2.0), 1.0, "-0x1.42d19907c0000p-7"),
        (problem(1.0, 0.0, 0.8, -1.0), 3.0, "-0x1.5b92a9c41c000p-3"),
        (problem(1.0, 3.0, 1.0, -1.0), 1.0, "0x1.152aaa3c1e000p-2"),
    ])
    def test_pinned_bits(self, prob, t, bits):
        # The bits of the series goldens and the double-root fixture, so a
        # change of the quadrature's arithmetic shows here and not only
        # beyond a tolerance.
        assert float.hex(invert_S(prob, t)) == bits

    def test_complex_pair_oscillation(self, complex_pair_problem):
        for t in (0.5, 1.0, 3.0):
            assert invert_S(complex_pair_problem, t) == pytest.approx(
                mu1_closed_form(complex_pair_problem, t), abs=1e-9)

    def test_node_doubling_stability(self):
        prob = problem(1.0, 1.0, 0.8, -2.0)
        for t in (0.2, 1.0, 4.8):
            v32 = invert_S(prob, t, InversionConfig(n_nodes=32))
            v64 = invert_S(prob, t, InversionConfig(n_nodes=64))
            assert abs(v32 - v64) < 1e-8

    def test_rejects_time_zero(self, double_root_problem):
        with pytest.raises(DomainError):
            invert_S(double_root_problem, 0.0)

    def test_contour_error_near_pole(self, double_root_problem, monkeypatch):
        def fake_den(prob, lam):
            den = np.asarray(lam, dtype=complex) * 0.0 + 1.0
            den.flat[3] = 1e-12
            return den

        monkeypatch.setattr(inversion_mod, "laplace_S_hat_den", fake_den)
        with pytest.raises(ContourError, match="contour_scale"):
            invert_S(double_root_problem, 1.0)


class TestInvertSCurve:
    def test_pins_time_zero(self, double_root_problem):
        curve = invert_S_curve(double_root_problem, np.linspace(0.0, 2.0, 5))
        assert curve.values[0] == 1.0
        assert curve.method == "laplace"


class TestForwardTransform:
    def test_constant_curve(self):
        t = np.linspace(0.0, 40.0, 400_001)
        curve = Curve(t, np.ones_like(t), "synthetic", None)
        got = forward_transform(curve, 2.0, 0.0)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_exponential_curve(self):
        t = np.linspace(0.0, 40.0, 400_001)
        curve = Curve(t, np.exp(-t), "synthetic", None)
        got = forward_transform(curve, 1.0, -1.0)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_series_curve_round_trip(self):
        prob = problem(1.0, 1.0, 0.5, -1.0)
        curve = series_curve(prob, np.linspace(0.0, 8.0, 1601))
        got = forward_transform(curve, 2.0, -1.0)
        expected = laplace_S_hat(prob, 2.0 + 0j).real
        assert abs(got - expected) <= 1e-4 * abs(expected)

    def test_tail_dominance_raises(self):
        t = np.linspace(0.0, 1.0, 101)
        curve = Curve(t, np.exp(-0.1 * t), "synthetic", None)
        with pytest.raises(AccuracyError):
            forward_transform(curve, 0.11, -0.1)

    def test_rate_domain(self):
        t = np.linspace(0.0, 1.0, 11)
        curve = Curve(t, np.exp(-t), "synthetic", None)
        with pytest.raises(DomainError):
            forward_transform(curve, 1.0, 2.0)
        with pytest.raises(DomainError):
            forward_transform(curve, -1.0, -2.0)
