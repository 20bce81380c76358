import numpy as np
import pytest

from memdiff import (DomainError, KernelParams, ScalarProblem,
                     SingularityError, laplace_S_hat, laplace_S_hat_den,
                     symbol_g, symbol_h, symbol_h_tilde)
from conftest import problem


class TestSymbolG:
    def test_simple_value(self):
        assert symbol_g(KernelParams(1.0, 0.0, 1.0), 1.0 + 0j) == pytest.approx(0.5)

    def test_limit_at_infinity(self):
        # |g - 1| ~ |alpha| lambda^{-mu}, so 1e8 gives ~4e-7 at mu = 0.8
        g = symbol_g(KernelParams(1.0, 2.0, 0.8), 1e8 + 0j)
        assert abs(g - 1.0) < 1e-6
        g = symbol_g(KernelParams(0.7, 3.0, 1.0), 1e8 + 0j)
        assert abs(g - 1.0) < 1e-7

    def test_frozen_golden_negative_alpha(self):
        # 50-digit arithmetic: sqrt(2) / (sqrt(2) - 0.2)
        g = symbol_g(KernelParams(-0.2, 1.0, 0.5), 1.0 + 0j)
        assert g.real == pytest.approx(1.164715669629907658, rel=1e-14)
        assert g.imag == pytest.approx(0.0, abs=1e-15)

    def test_domain_error_left_half_plane(self):
        with pytest.raises(DomainError):
            symbol_g(KernelParams(1.0, 0.0, 0.5), -1.0 + 1j)
        with pytest.raises(DomainError):
            symbol_g(KernelParams(1.0, 0.0, 0.5), np.array([1.0 + 1j, -2.0 + 0j]))

    def test_bound_positive_alpha(self):
        rng = np.random.Generator(np.random.Philox(7))
        lam = 10.0 ** rng.uniform(-3, 3, 10_000) * np.exp(
            1j * rng.uniform(-np.pi / 2, np.pi / 2, 10_000))
        g = symbol_g(KernelParams(1.0, 0.5, 0.5), lam)
        assert np.max(np.abs(g)) <= 1.0 + 1e-12

    def test_bound_negative_alpha(self):
        params = KernelParams(-0.2, 1.0, 0.5)
        cap = params.beta ** params.mu / (params.alpha + params.beta ** params.mu)
        rng = np.random.Generator(np.random.Philox(8))
        lam = 10.0 ** rng.uniform(-3, 3, 10_000) * np.exp(
            1j * rng.uniform(-np.pi / 2, np.pi / 2, 10_000))
        g = symbol_g(params, lam)
        assert np.max(np.abs(g)) <= cap + 1e-12
        assert cap == pytest.approx(1.25)


class TestSymbolH:
    def test_is_lambda_times_g(self):
        params = KernelParams(0.8, 1.3, 0.4)
        lam = 2.0 + 3.0j
        assert symbol_h(params, lam) == pytest.approx(lam * symbol_g(params, lam))

    def test_real_positive_on_positive_axis(self):
        params = KernelParams(1.0, 0.5, 0.5)
        for lam in (0.1, 1.0, 42.0):
            h = symbol_h(params, lam + 0j)
            assert h.imag == pytest.approx(0.0, abs=1e-15)
            assert h.real > 0.0

    def test_frozen_golden(self):
        h = symbol_h(KernelParams(-0.2, 1.0, 0.5), 1.0 + 1.0j)
        assert h.real == pytest.approx(1.188780894057065361, rel=1e-14)
        assert h.imag == pytest.approx(1.107653364251279639, rel=1e-14)

    def test_argument_bound(self):
        for params in (KernelParams(1.0, 0.5, 0.5), KernelParams(-0.2, 1.0, 0.5)):
            rng = np.random.Generator(np.random.Philox(9))
            lam = 10.0 ** rng.uniform(-3, 3, 10_000) * np.exp(
                1j * rng.uniform(-np.pi / 2, np.pi / 2, 10_000))
            h = symbol_h(params, lam)
            slack = (1.0 + params.mu) * np.abs(np.angle(lam)) + 1e-10
            assert np.all(np.abs(np.angle(h)) <= slack)


class TestSymbolHTilde:
    def test_shift_identity(self):
        params = KernelParams(0.6, 1.7, 0.5)
        rng = np.random.Generator(np.random.Philox(10))
        lam = (1.0 + 10.0 ** rng.uniform(-2, 2, 1000)) + 1j * rng.normal(0, 10, 1000)
        ht = symbol_h_tilde(params, lam + params.beta)
        h = symbol_h(params, lam)
        assert np.max(np.abs(ht - h) / np.abs(h)) < 1e-12

    def test_mu_one_rational_form(self):
        # alpha=1, beta=0, mu=1: lambda^2 / (lambda + 1)
        params = KernelParams(1.0, 0.0, 1.0)
        assert symbol_h_tilde(params, 2.0 + 0j) == pytest.approx(4.0 / 3.0)

    def test_frozen_golden_left_half_plane(self):
        ht = symbol_h_tilde(KernelParams(-0.2, 1.0, 0.5), -1.0 + 2.0j)
        assert ht.real == pytest.approx(-1.860141583371453040, rel=1e-14)
        assert ht.imag == pytest.approx(2.378907828807454031, rel=1e-14)

    def test_zero_rejected_and_pole_guarded(self):
        with pytest.raises(DomainError):
            symbol_h_tilde(KernelParams(1.0, 0.0, 0.5), 0.0 + 0j)
        with pytest.raises(SingularityError):
            symbol_h_tilde(KernelParams(-1.0, 0.0, 1.0), 1.0 + 0j)


class TestLaplaceTransforms:
    def test_hand_value(self, double_root_problem):
        assert laplace_S_hat(double_root_problem, 1.0 + 0j) == pytest.approx(4.0 / 9.0)

    def test_initial_value_limit(self):
        prob = problem(0.5, 1.0, 0.6, -2.0)
        lam = 1e8 + 0j
        assert abs(lam * laplace_S_hat(prob, lam) - 1.0) < 1e-6

    def test_degenerate_no_memory(self):
        prob = problem(0.0, 1.0, 0.5, -2.0)
        for lam in (0.5 + 0j, 2.0 + 1j):
            assert laplace_S_hat(prob, lam) == pytest.approx(1.0 / (lam + 2.0))

    def test_equals_g_over_h_minus_rho(self):
        prob = problem(0.7, 0.9, 0.35, -1.4)
        rng = np.random.Generator(np.random.Philox(11))
        lam = (0.5 + 10.0 ** rng.uniform(-2, 2, 500)) + 1j * rng.normal(0, 5, 500)
        direct = laplace_S_hat(prob, lam)
        via_symbols = symbol_g(prob.params, lam) / (
            symbol_h(prob.params, lam) - prob.rho)
        assert np.max(np.abs(direct - via_symbols) / np.abs(direct)) < 1e-12

    def test_pole_raises(self, double_root_problem):
        # the double pole of S_hat sits at lam = -2
        with pytest.raises(SingularityError):
            laplace_S_hat(double_root_problem, -2.0 + 0j)
        assert laplace_S_hat_den(double_root_problem, -2.0 + 0j) == pytest.approx(0.0)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            KernelParams(1.0, -0.1, 0.5)
        with pytest.raises(DomainError):
            KernelParams(1.0, 0.0, 1.5)
        with pytest.raises(DomainError):
            ScalarProblem(KernelParams(1.0, 0.0, 0.5), float("nan"))
