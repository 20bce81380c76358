import math

import numpy as np
import pytest

from memdiff import (DomainError, KernelParams, ModeError, ScalarProblem,
                     SpectralModel, TruncationError,
                     VolterraConfig, eigen_pairs, field, mode_curve,
                     operator_norm_curve, series_S, series_curve,
                     solve_volterra)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    h = x[1] - x[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                            + 2.0 * np.sum(y[2:-2:2])))


def make_model(L=math.pi, n_modes=4, coeffs=None):
    if coeffs is None:
        coeffs = [0.0] * n_modes
    return SpectralModel(L, n_modes, tuple(coeffs))


class TestEigenPairs:
    def test_unit_pi_interval(self):
        pairs = eigen_pairs(make_model(L=math.pi, n_modes=4))
        assert [lam for lam, _ in pairs] == pytest.approx([1.0, 4.0, 9.0, 16.0])

    def test_unit_interval_third_mode(self):
        model = make_model(L=1.0, n_modes=3)
        assert model.eigenvalue(3) == pytest.approx(9.0 * math.pi ** 2)

    def test_orthonormality_by_quadrature(self):
        model = make_model(L=math.pi, n_modes=3)
        pairs = eigen_pairs(model)
        x = np.linspace(0.0, math.pi, 4097)
        for i, (_, phi_i) in enumerate(pairs):
            for j, (_, phi_j) in enumerate(pairs):
                overlap = simpson(phi_i(x) * phi_j(x), x)
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_model_validation(self):
        with pytest.raises(DomainError):
            SpectralModel(0.0, 2, (1.0, 0.0))
        with pytest.raises(DomainError):
            SpectralModel(1.0, 2, (1.0,))
        with pytest.raises(DomainError):
            make_model().eigenvalue(9)


class TestModeCurve:
    def test_series_is_bit_identical_to_scalar_route(self):
        # high modes push (rho+beta) t far negative, so the series route is
        # exercised on a short window; bit identity needs no long horizon
        model = make_model(L=math.pi, n_modes=3)
        params = KernelParams(1.0, 1.0, 0.5)
        grid = np.linspace(0.0, 1.0, 9)
        for n in (1, 2, 3):
            via_mode = mode_curve(model, params, n, grid, "series")
            direct = series_curve(ScalarProblem(params, -float(n * n)), grid)
            assert np.array_equal(via_mode.values, direct.values)

    def test_volterra_is_bit_identical_to_scalar_route(self):
        model = make_model(L=math.pi, n_modes=2)
        params = KernelParams(1.0, 1.0, 0.5)
        grid = np.arange(0.0, 201.0) * 0.01
        via_mode = mode_curve(model, params, 1, grid, "volterra")
        direct = solve_volterra(ScalarProblem(params, -1.0),
                                VolterraConfig(0.01, 200))
        assert np.array_equal(via_mode.values, direct.values)

    def test_initial_value(self):
        curve = mode_curve(make_model(), KernelParams(1.0, 0.5, 0.5), 2,
                           np.linspace(0.0, 1.0, 5), "series")
        assert curve.values[0] == 1.0

    def test_cross_oracle_agreement(self):
        # first mode of the pi interval is the rho = -1 scalar problem
        model = make_model(L=math.pi, n_modes=1, coeffs=[1.0])
        params = KernelParams(1.0, 1.0, 0.5)
        grid = np.arange(0.0, 401.0) * 0.0025
        series = mode_curve(model, params, 1, grid, "series")
        volterra = mode_curve(model, params, 1, grid, "volterra")
        assert np.max(np.abs(series.values - volterra.values)) < 1e-4

    def test_volterra_needs_uniform_grid(self):
        with pytest.raises(ModeError):
            mode_curve(make_model(), KernelParams(1.0, 0.5, 0.5), 1,
                       np.array([0.0, 0.1, 0.5]), "volterra")

    def test_failure_tagged_with_mode_index(self):
        # high modes push (rho+beta) t far negative: the series dies loudly
        model = make_model(L=math.pi, n_modes=4)
        with pytest.raises(ModeError) as info:
            mode_curve(model, KernelParams(1.0, 0.0, 1.0), 4,
                       np.linspace(0.0, 10.0, 6), "series")
        assert info.value.mode_index == 4
        assert "mode 4" in str(info.value)


class TestField:
    def test_time_zero_reproduces_truncated_datum(self):
        model = make_model(L=math.pi, n_modes=3, coeffs=[1.0, 0.5, -0.25])
        params = KernelParams(1.0, 1.0, 0.5)
        x = np.linspace(0.0, math.pi, 33)
        got = field(model, params, 0.0, x)
        expected = np.zeros_like(x)
        for (lam, phi), c in zip(eigen_pairs(model), model.u0_coeffs):
            expected += c * phi(x)
        assert np.allclose(got, expected, atol=1e-14)

    def test_single_mode_field_is_scaled_eigenfunction(self):
        model = make_model(L=math.pi, n_modes=2, coeffs=[1.0, 0.0])
        params = KernelParams(1.0, 1.0, 0.5)
        x = np.linspace(0.0, math.pi, 17)
        s1 = series_S(ScalarProblem(params, -1.0), 1.0)
        phi1 = eigen_pairs(model)[0][1]
        assert np.allclose(field(model, params, 1.0, x), s1 * phi1(x), atol=1e-14)

    def test_two_mode_combination_against_volterra(self):
        model = make_model(L=math.pi, n_modes=2, coeffs=[1.0, 0.5])
        params = KernelParams(1.0, 1.0, 0.5)
        x = np.linspace(0.0, math.pi, 9)
        got = field(model, params, 1.0, x)
        expected = np.zeros_like(x)
        for n, c in ((1, 1.0), (2, 0.5)):
            curve = solve_volterra(ScalarProblem(params, -float(n * n)),
                                   VolterraConfig(0.0025, 400))
            phi = eigen_pairs(model)[n - 1][1]
            expected += curve.values[-1] * c * phi(x)
        assert np.max(np.abs(got - expected)) < 1e-4

    def test_parseval_at_time_zero(self):
        model = make_model(L=math.pi, n_modes=5,
                           coeffs=[1.0, 0.5, 0.0, -0.3, 0.1])
        params = KernelParams(1.0, 0.5, 0.5)
        x = np.linspace(0.0, math.pi, 2 ** 14 + 1)
        u0 = field(model, params, 0.0, x)
        norm_sq = simpson(u0 ** 2, x)
        assert norm_sq == pytest.approx(sum(c * c for c in model.u0_coeffs),
                                        abs=1e-8)

    def test_x_domain_checked(self):
        model = make_model(coeffs=[1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            field(model, KernelParams(1.0, 0.5, 0.5), 0.0, [-0.1, 0.5])


class TestOperatorNormCurve:
    def test_time_zero_is_one(self):
        model = make_model(L=math.pi, n_modes=3, coeffs=[1, 0, 0])
        curve = operator_norm_curve(model, KernelParams(1.0, 0.5, 0.5),
                                    np.linspace(0.0, 1.0, 9))
        assert curve.values[0] == 1.0

    def test_single_mode_is_abs_mode_value(self):
        model = make_model(L=math.pi, n_modes=1, coeffs=[1.0])
        params = KernelParams(1.0, 1.0, 0.5)
        grid = np.linspace(0.0, 3.0, 13)
        curve = operator_norm_curve(model, params, grid)
        direct = series_curve(ScalarProblem(params, -1.0), grid)
        assert np.array_equal(curve.values, np.abs(direct.values))

    def test_norm_is_pointwise_mode_supremum(self):
        # mode ordering is NOT uniform in t (mode 1 crosses zero while mode 2
        # peaks), so only the definitional sup is asserted
        model = make_model(L=math.pi, n_modes=8, coeffs=[1.0] + [0.0] * 7)
        params = KernelParams(1.0, 0.5, 0.5)
        grid = np.arange(0.0, 501.0) * 0.01
        curve = operator_norm_curve(model, params, grid, method="volterra")
        stacked = np.vstack([
            np.abs(solve_volterra(ScalarProblem(params, -float(n * n)),
                                  VolterraConfig(0.01, 500)).values)
            for n in range(1, 9)])
        assert np.array_equal(curve.values, stacked.max(axis=0))

    def test_truncation_detected_when_last_mode_dominates(self):
        # a strongly negative kernel outside the admissible regimes makes
        # high modes grow fastest, parking the sup on the last retained mode
        model = make_model(L=math.pi, n_modes=2, coeffs=[1.0, 0.0])
        params = KernelParams(-4.0, 0.0, 0.5)
        grid = np.linspace(0.0, 2.0, 21)
        with pytest.raises(TruncationError):
            operator_norm_curve(model, params, grid)


class TestBatchedNormCurve:
    def test_refined_norm_lands_on_the_grid(self):
        model = make_model(L=math.pi, n_modes=4)
        params = KernelParams(1.0, 0.5, 0.5)
        grid = np.linspace(0.0, 1.0, 5)
        coarse = operator_norm_curve(model, params, grid, method="volterra",
                                     dt=0.01)
        fine = operator_norm_curve(model, params, np.arange(101) * 0.01,
                                   method="volterra")
        assert np.array_equal(coarse.times, grid)
        assert np.array_equal(coarse.values, fine.values[::25])

    def test_shared_failure_reported_on_the_first_mode(self):
        # a 0.5 step is outside the Volterra budget for every mode
        with pytest.raises(ModeError) as info:
            operator_norm_curve(make_model(), KernelParams(1.0, 0.5, 0.5),
                                [0.0, 0.5, 1.0], method="volterra")
        assert info.value.mode_index == 1
        assert "mode 1" in str(info.value)

    def test_failure_names_the_mode_that_fails_first(self):
        # mode 3 (rho = -9) goes non-finite from t = 110.2, mode 2 (rho = -4)
        # only from t = 154.1
        with pytest.raises(ModeError) as info:
            operator_norm_curve(make_model(n_modes=3),
                                KernelParams(-5.0, 0.0, 0.5),
                                np.linspace(0.0, 200.0, 11),
                                method="volterra", dt=0.1)
        assert info.value.mode_index == 3
        assert str(info.value).startswith(
            "mode 3: Volterra solution is not finite for rho=-9.0 from "
            "t=110.2 on")
