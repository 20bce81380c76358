import math

import numpy as np
import pytest
from hypothesis import given, settings

import memdiff.inversion as inversion_mod
import memdiff.symbols as symbols_mod
from memdiff import (AccuracyError, Curve, DomainError,
                     MemdiffError, forward_transform,
                     invert_S, invert_S_curve, invert_transform,
                     laplace_S_hat, series_curve, mu1_closed_form)
from conftest import curve_sweep_cases, error_record, problem


class TestConfig:
    def test_validation(self):
        # the node count of the one quadrature is a plain argument; a float
        # such as 64.0 is no count.  It is named before a bad time and a
        # contour_scale that is not finite.
        for n_nodes in (15, 14, 512, 0, -64, 64.0, True):
            for t, scale in ((1.0, 1.0), (0.0, math.inf)):
                with pytest.raises(DomainError) as info:
                    invert_transform(lambda lam: 1.0 / lam, t,
                                     n_nodes=n_nodes, contour_scale=scale)
                assert str(info.value) == (
                    f"n_nodes must be even and in [16, 256], got {n_nodes}")

    @pytest.mark.parametrize("t", [0.0, [0.0, 0.0]],
                             ids=["invert_S", "invert_S_curve"])
    def test_count_is_refused_before_time_grid_and_radius(self, t):
        # invert_S and invert_S_curve reach the count check through
        # invert_transform, at a scalar time and at a grid.  The contour
        # scale 2(|rho| + beta) of this problem is not a finite float and the
        # time (grid) is bad too: the node count is named first
        prob = problem(1.0, 1e308, 0.5, -1.0)
        scale = 2.0 * (abs(prob.rho) + prob.params.beta)
        assert not math.isfinite(scale)
        with pytest.raises(DomainError, match="^n_nodes must be even"):
            invert_transform(lambda lam: laplace_S_hat(prob, lam), t,
                             n_nodes=15, contour_scale=scale)

    @pytest.mark.parametrize("n_nodes", [16, 18, 64, 256])
    def test_even_counts_in_range_are_taken(self, n_nodes):
        value, _ = invert_transform(lambda lam: 1.0 / (lam + 1.0), 1.0,
                                    n_nodes=n_nodes)
        assert abs(value - math.exp(-1.0)) < 1e-3


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

        invert_transform(transform, 1.0, n_nodes=32)
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray)
        assert calls[0].shape == (32,)

    def test_vector_of_times_is_one_call_and_the_scalar_rows(self):
        calls = []

        def transform(lam):
            calls.append(lam.shape)
            return 1.0 / (lam + 1.0)

        times = np.array([0.25, 1.0, 3.5])
        values, residues = invert_transform(transform, times)
        assert calls == [(3, 64)]
        for t, value, residue in zip(times, values, residues):
            assert (value, residue) == invert_transform(transform, float(t))
        with pytest.raises(DomainError, match="got 0.0"):
            invert_transform(transform, np.array([1.0, 0.0]))


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
        # the route's 64 nodes against the one quadrature at 32
        prob = problem(1.0, 1.0, 0.8, -2.0)
        scale = inversion_mod._default_scale(prob)
        for t in (0.2, 1.0, 4.8):
            v32, _ = invert_transform(lambda lam: laplace_S_hat(prob, lam), t,
                                      n_nodes=32, contour_scale=scale)
            assert abs(v32 - invert_S(prob, t)) < 1e-8

    def test_rejects_time_zero(self, double_root_problem):
        with pytest.raises(DomainError):
            invert_S(double_root_problem, 0.0)

    def test_contour_error_near_pole(self, double_root_problem, monkeypatch):
        real_parts = inversion_mod._S_hat_parts

        def fake_parts(prob, lam):
            w, den = real_parts(prob, lam)
            den.flat[3] = 1e-12
            return w, den

        monkeypatch.setattr(inversion_mod, "_S_hat_parts", fake_parts)
        with pytest.raises(AccuracyError, match="of a pole at t=1.0$"):
            invert_S(double_root_problem, 1.0)


class TestInvertSCurve:
    def test_pins_time_zero(self, double_root_problem):
        curve = invert_S_curve(double_root_problem, np.linspace(0.0, 2.0, 5))
        assert curve.values[0] == 1.0
        assert curve.method == "laplace"

    # Bits of the per-point loop that sampled curves before the (T, N)
    # contour array.  Every row is the one quadrature at its node count; the
    # 64-node rows are the route's too.
    @pytest.mark.parametrize("params, grid, n_nodes, bits", [
        ((1.0, 1.0, 0.5, -1.0), (5.0, 6), 64, [
            "0x1.0000000000000p+0", "0x1.2ad3ccd840000p-3",
            "-0x1.4b308561e0000p-6", "-0x1.e949f9b380000p-7",
            "-0x1.e706ef9700000p-9", "-0x1.c756195000000p-12"]),
        ((0.5, 0.0, 0.3, -2.0), (4.0, 5), 64, [
            "0x1.0000000000000p+0", "0x1.12b46b1040000p-6",
            "-0x1.cc3b6599e0000p-6", "-0x1.1e22f263e0000p-6",
            "-0x1.82b2670bc0000p-7"]),
        ((-0.2, 1.0, 0.8, -1.5), (3.0, 4), 64, [
            "0x1.0000000000000p+0", "0x1.15d8c78fe8000p-2",
            "0x1.936adbef88000p-4", "0x1.5bccf06ac0000p-5"]),
        ((1.0, 0.5, 1.0, -1.0), (6.0, 4), 64, [
            "0x1.0000000000000p+0", "-0x1.119971d620000p-3",
            "-0x1.d26b321300000p-6", "0x1.6ecfc39f80000p-7"]),
        ((1.0, 1.0, 0.5, -1.0), (5.0, 6), 16, [
            "0x1.0000000000000p+0", "0x1.2ad1f21823158p-3",
            "-0x1.4b3cdc0f76f80p-6", "-0x1.e96e1f555d200p-7",
            "-0x1.e81a0611c8a00p-9", "-0x1.c03f7c8da3800p-12"]),
        ((1.0, 1.0, 0.5, -1.0), (5.0, 6), 256, [
            "0x1.0000000000000p+0", "0x1.2ad3cce3ca98cp-3",
            "-0x1.4b3085133f576p-6", "-0x1.e949f950474dap-7",
            "-0x1.e706ed3be8310p-9", "-0x1.c755fe5d766c0p-12"]),
    ])
    def test_pinned_bits(self, params, grid, n_nodes, bits):
        prob = problem(*params)
        times = np.linspace(0.0, *grid)
        values, _ = invert_transform(
            lambda lam: laplace_S_hat(prob, lam), times[1:], n_nodes=n_nodes,
            contour_scale=inversion_mod._default_scale(prob))
        assert [float.hex(v) for v in [1.0, *values.tolist()]] == bits
        if n_nodes == 64:
            curve = invert_S_curve(prob, times)
            assert [float.hex(float(v)) for v in curve.values] == bits

    def test_large_node_array_keeps_the_row_bits(self):
        # 1,000 rows of 64 nodes: past the 256 KiB at which numpy would
        # compute an unnamed temporary's complex product in place
        prob = problem(1.0, 0.5, 0.5, -1.0)
        grid = np.linspace(0.0, 5.0, 1001)
        curve = invert_S_curve(prob, grid)
        rows = [invert_S(prob, t) for t in grid[1:].tolist()]
        assert curve.values[1:].tolist() == rows

    def test_one_evaluation_of_the_transform_per_call(self, monkeypatch):
        # the node guard and the values share one evaluation of S_hat's
        # parts on the whole (T, 64) node array
        real_parts = symbols_mod._S_hat_parts
        shapes = []

        def counted(prob, lam):
            shapes.append(np.shape(lam))
            return real_parts(prob, lam)

        for module in (symbols_mod, inversion_mod):
            monkeypatch.setattr(module, "_S_hat_parts", counted)
        invert_S_curve(problem(1.0, 0.5, 0.5, -1.0), np.linspace(0.0, 5.0, 6))
        assert shapes == [(5, 64)]

    @staticmethod
    def _guard_rows_after(monkeypatch, t_first):
        """Put a pole on node 3 of every row whose time is >= t_first."""
        real_parts = inversion_mod._S_hat_parts

        def fake_parts(prob, lam):
            w, den = real_parts(prob, lam)
            # the smallest node modulus of a row is about radius / t
            radius = inversion_mod._default_scale(prob)
            late = np.abs(lam).min(axis=-1) < 1.01 * radius / t_first
            den[..., 3] = np.where(late, 1e-12, den[..., 3])
            return w, den

        monkeypatch.setattr(inversion_mod, "_S_hat_parts", fake_parts)

    def test_earlier_residue_failure_wins_over_a_later_guard(self,
                                                              monkeypatch):
        # rho = -16 fails the residue check at every t; t >= 1 is guarded
        prob = problem(1.0, 0.5, 0.5, -16.0)
        self._guard_rows_after(monkeypatch, 1.0)
        with pytest.raises(AccuracyError) as info:
            invert_S_curve(prob, [0.0, 0.5, 1.0, 2.0])
        assert str(info.value) == (
            "imaginary residue 4.88e-04 at t=0.5 exceeds 1e-08; the "
            "inversion is not trustworthy")

    @pytest.mark.filterwarnings("error")
    def test_non_finite_sum_raises_without_warnings(self):
        # the radius 2(|rho| + beta) = 801 overflows e^{lam t}: value and
        # residue are NaN, and NaN >= IM_RESIDUE_TOL is false
        with pytest.raises(AccuracyError, match=r"not finite at t=1\.0;"):
            invert_S_curve(problem(1.0, 0.5, 0.5, -400.0), [0.0, 1.0, 2.0])

    def test_earlier_guard_wins_over_a_later_residue_failure(self,
                                                              monkeypatch):
        prob = problem(1.0, 0.5, 0.5, -16.0)
        self._guard_rows_after(monkeypatch, 0.5)
        with pytest.raises(AccuracyError, match="of a pole at t=0.5$"):
            invert_S_curve(prob, [0.0, 0.5, 1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(curve_sweep_cases())
    def test_curve_is_the_batch_of_one(self, case):
        prob, grid = case
        expected, error = [1.0], None
        for t in grid[1:]:
            try:
                expected.append(invert_S(prob, float(t)))
            except MemdiffError as exc:
                error = exc
                break
        if error is None:
            curve = invert_S_curve(prob, grid)
            assert list(map(float.hex, curve.values.tolist())) == list(
                map(float.hex, expected))
        else:
            with pytest.raises(MemdiffError) as info:
                invert_S_curve(prob, grid)
            assert error_record(info.value) == error_record(error)


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
