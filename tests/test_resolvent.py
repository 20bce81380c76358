import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from memdiff import (AccuracyError, ConvergenceError, Curve, CurveMethod,
                     DomainError, VolterraConfig, invert_transform,
                     laplace_S_hat, mu1_closed_form, series_S, series_curve,
                     solve_volterra)
from memdiff import resolvent
from memdiff.resolvent import _series_grid
from memdiff.special import (DEFAULT_SERIES_CONTROL, SeriesControl,
                             _prabhakar_scaled)
from conftest import curve_sweep_cases, error_record, problem


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

    def test_power_overflow_raises(self):
        # t^(mu+1) overflows a double before any series term is formed
        with pytest.raises(ConvergenceError) as info:
            series_S(problem(1.0, 0.0, 0.5, -1.0), 1e300)
        assert info.value.reason == "overflow"
        assert "t=1e+300" in str(info.value)


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
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                series_curve(prob, [0.0, bad])
            with pytest.raises(DomainError):
                Curve([0.0, bad], [1.0, 0.5], CurveMethod.SERIES, prob)

    # Bits of the per-point loop that sampled curves before the grid engine
    # (one outer walk per time); the last case has rho = 0, so z = 0.
    @pytest.mark.parametrize("params, grid, bits", [
        ((1.0, 1.0, 0.5, -1.0), (5.0, 6), [
            "0x1.0000000000000p+0", "0x1.2ad3ccd7f749dp-3",
            "-0x1.4b3085637e637p-6", "-0x1.e949f9bb78a4bp-7",
            "-0x1.e706efaf01567p-9", "-0x1.c75618f226ed0p-12"]),
        ((0.5, 0.0, 0.3, -2.0), (4.0, 5), [
            "0x1.0000000000000p+0", "0x1.12b46b0d04facp-6",
            "-0x1.cc3b659cb3c08p-6", "-0x1.1e22f266d64d5p-6",
            "-0x1.82b267135a392p-7"]),
        ((-0.2, 1.0, 0.8, -1.5), (3.0, 4), [
            "0x1.0000000000000p+0", "0x1.15d8c78fc2926p-2",
            "0x1.936adbeedadc4p-4", "0x1.5bccf0695ddeap-5"]),
        ((1.0, 0.5, 1.0, -1.0), (6.0, 4), [
            "0x1.0000000000000p+0", "-0x1.119971d660880p-3",
            "-0x1.d26b32151a4cap-6", "0x1.6ecfc39b4a39bp-7"]),
        ((1.0, 0.5, 0.5, 0.0), (5.0, 3), [
            "0x1.0000000000000p+0", "0x1.fffffffffffffp-1",
            "0x1.ffffffffffffcp-1"]),
        # strong outer cancellation over more than one block of k
        ((1.0, 0.5, 0.5, -4.0), (3.0, 4), [
            "0x1.0000000000000p+0", "-0x1.5eb4c29ad08a4p-5",
            "-0x1.ea8a467fee90fp-8", "-0x1.44f3d7ea753fdp-9"]),
        ((0.5, 0.0, 0.8, -3.0), (4.0, 5), [
            "0x1.0000000000000p+0", "-0x1.fdeafbf83f7cdp-5",
            "-0x1.075fca0673751p-4", "-0x1.259ee7be07d67p-5",
            "-0x1.66e19927cff54p-6"]),
        ((1.0, 0.0, 1.0, -6.0), (2.0, 5), [
            "0x1.0000000000000p+0", "-0x1.0e2f7af434f1ap-4",
            "-0x1.749d02379bb27p-4", "-0x1.b65d90243efb0p-5",
            "-0x1.d92a8264110aep-6"]),
    ])
    def test_pinned_bits(self, params, grid, bits):
        curve = series_curve(problem(*params), np.linspace(0.0, *grid))
        assert [float.hex(float(v)) for v in curve.values] == bits

    @pytest.mark.parametrize("params, grid, message, reason, n_terms, last", [
        # memdiff scalar-curve -a 1 -b 0.5 -m 0.5 -r -4 --tmax 5
        ((1.0, 0.5, 0.5, -4.0), (5.0, 32),
         "t=3.225806451612903: cancellation exhausted double precision at "
         "t=3.225806451612903: estimated error 3.82e-08 on S of magnitude "
         "2.00e-03", "precision", 55, "0x1.487eb27b4d1f0p-25"),
        # memdiff scalar-curve -a 1 -b 0 -m 0.5 -r 300 --tmax 20 --points 5
        ((1.0, 0.0, 0.5, 300.0), (20.0, 5),
         "t=5.0: resolvent series term 169 overflows at t=5.0",
         "overflow", 170, "inf"),
    ])
    def test_raises_as_the_per_point_loop(self, params, grid, message,
                                          reason, n_terms, last):
        with pytest.raises(ConvergenceError) as info:
            series_curve(problem(*params), np.linspace(0.0, *grid))
        assert error_record(info.value) == (ConvergenceError, message, reason,
                                            n_terms, last)

    @settings(max_examples=30, deadline=None)
    @given(curve_sweep_cases())
    # Five times that succeed, then four whose outer sums overflow.
    @example((problem(1.0, 0.0, 0.5, 300.0), np.linspace(0.0, 4.0, 9)))
    def test_grid_engine_is_the_batch_of_one(self, case):
        prob, grid = case
        values, failures = _series_grid(prob, grid, DEFAULT_SERIES_CONTROL)
        for i, t in enumerate(grid):
            try:
                expected = series_S(prob, float(t))
            except ConvergenceError as exc:
                assert error_record(failures[i]) == error_record(exc)
                # A walk ends at its first term that is not finite.
                assert math.isfinite(exc.last_term) or (
                    exc.reason == "overflow"
                    and exc.n_terms < DEFAULT_SERIES_CONTROL.max_terms)
                continue
            assert i not in failures
            assert float.hex(float(values[i])) == float.hex(expected)
        if failures:
            first = min(failures)
            with pytest.raises(ConvergenceError) as info:
                series_curve(prob, grid)
            assert str(info.value) == f"t={grid[first]}: {failures[first]}"
        else:
            curve = series_curve(prob, grid)
            assert curve.values.tobytes() == values.tobytes()


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

    def test_bad_time_is_an_argument_error(self, double_root_problem):
        for t in (-1.0, math.nan):
            with pytest.raises(DomainError, match="t must be finite"):
                mu1_closed_form(double_root_problem, t)

    def test_tie_band_is_relative(self):
        # D = (2 + 1e-13)^2 - 4 (1 - 1e-13) ~ 8e-13 < 1e-12 (rho+beta)^2 ~ 4e-12
        prob = problem(1.0, 3.0, 1.0, -1.0 + 1e-13)
        s, half_gap = prob.rho + 3.0, 0.5 * (prob.rho - 3.0)  # beta = 3
        for t in (0.5, 1.0, 4.0):
            double_root = (1.0 + 0.5 * s * t) * math.exp(half_gap * t)
            assert mu1_closed_form(prob, t) == double_root

    def test_requires_mu_one(self):
        with pytest.raises(DomainError):
            mu1_closed_form(problem(1.0, 0.0, 0.5, -1.0), 1.0)

    def test_overflow_is_an_accuracy_error(self):
        # e^{(rho + sqrt(D)) t / 2} = e^{5098}: no float holds S(100)
        with pytest.raises(AccuracyError, match="overflows at t=100.0"):
            mu1_closed_form(problem(1.0, 0.0, 1.0, 50.0), 100.0)
        # D = 4 alpha rho = -4e310: cos(c t) of an infinite c, NaN at t = 0
        for t in (0.0, 1.0):
            with pytest.raises(AccuracyError, match="discriminant"):
                mu1_closed_form(problem(1e300, 0.0, 1.0, -1e10), t)


class TestDampingRelation:
    def test_series_times_exponential_matches_inverse_of_G(self):
        # e^{beta t} S(t) inverts G_hat(lam) = S_hat(lam - beta)
        prob = problem(1.0, 1.0, 0.5, -1.0)
        for t in (0.5, 1.5, 3.0):
            lifted = math.exp(prob.params.beta * t) * series_S(prob, t)
            inverted, resid = invert_transform(
                lambda lam: laplace_S_hat(prob, lam - prob.params.beta), t,
                contour_scale=2.0 * (abs(prob.rho) + prob.params.beta))
            assert resid < 1e-8
            assert lifted == pytest.approx(inverted, abs=1e-6)


def sequential_walk(prob, t: float, ctl):
    """S(t) by the outer series on Python floats, one k at a time: the walk
    the grid engine runs by blocks.  Returns the value or the
    ConvergenceError of the time, and the k it stopped at (None where no
    term was taken or none stopped it)."""
    if t == 0.0:
        return 1.0, None
    p = prob.params
    try:
        z = p.alpha * prob.rho * t ** (p.mu + 1.0)
    except OverflowError:
        return ConvergenceError(f"t^(mu+1) overflows at t={t} (mu={p.mu})",
                                reason="overflow", last_term=math.inf,
                                n_terms=0), None
    c = (prob.rho + p.beta) * t
    damp = math.exp(-p.beta * t)
    prefactor, total, comp, est, small_run = 1.0, 0.0, 0.0, 0.0, 0
    for k in range(ctl.max_terms):
        try:
            scaled, scaled_est, _ = _prabhakar_scaled(p.mu, k, z, ctl)
        except ConvergenceError as exc:
            return exc, k
        term = prefactor * scaled
        if not math.isfinite(term):
            return ConvergenceError(
                f"resolvent series term {k} overflows at t={t}",
                reason="overflow", last_term=math.inf, n_terms=k + 1), k
        est = est + (abs(prefactor) * scaled_est + abs(term) * 1e-15)
        # Knuth's two-sum
        s = total + term
        back = s - total
        comp += (total - (s - back)) + (term - back)
        total = s
        value = total + comp
        small_run = small_run + 1 if abs(term) < ctl.rel_tol * abs(value) else 0
        if small_run >= 3:
            s_t, est_s = damp * value, damp * est
            if est_s > 2e-8 and est_s > 1e-7 * abs(s_t):
                return ConvergenceError(
                    f"cancellation exhausted double precision at t={t}: "
                    f"estimated error {est_s:.2e} on S of magnitude "
                    f"{abs(s_t):.2e}", reason="precision", last_term=est_s,
                    n_terms=k + 1), k
            return s_t, k
        prefactor = prefactor * (c / (k + 1.0))
    return ConvergenceError(
        f"resolvent series did not converge within {ctl.max_terms} terms "
        f"at t={t}", reason="max_terms", last_term=abs(term),
        n_terms=ctl.max_terms), None


class TestSeriesGridAgainstSequentialWalk:
    """The block pass of _series_grid equals a per-k walk for every block
    size, with stops on a block's first and last column and a max_terms
    that is not a multiple of the block size."""

    CASES = [
        # converging everywhere, stops spread over k
        ((1.0, 0.5, 0.5, -1.0), 6.0, SeriesControl()),
        # precision failures past t = 3.2
        ((1.0, 0.5, 0.5, -4.0), 5.0, SeriesControl()),
        # c^k / k! overflows at k = 3
        ((1.0, 1e150, 0.5, -1.0), 6.0, SeriesControl()),
        # 40 terms: late times fail on max_terms, inner or outer
        ((0.7, 0.2, 0.8, -2.0), 12.0, SeriesControl(max_terms=40)),
        ((-0.3, 1.5, 0.4, -2.5), 9.0, SeriesControl(rel_tol=1e-6,
                                                     max_terms=40)),
        # the inner series fails at k = 0: its terms overflow, or it needs
        # more than 40 terms
        ((1e300, 0.0, 0.5, 1.0), 2.0, SeriesControl(max_terms=40)),
        ((1e6, 0.0, 1.0, 1e3), 2.0, SeriesControl(max_terms=40)),
    ]

    # Message heads of the failures, outer walk first, then inner series.
    SOURCES = ("cancellation", "resolvent series term",
               "resolvent series did not", "series term", "series did not")

    @pytest.fixture(scope="class")
    def walks(self):
        out = []
        for params, tmax, ctl in self.CASES:
            prob = problem(*params)
            grid = np.linspace(0.0, tmax, 25)
            out.append((prob, grid, ctl, [sequential_walk(prob, float(t), ctl)
                                          for t in grid]))
        return out

    @pytest.mark.parametrize("block", [1, 3, 16, 32])
    def test_block_pass_is_the_sequential_walk(self, walks, block,
                                               monkeypatch):
        monkeypatch.setattr(resolvent, "_K_BLOCK", block)
        ends, reasons, sources = set(), set(), set()
        assert block == 1 or any(ctl.max_terms % block
                                 for _, _, ctl, _ in walks)
        for prob, grid, ctl, want in walks:
            values, failures = _series_grid(prob, grid, ctl)
            for i, (w, k) in enumerate(want):
                if isinstance(w, ConvergenceError):
                    assert error_record(failures[i]) == error_record(w), i
                    assert math.isnan(values[i])
                    reasons.add(w.reason)
                    sources.add(next(head for head in self.SOURCES
                                     if str(w).startswith(head)))
                else:
                    assert i not in failures
                    assert float.hex(float(values[i])) == float.hex(w), i
                if k is not None:
                    ends.add(k % block)
            assert len(failures) == sum(isinstance(w, ConvergenceError)
                                        for w, _ in want)
        assert reasons == {"precision", "overflow", "max_terms"}
        assert sources == set(self.SOURCES)
        # stops on the first and the last column of a block
        assert {0, block - 1} <= ends
