import math

import numpy as np
import pytest

from memdiff import (AccuracyError, DomainError, KernelParams, ScalarProblem,
                     SpectralModel, StepSizeError, kernel_a,
                     operator_norm_curve, solve_volterra, volterra)
from conftest import problem


def steps(n, dt):
    """The grid of n steps of dt from 0, which is its own stepping grid."""
    return np.arange(n + 1) * dt


class TestKernelA:
    def test_at_zero(self):
        for params in (KernelParams(1.0, 0.0, 0.5), KernelParams(-0.2, 1.0, 0.3)):
            assert kernel_a(params, 0.0) == 1.0

    def test_beta_zero_power_law(self):
        # Gamma(1.5) = sqrt(pi)/2
        got = kernel_a(KernelParams(1.0, 0.0, 0.5), 1.0)
        assert got == pytest.approx(1.0 + 2.0 / math.sqrt(math.pi), rel=1e-14)

    def test_saturation_for_positive_beta(self):
        params = KernelParams(1.0, 2.0, 0.5)
        assert kernel_a(params, 200.0) == pytest.approx(
            1.0 + 2.0 ** -0.5, abs=1e-8)

    def test_continuity_near_zero(self):
        # a - 1 vanishes like alpha t^mu / Gamma(mu+1) (Hoelder, not Lipschitz)
        params = KernelParams(1.0, 1.0, 0.3)
        ts = np.logspace(-12, -2, 21)
        vals = np.array([kernel_a(params, float(t)) for t in ts])
        envelope = ts ** params.mu / math.gamma(params.mu + 1.0)
        assert np.all(np.abs(vals - 1.0) <= envelope)
        assert np.all(np.diff(vals) > 0.0)
        assert abs(vals[0] - 1.0) < 1e-3

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            kernel_a(KernelParams(1.0, 0.0, 0.5), -1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params, t, message", [
        # alpha * beta^-mu = 1e300 * 1e9^0.999999 overflows, and inf times
        # P(mu, 0) = 0 would be NaN
        (KernelParams(1e300, 1e-9, 0.999999), 0.0,
         "the kernel's factor alpha*beta^-mu is not a finite float for "
         "alpha=1e+300, beta=1e-09, mu=0.999999"),
        (KernelParams(-1e300, 1e-9, 0.999999), np.array([0.0, 1.0]),
         "the kernel's factor alpha*beta^-mu is not a finite float for "
         "alpha=-1e+300, beta=1e-09, mu=0.999999"),
        # alpha t^mu / Gamma(mu + 1) overflows past t = 1.79
        (KernelParams(1e308, 0.0, 1.0), np.array([0.0, 1.0, 2.0, 3.0]),
         "the kernel's table value alpha t^mu / Gamma(mu+1) is not a finite "
         "float at t=2.0 for alpha=1e+308, mu=1.0"),
        (KernelParams(-1e308, 0.0, 1.0), 5.0,
         "the kernel's table value alpha t^mu / Gamma(mu+1) is not a finite "
         "float at t=5.0 for alpha=-1e+308, mu=1.0"),
    ], ids=["factor", "factor-negative", "table", "table-negative"])
    def test_kernel_past_the_float_range_is_refused(self, params, t, message):
        with pytest.raises(DomainError) as info:
            kernel_a(params, t)
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    def test_mu_near_zero_keeps_one_plus_alpha(self):
        # At mu = 1e-310, P(mu, beta t) = 1 and t^mu = 1 for every t > 0, so
        # both kernels are exactly 1 + alpha there, and so are the solutions.
        grid = np.linspace(0.0, 0.5, 3)
        damped = solve_volterra(problem(1.0, 0.5, 1e-310, -1.0), grid, 0.0025)
        bare = solve_volterra(problem(1.0, 0.0, 1e-310, -1.0), grid, 0.0025)
        assert damped.values.tolist() == bare.values.tolist()
        table = kernel_a(KernelParams(1.0, 0.5, 1e-310), steps(200, 0.0025))
        assert table.tolist() == [1.0] + [2.0] * 200


class TestConfig:
    def test_dt_budget_enforced(self, monkeypatch):
        def spy(*args):
            raise AssertionError("a march started")
        monkeypatch.setattr(volterra, "_solve_grid", spy)
        prob = problem(1.0, 1.0, 0.5, -1.0)
        for grid, dt, message in [
                (steps(10, 0.2), None, r"dt must lie in \(0, 0\.1\]"),
                ([0.0, 1.0], 0.0, "dt must be finite and > 0"),
                ([0.0], None, "uniform grid"),
                ([0.0, 5000.01], 0.005, "needs more than 1000000 steps"),
                # Without dt the grid spacing is the step the message names.
                (steps(10**6 + 1, 1e-7), None,
                 r"^dt = 1e-07 needs more than 1000000 steps to reach "
                 r"t = 0\.1000001$"),
                # Each input below fails two checks and gets the earlier:
                # grid, dt, uniformity, the step bound, then the step.
                ([0.0, math.nan], -1.0, "time grid must be finite"),
                ([0.0, 0.1, 0.5], -1.0, "dt must be finite"),
                ([0.0, 0.1, 0.5], 0.2, "uniform grid"),
                (steps(10**6 + 1, 0.2), None,
                 "dt = 0.2 needs more than 1000000 steps")]:
            with pytest.raises(DomainError, match=message):
                solve_volterra(prob, grid, dt)
            # The norm curve's batch takes the same stepping.
            with pytest.raises(DomainError, match=message):
                operator_norm_curve(SpectralModel(1.0, 2), prob.params, grid,
                                    "volterra", dt)

    @pytest.mark.parametrize("n_steps, marches", [(600_000, False),
                                                  (500_000, True)])
    def test_richardson_obeys_the_step_bound(self, n_steps, marches,
                                             monkeypatch):
        # The dt/2 solve takes 2 n_steps steps; past the bound no march starts.
        started = []

        def spy(*args):
            started.append(args[2])
            raise RuntimeError("stop before the march")
        monkeypatch.setattr(volterra, "_solve_grid", spy)
        grid = [0.0, n_steps * 0.005]
        if marches:
            with pytest.raises(RuntimeError):
                solve_volterra(problem(1.0, 1.0, 0.5, -1.0), grid, 0.005,
                               richardson=True)
            assert started == [n_steps]
        else:
            with pytest.raises(DomainError,
                               match=f"richardson needs {2 * n_steps} steps"):
                solve_volterra(problem(1.0, 1.0, 0.5, -1.0), grid, 0.005,
                               richardson=True)
            assert started == []


class TestSolveVolterra:
    def test_initial_value_exact(self):
        curve = solve_volterra(problem(1.0, 1.0, 0.5, -1.0), steps(50, 0.01))
        assert curve.values[0] == 1.0
        assert curve.method == "volterra"

    def test_degenerate_exponential_baseline(self):
        curve = solve_volterra(problem(0.0, 0.0, 0.5, -1.0), [0.0, 1.0], 0.01)
        assert abs(curve.values[-1] - math.exp(-1.0)) <= 1e-4

    def test_double_root_golden(self, double_root_problem):
        curve = solve_volterra(double_root_problem, [0.0, 1.0], 0.005)
        assert abs(curve.values[-1] - 2.0 * math.exp(-2.0)) <= 5e-4

    def test_richardson_estimate_attached_and_tight(self):
        prob = problem(1.0, 1.0, 0.5, -1.0)
        curve = solve_volterra(prob, steps(100, 0.01), richardson=True)
        assert curve.error_estimate is not None
        fine = solve_volterra(prob, steps(200, 0.005))
        true_gap = np.max(np.abs(fine.values[::2] - curve.values))
        assert curve.error_estimate == pytest.approx(true_gap, rel=1e-12)
        # On a coarser grid the estimate is still over every step.
        coarse = solve_volterra(prob, np.linspace(0.0, 1.0, 5), 0.01,
                                richardson=True)
        assert coarse.error_estimate == curve.error_estimate
        assert np.array_equal(coarse.values, curve.values[::25])

    @pytest.mark.parametrize("prob,mu", [
        (problem(1.0, 1.0, 0.5, -1.0), 0.5),
        (problem(1.0, 0.0, 0.3, -2.0), 0.3),
        (problem(0.5, 1.0, 0.8, -2.0), 0.8),
    ])
    def test_halving_shrinks_estimate_at_kernel_order(self, prob, mu):
        ests = [solve_volterra(prob, [0.0, 2.0], dt, richardson=True
                               ).error_estimate for dt in (0.02, 0.01, 0.005)]
        assert ests[0] > ests[1] > ests[2]
        for a, b in zip(ests, ests[1:]):
            assert a / b >= 2.0 ** (1.0 + 0.8 * mu)

    def test_degenerate_step_raises(self):
        # 1 - rho dt / 2 = 0 at rho = 2/dt
        with pytest.raises(StepSizeError):
            solve_volterra(problem(1.0, 0.0, 0.5, 20.0), steps(10, 0.1))

    @pytest.mark.parametrize("rho, factor", [(5000.0, "-5.25"),
                                              (1000.0, "-0.25")])
    def test_negative_step_factor_raises(self, rho, factor):
        # rho dt / 2 > 1: the march divides by 1 - rho dt / 2 < 0 and cannot
        # follow the growth (S(0.02) = 2.74e43 at rho = 5000, mu = 1)
        with pytest.raises(StepSizeError, match=(
                f"^implicit step factor 1 - rho dt / 2 = {factor} is not "
                f"> 1e-12 at rho={rho}, dt=0.0025; shrink dt$")):
            solve_volterra(problem(1.0, 0.0, 1.0, rho), [0.0, 0.01, 0.02],
                           0.0025)

    def test_stiff_mode_remains_stable(self):
        curve = solve_volterra(problem(1.0, 0.5, 0.5, -256.0),
                               steps(400, 0.005))
        assert np.all(np.abs(curve.values[1:]) < 0.2)
        assert np.all(np.isfinite(curve.values))

    def test_non_finite_solution_raises(self):
        # u grows like e^{c t} and overflows near t = 12.5
        with pytest.raises(AccuracyError, match=r"rho=50\.0 from t=12\.4"):
            solve_volterra(problem(1.0, 0.0, 0.5, 50.0), steps(8000, 0.0025))

    def test_non_finite_batch_row_raises(self):
        with pytest.raises(AccuracyError, match=r"rho=50\.0 from t=12\.4"):
            volterra._solve_grid(KernelParams(1.0, 0.0, 0.5), 0.0025, 8000,
                                 [-1.0, 50.0])

    def test_earliest_failing_step_names_the_row(self):
        # rho = -9 overflows from t = 110.2, rho = -4 only from t = 154.1;
        # rows 1 and 2 tie, and the lower one is reported
        with pytest.raises(AccuracyError,
                           match=r"rho=-9\.0 from t=110\.2 on") as info:
            volterra._solve_grid(KernelParams(-5.0, 0.0, 0.5), 0.1, 2000,
                                 [-4.0, -9.0, -9.0])
        assert info.value.row == 1


class TestEquationConsistency:
    """Discrete solutions satisfy the differential form of the equation.

    The memory term rho * (kappa * u)(t) is recomputed by independent
    product quadrature of the singular kernel: on each panel the smooth
    factor e^{-beta s} u(t-s) is linearized and integrated exactly against
    s^{mu-1} via its power moments.
    """

    @staticmethod
    def singular_convolution(params, tgrid, u, i):
        dt = tgrid[1] - tgrid[0]
        s_left = tgrid[:i]
        s_right = tgrid[1:i + 1]
        m0 = (s_right ** params.mu - s_left ** params.mu) / params.mu
        m1 = ((s_right ** (params.mu + 1.0) - s_left ** (params.mu + 1.0))
              / (params.mu + 1.0) - s_left * m0)
        phi = params.alpha * np.exp(-params.beta * tgrid[:i + 1]) \
            * u[i::-1] / math.gamma(params.mu)
        left, right = phi[:-1], phi[1:]
        return float(np.sum(m0 * left + (right - left) / dt * m1))

    @pytest.mark.parametrize("prob", [
        problem(1.0, 1.0, 0.5, -1.0),
        problem(1.0, 0.0, 0.3, -2.0),
        problem(-0.2, 1.0, 0.5, -1.0),
    ])
    def test_derivative_matches_memory_form(self, prob):
        dt = 0.0025
        curve = solve_volterra(prob, steps(800, dt))
        t, u = curve.times, curve.values
        params = prob.params
        residuals = []
        for i in range(200, 800, 40):  # interior nodes with t >= 0.5
            du = (u[i + 1] - u[i - 1]) / (2.0 * dt)
            conv = self.singular_convolution(params, t, u, i)
            residuals.append(abs(du - prob.rho * u[i] - prob.rho * conv))
        assert max(residuals) <= dt ** params.mu


# kernel_a values of the one-point implementation this table engine replaced,
# as float.hex strings: the table must keep every bit.
PINNED_KERNEL = [
    ((1.0, 1.0, 0.5), 0.005, "0x1.1464507526871p+0"),
    ((1.0, 1.0, 0.5), 20.0, "0x1.fffffffee8c3dp+0"),
    ((-0.2, 1.0, 0.5), 1.25, "0x1.a542032c48a10p-1"),
    ((1.0, 0.0, 0.3), 0.7, "0x1.00266ff3e379ap+1"),
    ((0.5, 2.0, 0.05), 0.3, "0x1.78be3012048e0p+0"),
    ((1.0, 0.5, 1.0), 7.0, "0x1.7844fbf9c6c02p+1"),
]


def one_point_inc_gamma(mu, x):
    """The scalar P(mu, x) the table engine replaced, kept as the reference
    for its bits."""
    log_front = -x + mu * math.log(x) - math.lgamma(mu)
    if x < mu + 1.0:
        ap, total = mu, 1.0 / mu
        delta = total
        while abs(delta) >= abs(total) * 1e-16:
            ap += 1.0
            delta *= x / ap
            total += delta
        return total * math.exp(log_front)
    tiny = 1e-300
    b = x + 1.0 - mu
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    delta = 0.0
    i = 0
    while abs(delta - 1.0) >= 1e-16:
        i += 1
        an = -i * (i - mu)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
    return 1.0 - math.exp(log_front) * h


def one_point_kernel(params, t):
    if t == 0.0:
        return 1.0
    if params.beta == 0.0:
        return 1.0 + params.alpha * t ** params.mu / math.gamma(params.mu + 1.0)
    return 1.0 + params.alpha * params.beta ** (-params.mu) * one_point_inc_gamma(
        params.mu, params.beta * t)


def one_mode_march(params, rho, dt, n):
    """The per-mode march the batched engine replaced: np.dot on a reversed
    view of the table."""
    a = np.array([one_point_kernel(params, i * dt) for i in range(n + 1)])
    denom = 1.0 - 0.5 * rho * dt
    u = np.empty(n + 1)
    u[0] = 1.0
    a_rev = a[::-1]
    for i in range(1, n + 1):
        hist = 0.5 * a[i]
        if i > 1:
            hist += np.dot(a_rev[n - i + 1:n], u[1:i])
        u[i] = (1.0 + rho * dt * hist) / denom
    return u


class TestKernelTable:
    @pytest.mark.parametrize("params", [
        KernelParams(1.0, 0.0, 0.3),    # beta = 0: the power law
        KernelParams(-0.2, 1.0, 0.5),   # negative alpha
        KernelParams(0.5, 2.0, 0.05),   # mu near 0
        KernelParams(1.0, 0.5, 1.0),
    ])
    def test_table_equals_one_point_calls(self, params):
        t = np.arange(8001) * 0.005
        table = kernel_a(params, t)
        assert table.shape == (8001,)
        assert table[0] == 1.0
        for i in list(range(0, 8001, 61)) + [8000]:
            assert t[i] == i * 0.005
            assert table[i] == kernel_a(params, i * 0.005), i

    @pytest.mark.parametrize("params", [
        KernelParams(1.0, 0.0, 0.3),
        KernelParams(-0.2, 1.0, 0.5),
        KernelParams(0.5, 2.0, 0.05),
        KernelParams(1.0, 30.0, 0.5),
    ])
    def test_table_keeps_the_one_point_arithmetic(self, params):
        table = kernel_a(params, np.arange(8001) * 0.005)
        expected = [one_point_kernel(params, i * 0.005) for i in range(8001)]
        assert np.array_equal(table, expected)

    @pytest.mark.parametrize("params,t,expected", PINNED_KERNEL)
    def test_pinned_values(self, params, t, expected):
        kp = KernelParams(*params)
        assert kernel_a(kp, t).hex() == expected
        assert float(kernel_a(kp, np.array([0.0, t, 2.0 * t]))[1]).hex() == expected

    def test_negative_time_in_table_rejected(self):
        with pytest.raises(DomainError):
            kernel_a(KernelParams(1.0, 1.0, 0.5), np.array([0.0, 0.1, -0.1]))


def chunked_march(a, rho, dt):
    """One row on the table ``a`` with every history sum taken as in-order
    dots of at most 10,000 elements, added left to right."""
    n = a.size - 1
    a_rev = a[::-1].copy()
    denom = 1.0 - 0.5 * rho * dt
    u = np.empty(n + 1)
    u[0] = 1.0
    for i in range(1, n + 1):
        hist = 0.5 * a[i]
        if i > 1:
            dots = [np.dot(a_rev[n - i + lo:n - i + min(i, lo + 10_000)],
                           u[lo:min(i, lo + 10_000)])
                    for lo in range(1, i, 10_000)]
            dot = dots[0]
            for d in dots[1:]:
                dot += d
            hist += dot
        u[i] = (1.0 + rho * dt * hist) / denom
    return u


class TestBatchedMarch:
    @pytest.mark.parametrize("params,rho", [(KernelParams(1.0, 1.0, 0.5), -2.0),
                                            (KernelParams(-0.2, 0.0, 0.3), -9.0),
                                            (KernelParams(0.5, 0.0, 0.05), -1.0),
                                            (KernelParams(1.0, 0.5, 0.5), -256.0)])
    def test_march_keeps_the_one_mode_arithmetic(self, params, rho):
        curve = solve_volterra(ScalarProblem(params, rho), steps(8000, 0.005))
        assert np.array_equal(curve.values,
                              one_mode_march(params, rho, 0.005, 8000))

    @pytest.mark.parametrize("params", [KernelParams(1.0, 0.5, 0.5),
                                        KernelParams(-0.2, 0.0, 0.3)])
    def test_each_row_of_a_16_mode_batch_is_the_batch_of_one(self, params):
        # A batch of two or more rows marches in the batched loop, a batch
        # of one in the one-row loop: the two must agree bit for bit.
        rhos = [-float(k * k) for k in range(1, 17)]
        batch = volterra._solve_grid(params, 0.005, 8000, rhos)
        assert batch.shape == (16, 8001)
        for row, rho in zip(batch, rhos):
            one = solve_volterra(ScalarProblem(params, rho), steps(8000, 0.005))
            assert np.array_equal(row, one.values)
        # On a coarser grid refined to the same step the values are the
        # rows at its nodes, and the Richardson estimate is the gap of two
        # batched solves over every step.
        grid, dt = np.linspace(0.0, 40.0, 81), 0.005  # 100 steps a cell
        ends = [rhos[0], rhos[-1]]
        fine = volterra._solve_grid(params, 0.0025, 16000, ends)
        for coarse, fine_row, rho in zip(batch[[0, -1]], fine, ends):
            one = solve_volterra(ScalarProblem(params, rho), grid, dt,
                                 richardson=True)
            assert np.array_equal(one.values, coarse[::100])
            assert one.error_estimate == float(
                np.max(np.abs(fine_row[::2] - coarse)))

    @pytest.mark.parametrize("params", [KernelParams(1.0, 0.5, 0.5),
                                        KernelParams(-0.2, 0.0, 0.3)])
    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_smallest_batches_and_shortest_marches_match_one_row(
            self, params, rows, n_steps):
        # The smallest batches that take the batched loop, over marches
        # that are all or mostly its first step.
        rhos = [-float(k * k) for k in range(1, rows + 1)]
        batch = volterra._solve_grid(params, 0.005, n_steps, rhos)
        assert batch.shape == (rows, n_steps + 1)
        for row, rho in zip(batch, rhos):
            one = solve_volterra(ScalarProblem(params, rho),
                                 steps(n_steps, 0.005))
            assert np.array_equal(row, one.values)

    @pytest.mark.parametrize("rows, n_steps", [(17, 10**6), (16001, 999)])
    def test_batch_table_is_bounded_before_it_is_allocated(self, rows,
                                                           n_steps):
        # rows * (n_steps + 1) floats may not exceed 16 rows at the step
        # bound; the stepping refuses it before the kernel table and the rows
        # are built, as the last of its checks.
        with pytest.raises(DomainError,
                           match=f"{rows} rows of {n_steps + 1} nodes exceed"):
            volterra._stepping(steps(n_steps, 0.005), None, rows)

    def test_long_history_sums_are_in_order_chunks(self):
        # 20,050 steps: the last history sums take three chunks.  Both loops
        # sum them in the same order, so a row still does not depend on its
        # batch, nor on the BLAS thread count.
        params, rhos, dt, n = KernelParams(1.0, 0.5, 0.5), [-1.0, -2.0], \
            0.005, 20_050
        a = kernel_a(params, np.arange(n + 1) * dt)
        batch = volterra._solve_grid(params, dt, n, rhos)
        for row, rho in zip(batch, rhos):
            want = chunked_march(a, rho, dt)
            one = solve_volterra(ScalarProblem(params, rho), steps(n, dt))
            assert np.array_equal(one.values, want)
            assert np.array_equal(row, want)

    def test_short_solve_is_a_prefix_of_the_long_one(self):
        prob = problem(1.0, 1.0, 0.5, -2.0)
        short = solve_volterra(prob, steps(4000, 0.005))
        long = solve_volterra(prob, steps(8000, 0.005))
        assert np.array_equal(short.values, long.values[:4001])
        assert np.array_equal(short.times, long.times[:4001])
        # Refined to that step, coarser grids keep the prefix at their nodes:
        # 20 / 4000 and 40 / 8000 round alike.
        short = solve_volterra(prob, np.linspace(0.0, 20.0, 41), 0.005)
        long = solve_volterra(prob, np.linspace(0.0, 40.0, 81), 0.005)
        assert np.array_equal(short.values, long.values[:41])

    def test_degenerate_row_raises(self):
        with pytest.raises(StepSizeError):
            volterra._solve_grid(KernelParams(1.0, 0.0, 0.5), 0.1, 10,
                                 [-1.0, 20.0])


class TestVolterraGrid:
    def test_grid_is_its_own_stepping_grid(self):
        grid = np.arange(0.0, 201.0) * 0.01
        _, step, n_steps, per_cell = volterra._stepping(grid, None, 1)
        assert (step, n_steps, per_cell) == (grid[1], 200, 1)

    def test_cells_split_into_steps_no_longer_than_dt(self):
        grid = np.linspace(0.0, 5.0, 32)
        _, step, n_steps, per_cell = volterra._stepping(grid, 0.0025, 1)
        assert per_cell == 65
        assert n_steps == 65 * 31
        assert step == 5.0 / n_steps <= 0.0025

    def test_one_step_per_cell_on_linspace_is_the_end_over_steps(self):
        for tmax, points in ((5.0, 51), (7.3, 1001), (0.3, 11), (20.0, 4001)):
            grid = np.linspace(0.0, tmax, points)
            _, step, _, per_cell = volterra._stepping(grid, 0.1, 1)
            assert per_cell == 1
            assert step == tmax / (points - 1)

    def test_long_linspace_grid_is_uniform(self):
        # its cells differ by more than 1e-12 relative through node rounding
        grid = np.linspace(0.0, 5.0, 100001)
        _, step, n_steps, per_cell = volterra._stepping(grid, None, 1)
        assert (step, n_steps, per_cell) == (grid[1], 100000, 1)

    @pytest.mark.parametrize("grid", [[0.0, 0.1, 0.5], [0.1, 0.2, 0.3], [0.0],
                                      [0.0, 0.05, 0.1000001],
                                      [[0.0, 0.1], [0.2, 0.3]], 0.0,
                                      [0.0, -0.1, -0.2], [0.0, math.nan],
                                      [0.0, math.inf]])
    def test_non_uniform_or_shifted_grid_rejected(self, grid):
        with pytest.raises(DomainError):
            solve_volterra(problem(1.0, 1.0, 0.5, -1.0), grid)

    def test_on_grid_values_are_fine_solve_nodes(self):
        prob = problem(1.0, 1.0, 0.5, -1.0)
        grid = np.linspace(0.0, 1.0, 5)
        curve = solve_volterra(prob, grid, 0.01)
        fine = solve_volterra(prob, steps(100, 0.01))
        assert np.array_equal(curve.times, grid)
        assert np.array_equal(curve.values, fine.values[::25])


# float.hex values of the solve before it took a grid, at verify's long-march
# stepping (8,000 steps of 0.005) and on scalar-curve's grid refined to
# dt = 0.0025: the grid-in call must keep every bit.
PINNED_LONG_MARCH = {2000: "-0x1.f28beabe15b4bp-20",
                     4000: "-0x1.6ec941c16fb88p-36",
                     8000: "-0x1.feb9231cba6a0p-53"}
PINNED_CURVE_GRID = [
    ((0.5, 1.0, 0.3), -1.0, ["0x1.a296659b3a682p-1", "0x1.2cf006d10b3ccp-7",
                             "-0x1.d2935a388cee3p-11"]),
    ((1.0, 0.5, 0.5), -2.0, ["0x1.4df1c0278f34dp-1", "-0x1.851030c64d8f0p-7",
                             "-0x1.f0aad4d5cc940p-11"]),
]


class TestBitPins:
    def test_long_march_stepping(self):
        curve = solve_volterra(problem(0.5, 1.0, 0.3, -1.0), steps(8000, 0.005))
        for i, want in PINNED_LONG_MARCH.items():
            assert curve.times[i] == i * 0.005 == i / 200
            assert float(curve.values[i]).hex() == want, i

    @pytest.mark.parametrize("params,rho,want", PINNED_CURVE_GRID)
    def test_scalar_curve_grid(self, params, rho, want):
        grid = np.linspace(0.0, 5.0, 32)
        curve = solve_volterra(ScalarProblem(KernelParams(*params), rho),
                               grid, 0.0025)
        assert np.array_equal(curve.times, grid)
        assert [float(curve.values[i]).hex() for i in (1, 16, 31)] == want
