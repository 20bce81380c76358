import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from memdiff import ConvergenceError, DomainError, prabhakar_ml
from memdiff import special
from memdiff.special import reg_lower_inc_gamma
from conftest import error_record, one_pair


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

    def test_bounded_for_tiny_mu(self):
        # Below mu = 1e-12 the series times the front factor rounded above 1
        # (by up to 9.5e-14 at mu = 3e-308); 1.0 is the nearest float to P.
        mus = 10.0 ** np.random.default_rng(0).uniform(-308.0, 0.0, 64)
        xs = np.concatenate([np.linspace(0.0, 2.0, 201),
                             np.linspace(2.0, 700.0, 50)])
        for mu in mus.tolist():
            vals = reg_lower_inc_gamma(mu, xs)
            assert 0.0 <= vals.min() and vals.max() <= 1.0, mu

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu, xs", [
        (1e-308, [0.9, 1.0]),
        (1e-310, [5e-324, 1e-300, 0.5, 1.0]),
        (5e-324, [5e-324, 1e-300, 0.5, 1.0]),
    ])
    def test_series_past_the_float_range_is_exactly_one(self, mu, xs):
        # The series sums to about e^x / mu, past the largest float here
        # (at mu = 1e-310, 1 / mu is already inf).  1 - P <= about 745 mu is
        # far below half an ulp of 1, so P is 1 exactly.
        assert reg_lower_inc_gamma(mu, np.array(xs)).tolist() == [1.0] * len(xs)
        assert [reg_lower_inc_gamma(mu, x) for x in xs] == [1.0] * len(xs)
        with np.errstate(over="ignore"):
            series = special._inc_gamma_series(mu, np.array(xs))
        assert series.tolist() == [math.inf] * len(xs)

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
            assert prabhakar_ml(0.5, k, 0.0) == expected

    def test_frozen_golden(self):
        # 50-digit partial sum of the defining series
        assert prabhakar_ml(0.5, 2, 1.5) == pytest.approx(
            1.019441336305306801230853, rel=1e-12)

    def test_cosh_identity(self):
        # first index 2, second 1: E(z) = cosh(sqrt z) for z >= 0
        assert prabhakar_ml(1.0, 0, 1.0) == pytest.approx(
            math.cosh(1.0), rel=1e-12)
        for z in np.linspace(0.0, 100.0, 41):
            got = prabhakar_ml(1.0, 0, float(z))
            assert got == pytest.approx(math.cosh(math.sqrt(z)), abs=1e-10 * math.cosh(math.sqrt(z)))

    def test_cos_identity(self):
        assert prabhakar_ml(1.0, 0, -1.0) == pytest.approx(
            math.cos(1.0), rel=1e-12)
        for z in np.linspace(-100.0, 0.0, 41):
            got = prabhakar_ml(1.0, 0, float(z))
            assert got == pytest.approx(math.cos(math.sqrt(-z)), abs=1e-10)

    @pytest.mark.parametrize("mu,k", [(0.3, 0), (0.5, 1), (0.8, 3), (1.0, 2)])
    def test_monotone_for_nonnegative_argument(self, mu, k):
        zs = np.linspace(0.0, 100.0, 26)
        vals = [prabhakar_ml(mu, k, float(z)) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mu,k", [(0.3, 0), (0.5, 2), (1.0, 0)])
    @pytest.mark.parametrize("z", [-100.0, -31.4, 10.0, 100.0])
    def test_truncation_met_inside_declared_domain(self, mu, k, z):
        # Terms decay (entire function), so the truncation criterion is met
        # for every |z| <= 100; the only admissible failure is the honest
        # precision guard on strongly alternating sums.
        try:
            prabhakar_ml(mu, k, z)
        except ConvergenceError as exc:
            assert exc.reason == "precision"
            assert z < 0.0

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.7])
    def test_stated_domain_for_negative_argument(self, mu):
        # inside |z|^{1/(mu+1)} = 13 the value matches the defining series
        # within its own error estimate; at 16 the precision guard raises
        z = -(13.0 ** (mu + 1.0))
        value, est, _ = special._prabhakar_full(mu, 0, z)
        assert prabhakar_ml(mu, 0, z) == value
        ref = _series_reference(mu, 0, z)
        assert abs(value - ref) <= est
        assert abs(value - ref) <= 1e-7 * abs(ref)
        with pytest.raises(ConvergenceError) as info:
            prabhakar_ml(mu, 0, -(16.0 ** (mu + 1.0)))
        assert info.value.reason == "precision"

    def test_term_overflow_raises(self):
        with pytest.raises(ConvergenceError) as info:
            prabhakar_ml(0.9, 0, 1e9)
        assert info.value.reason == "overflow"

    def test_overflow_raises_as_the_scalar_walk(self):
        # memdiff eval-ml -m 0.5 -k 0 -z 30000
        with pytest.raises(ConvergenceError) as info:
            special._prabhakar_full(0.5, 0, 30000.0)
        assert error_record(info.value) == (
            ConvergenceError,
            "series term overflows for z=30000.0 (mu=0.5, k=0)",
            "overflow", 233, "inf")

    def test_pairs_engine_is_the_one_pair_call(self):
        # converging, alternating, z = 0, overflowing and (at a 64-term
        # budget) max_terms pairs; z and -z at different k, next to each
        # other (one ln|z| for the run) or apart, each keep their own sign.
        # At the series' own budget the one-pair call is _prabhakar_scaled.
        ks = np.array([0, 3, 3, 7, 0, 2, 4, 0, 5, 6, 1])
        zs = np.array([1.5, -31.4, 0.0, 60.0, 1e9, -2.0, 2.0, 80.0, 0.3, -0.3,
                       31.4])
        calls = {64: lambda mu, k, z: one_pair(mu, k, z, 64),
                 special._MAX_TERMS: special._prabhakar_scaled}
        for mu, (max_terms, call) in itertools.product((0.05, 0.5, 1.0),
                                                       calls.items()):
            values, ests, n_terms, failures = special._prabhakar_pairs(
                mu, ks, zs, max_terms)
            for i, (k, z) in enumerate(zip(ks.tolist(), zs.tolist())):
                try:
                    one = call(mu, k, z)
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
            one_pair(0.5, 0, 80.0, 16)
        assert info.value.reason == "max_terms"
        assert info.value.last_term is not None and info.value.last_term > 0.0

    def test_param_validation(self):
        with pytest.raises(DomainError):
            prabhakar_ml(0.0, 0, 1.0)
        with pytest.raises(DomainError):
            prabhakar_ml(1.2, 0, 1.0)
        with pytest.raises(DomainError):
            prabhakar_ml(0.5, -1, 1.0)
        with pytest.raises(DomainError):
            prabhakar_ml(0.5, 0, math.inf)


def scalar_walk(mu: float, k: int, z: float, max_terms: int):
    """One pair of the series on Python floats, the walk the pairs engine
    vectorizes: ``math.exp`` per term, Neumaier's branch per addition.
    Returns ``(value, estimate, n_terms)`` or raises its ConvergenceError."""
    if z == 0.0:
        return 1.0, 1e-16, 1
    where = f"for z={z} (mu={mu}, k={k})"
    ln_abs_z = math.log(abs(z))
    total = comp = abs_sum = 0.0
    small_run = 0
    for n in range(max_terms):
        log_term = (math.lgamma(k + n + 1.0) - math.lgamma(n + 1.0)
                    - math.lgamma(n * (mu + 1.0) + k + 1.0)) + n * ln_abs_z
        if log_term > 700.0:
            raise ConvergenceError(f"series term overflows {where}",
                                   reason="overflow", last_term=math.inf,
                                   n_terms=n)
        term = math.exp(log_term)
        if n & 1 and z < 0.0:
            term = -term
        abs_sum += abs(term)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        value = total + comp
        small_run = (small_run + 1 if abs(term) < special._REL_TOL * abs(value)
                     else 0)
        if small_run >= 3:
            return value, 1e-14 * abs_sum, n + 1
    raise ConvergenceError(
        f"series did not meet its truncation criterion within "
        f"{max_terms} terms {where}", reason="max_terms",
        last_term=abs(term), n_terms=max_terms)


class TestPairsAgainstScalarWalk:
    """The pairs engine takes exp through numpy's complex exp and sums by a
    branch-free two-sum; a pure-Python walk with ``math.exp`` and Neumaier's
    branch must give the same bits, term counts and errors."""

    KS = np.array([0, 3, 7, 0, 3, 2, 5, 4, 0, 1, 0, 6])
    ZS = np.array([1.5, 60.0, 0.3, -2.0, -31.4, -10.0, -5.5, 0.0, 30000.0,
                   1e9, 80.0, -0.7])

    @pytest.mark.parametrize("max_terms", [64, 2000])
    @pytest.mark.parametrize("mu", [0.05, 0.5, 1.0])
    def test_pairs_equal_the_scalar_walk(self, mu, max_terms):
        values, ests, n_terms, failures = special._prabhakar_pairs(
            mu, self.KS, self.ZS, max_terms)
        reasons = set()
        for i, (k, z) in enumerate(zip(self.KS.tolist(), self.ZS.tolist())):
            try:
                want = scalar_walk(mu, k, z, max_terms)
            except ConvergenceError as exc:
                assert error_record(failures[i]) == error_record(exc)
                assert math.isnan(values[i])
                reasons.add(exc.reason)
                continue
            assert i not in failures
            got = (float(values[i]), float(ests[i]), int(n_terms[i]))
            assert (float.hex(got[0]), float.hex(got[1]), got[2]) == (
                float.hex(want[0]), float.hex(want[1]), want[2]), (k, z)
        # z = 1e9 overflows at every mu, and 64 terms are too few for the
        # largest positive z that does not
        assert reasons == {"overflow"} | (
            {"max_terms"} if max_terms == 64 else set())


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

    # x of np.logspace(1, 20, 400) where the continued fraction did not
    # converge; the front factor x^mu e^{-x} is 0 there, so P is exactly 1
    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.9, 1.0])
    def test_huge_x_is_exactly_one(self, mu):
        xs = np.array([3.340484983513258e16, 4.641588833612753e17,
                       5.179474679231181e17, 1.7301957388458908e18,
                       2.154434690031878e18, 5.779692884153277e18,
                       7.196856730011528e18, 1.550515779832622e19,
                       1.7301957388458908e19, 2.6826957952797164e19,
                       3.3404849835132305e19, 6.449466771037634e19])
        assert np.all(reg_lower_inc_gamma(mu, xs) == 1.0)
        assert all(reg_lower_inc_gamma(mu, float(x)) == 1.0 for x in xs)

    def test_array_domain(self):
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(0.5, np.array([1.0, math.nan]))
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(0.5, np.array([1.0, -1e-300]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine, name", [
        (special._inc_gamma_series, "series"),
        (special._inc_gamma_fraction, "continued fraction")])
    def test_engine_that_never_converges_raises(self, engine, name):
        # reg_lower_inc_gamma refuses NaN itself (above), so only a direct
        # call reaches the engines' iteration limits
        with pytest.raises(ConvergenceError,
                           match=f"^incomplete gamma {name} did not converge$"):
            engine(0.5, np.array([math.nan]))


class TestCoefficientCache:
    """The series' log-coefficients, computed per call: memdiff keeps no
    coefficient cache between calls."""

    @pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 0.77, 1.0])
    def test_log_factorial_table_keeps_the_three_lgamma_bits(self, mu):
        ks = [0, 3, 17, 60]
        for n in (0, 1, 2, 63, 64, 65, 127, 200):
            upper = [math.lgamma(k + n + 1.0) for k in ks]
            coeffs = special._log_coeffs(mu, ks, n, upper)
            for k, got in zip(ks, coeffs.tolist()):
                three = (math.lgamma(k + n + 1.0) - math.lgamma(n + 1.0)
                         - math.lgamma(n * (mu + 1.0) + k + 1.0))
                assert float.hex(got) == float.hex(three)

    def test_long_series_keeps_its_bits(self):
        # bits of the cached walk this replaced, whose 68 terms crossed one
        # of its 64-coefficient chunks
        value, est, n_terms = special._prabhakar_scaled(0.3, 0, 100.0)
        assert float.hex(value) == "0x1.6222346e9130ep+49"
        assert float.hex(est) == "0x1.f2661497c174bp+2"
        assert n_terms == 68


def hexes(a) -> list[str]:
    return [float.hex(v) for v in np.asarray(a, dtype=float).ravel().tolist()]


def sum_steps(total, comp, small_run, terms, rel_tol):
    """Column by column through _sum_step: the per-column state and result
    that _sum_block must reproduce."""
    total, comp, small_run = total.copy(), comp.copy(), small_run.copy()
    abs_terms = np.abs(terms)
    cols = {name: [] for name in ("totals", "comps", "runs", "values", "done")}
    for j in range(terms.shape[1]):
        value, done = special._sum_step(total, comp, small_run,
                                        terms[:, j].copy(), abs_terms[:, j],
                                        rel_tol)
        for name, col in zip(cols, (total, comp, small_run, value, done)):
            cols[name].append(col.copy())
    return tuple(np.stack(cols[name], axis=1) for name in cols)


class TestSumBlock:
    """Column j of _sum_block is j + 1 calls of _sum_step, bit for bit."""

    def check(self, total, comp, small_run, terms, rel_tol):
        before = (total.copy(), comp.copy(), small_run.copy())
        with np.errstate(all="ignore"):
            got = special._sum_block(total, comp, small_run, terms,
                                     np.abs(terms), rel_tol)
            want = sum_steps(total, comp, small_run, terms, rel_tol)
        for name, g, w in zip(("totals", "comps", "runs", "values", "done"),
                              got, want):
            assert g.shape == terms.shape, name
            assert hexes(g) == hexes(w), name
        # the state passed in is not changed
        for a, b in zip((total, comp, small_run), before):
            assert hexes(a) == hexes(b)
        return got

    def test_random_rows(self):
        rng = np.random.default_rng(3)
        terms = rng.standard_normal((9, 32)) * 10.0 ** rng.integers(
            -20, 20, (9, 32))
        self.check(rng.standard_normal(9) * 1e3, rng.standard_normal(9) * 1e-14,
                   np.zeros(9), terms, 1e-12)

    def test_cancelling_rows_that_stop(self):
        # large terms that cancel, then a tail that falls below rel_tol
        k = np.arange(24.0)
        tail = 0.5 ** k
        rows = np.stack([
            np.where(k < 6, (-1.0) ** k * 1e16, tail),
            np.where(k % 2 == 0, 1e15, -1e15) + tail,
            (-1.0) ** k * 3.0 ** -k,
            np.concatenate([[1.0, 1e20, -1e20], tail[3:]]),
        ])
        got = self.check(np.zeros(4), np.zeros(4), np.zeros(4), rows, 1e-3)
        done = got[4]
        assert done[[0, 2, 3]].any(axis=1).all()

    def test_overflow_and_nan_terms(self):
        terms = np.array([
            [1e308, 1e308, 1.0, 1e-30, 1e-30, 1e-30],
            [1.0, math.nan, 1e-30, 1e-30, 1e-30, 1e-30],
            [1.0, math.inf, -math.inf, 1e-30, 1e-30, 1e-30],
            [-1e308, -1e308, 1e-30, 1e-30, 1e-30, 1e-30],
            [1.0, 1e-30, 1e-30, 1e-30, math.nan, 1e-30],
        ])
        got = self.check(np.zeros(5), np.zeros(5), np.zeros(5), terms, 1e-12)
        totals, comps, runs, values, done = got
        assert not done[:4].any()  # a sum that is not finite never stops
        assert done[4, 3] and not np.isfinite(values[:4, -1]).any()

    @pytest.mark.parametrize("carried", [1, 2])
    def test_carried_run_across_a_block_boundary(self, carried):
        # Block A ends with `carried` small terms; block B completes the run
        # of three in its first 3 - carried columns.
        small = 1e-20
        a = np.full((2, 6), small)
        a[:, :6 - carried] = [1.0, 0.5, 0.25, 2.0, 3.0, 0.7][:6 - carried]
        b = np.full((2, 5), small)
        b[1, 0] = 0.1  # the second row's run restarts
        zeros = np.zeros(2)
        first = self.check(zeros, zeros, zeros, a, 1e-12)
        runs = first[2][:, -1]
        assert runs.tolist() == [float(carried)] * 2
        second = self.check(first[0][:, -1], first[1][:, -1], runs, b, 1e-12)
        done = second[4]
        assert done[0].tolist().index(True) == 2 - carried
        assert done[1].tolist().index(True) == 3
        # one pass over both blocks is the same as two
        both = self.check(zeros, zeros, zeros, np.hstack([a, b]), 1e-12)
        for g, h in zip(both, second):
            assert hexes(g[:, 6:]) == hexes(h)


class TestLazyCompaction:
    """A stopped pair stays in the engine's arrays until at most a quarter
    of them is alive; each result and failure is still recorded once, as
    the one-pair call records it."""

    def test_mixed_batch_equals_one_pair_calls(self):
        # early convergers (small |z|, stopping at different n), overflowing
        # pairs (huge z), and pairs that need more than 16 terms
        converge = [(0, 0.01), (1, -0.02), (2, 0.05), (3, 0.001), (4, 0.1),
                    (0, -0.2), (5, 0.3), (6, 0.002), (1, 0.5), (7, -0.04),
                    (2, 0.8), (3, -0.6)]
        overflow = [(0, 1e300), (5, 1e250), (2, -1e200)]
        exhaust = [(0, 80.0), (4, 60.0), (1, -40.0)]
        pairs = converge + overflow[:1] + exhaust[:1] + overflow[1:] \
            + exhaust[1:]
        ks = np.array([k for k, _ in pairs])
        zs = np.array([z for _, z in pairs])
        for mu in (0.3, 0.5, 1.0):
            values, ests, n_terms, failures = special._prabhakar_pairs(
                mu, ks, zs, 16)
            reasons = []
            for i, (k, z) in enumerate(pairs):
                try:
                    one = one_pair(mu, k, z, 16)
                except ConvergenceError as exc:
                    assert error_record(failures[i]) == error_record(exc)
                    assert math.isnan(values[i])
                    reasons.append(exc.reason)
                    continue
                assert i not in failures
                assert (hexes([values[i], ests[i]]), int(n_terms[i])) == (
                    hexes(one[:2]), one[2])
            assert reasons.count("overflow") == 3
            assert reasons.count("max_terms") == 3
            assert len(failures) == 6
