"""Scalar special functions: the regularized incomplete gamma and the
three-parameter (Prabhakar) Mittag-Leffler family

    E(mu, k; z) = sum_{n>=0} (k+n)! z^n / (n! k! Gamma(n(mu+1) + k + 1)),

which is the kernel of the resolvent series.  Terms are assembled in log
space from ``lgamma`` values and accumulated with Neumaier-compensated
summation; truncation stops after ``_CONSECUTIVE_SMALL`` successive terms
fall below ``rel_tol`` (1e-12) times the running sum, and fails past
``max_terms`` (2000) terms; only ``series_curve``'s ``rel_tol`` and the CLI
flags ``--rel-tol`` and ``--max-terms`` set another policy.

Supported accuracy domain for the series: 0 <= z <= 100, and z < 0 with
|z|^{1/(mu+1)} <= 13 (z >= -78.3 at mu = 0.7, -46.9 at mu = 0.5, -28.1 at
mu = 0.3).  For z < 0 the terms grow to about e^{|z|^{1/(mu+1)}} while the
sum stays O(1), so cancellation costs about that factor in precision: the
relative error is near 1e-12 at |z|^{1/(mu+1)} = 5 and near 1e-8 at 13, and
the returned error estimate bounds it.  Strongly alternating evaluations
that exhaust double precision raise :class:`~memdiff.errors.ConvergenceError`
(reason ``"precision"``) instead of silently degrading; for k = 0 that
happens once |z|^{1/(mu+1)} reaches about 14 (z = -15.9 at mu = 0.05, -31.2
at mu = 0.3, -53.8 at mu = 0.5, -92.6 at mu = 0.7; about 17 at mu = 1).
Larger k reach a little further.

The series is written once, as an engine over arrays of (k, z) pairs
(``_prabhakar_pairs``): all pairs step through n together in numpy add,
multiply, ``abs`` and ``exp``, and each keeps the operation order of its
own sequential walk, so a batch equals one-pair calls bit for bit and error
for error.  A pair's result is recorded at the step it stops, but the pair
leaves the arrays only when they are compacted, once at most a quarter of
them is still live: one compaction every few steps, not one at every step
where some pair stops.  ``_prabhakar_scaled`` is the one-pair call.  Every
transcendental result carries libm's bits, because numpy's real exp and log
need not round like libm's: ``exp`` is one numpy call on the whole array
through the complex exp, which is libm's ``cexp`` (``_exp``), and ``log``
and ``lgamma`` are ``math`` calls, one element at a time.

The series keeps no state between calls: a call computes the
log-coefficients of each n as its walk reaches it, by ``lgamma`` calls, so
no result depends on an earlier call and no table grows with k.  Within a
call, lgamma(k+n+1) at step n is lgamma((k+1)+(n-1)+1) of the step before,
so consecutive steps share it for every k but the largest; a call computes
its coefficients for every k from its least to its largest.

``reg_lower_inc_gamma`` is array-first: a one-point call runs the array
engine on one element and costs 0.01-0.6 ms, the most near x = mu + 1, so
callers pass whole tables.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "reg_lower_inc_gamma",
    "prabhakar_ml",
]


def _is_int(v) -> bool:
    """Whether ``v`` is an integer count or index; a bool is not."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# Successive terms below rel_tol times the running sum that stop a series.
_CONSECUTIVE_SMALL = 3

# The series' one truncation policy (rel_tol, max_terms).
_REL_TOL = 1e-12
_MAX_TERMS = 2000


def _check_series(rel_tol: float, max_terms: int) -> None:
    """Refuse a truncation policy outside (0, 1) x [16, ...)."""
    if not (0.0 < rel_tol < 1.0):
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if not _is_int(max_terms) or max_terms < 16:
        raise DomainError(f"max_terms must be >= 16, got {max_terms}")


def reg_lower_inc_gamma(mu: float, x):
    """Regularized lower incomplete gamma P(mu, x) for 0 < mu <= 1, x >= 0.

    Power series for x < mu + 1, Lentz continued fraction for the upper
    complement otherwise; both are the classically stable choices and give
    absolute error well below 1e-12.

    ``x`` may be an array (the Volterra kernel table is one such call).  Each
    element runs the arithmetic of a one-point call and stops at its own
    convergence test, so an array call equals one-point calls bit for bit.
    The front factor x^mu e^{-x} / Gamma(mu) is e^{-x + mu ln x -
    lgamma(mu)}, computed in one pass over every x > 0 and shared by both
    branches, with libm's bits: ``log`` per element from ``math``, ``exp``
    in one call of :func:`_exp`, the same operations in the same order as a
    scalar ``math.exp(-x + mu * math.log(x) - lgamma(mu))``.  P(mu, 0) = 0.

    The series sums to about e^x / mu.  Where that passes the float range
    (mu below about 5e-308), P is exactly 1: there 1 - P <= about 745 mu,
    far below half an ulp of 1.
    """
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"mu must lie in (0, 1], got {mu}")
    xs = np.asarray(x, dtype=float)
    bad = xs[~(np.isfinite(xs) & (xs >= 0.0))]
    if bad.size:
        raise DomainError(f"x must be finite and >= 0, got {float(bad[0])}")
    flat = xs.reshape(-1)
    out = np.zeros(flat.size)
    pos = np.flatnonzero(flat > 0.0)
    xp = flat[pos]
    out[pos] = 1.0
    # exp(-x + mu ln x - lgamma(mu)) underflows harmlessly for huge x; its
    # argument is <= 0, inside _exp's contract.
    front = _exp(-xp + mu * _libm(math.log, xp) - math.lgamma(mu))
    low = xp < mu + 1.0
    if low.any():
        with np.errstate(over="ignore"):  # inf: P is exactly 1
            series = _inc_gamma_series(mu, xp[low])
        fits = np.isfinite(series)
        # P <= 1, but the product can round above it where mu is tiny and
        # the series near the float range; 1.0 is then the nearest float.
        out[pos[low][fits]] = np.minimum(series[fits] * front[low][fits], 1.0)
    # Where the front factor underflows to 0, P is exactly 1 and the
    # fraction, which need not converge that far out, is not run.
    live = ~low & (front > 0.0)
    if live.any():
        out[pos[live]] -= front[live] * _inc_gamma_fraction(mu, xp[live])
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _inc_gamma_series(mu: float, x: np.ndarray) -> np.ndarray:
    """sum_n x^n / (mu (mu+1) ... (mu+n)) elementwise; P(mu, x) is this times
    the front factor.  For x > 0 the terms and totals are positive, so the
    stop test needs no ``abs``.  The terms fall (x < mu + 1), so only the
    total can overflow; an infinite total passes the convergence test at
    once and is returned as ``inf``, with numpy's overflow flag left to the
    caller."""
    start = 1.0 / mu
    if math.isinf(start):
        return np.full(x.size, math.inf)
    total = delta = np.full(x.size, start)
    out = np.empty(x.size)
    live = np.arange(x.size)
    ap = mu
    for _ in range(512):
        ap += 1.0
        delta = delta * (x / ap)
        total = total + delta
        done = delta < total * 1e-16
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, x, delta, total = live[keep], x[keep], delta[keep], total[keep]
            if not live.size:
                return out
    raise ConvergenceError("incomplete gamma series did not converge",
                           last_term=float(abs(delta[0])))


def _inc_gamma_fraction(mu: float, x: np.ndarray) -> np.ndarray:
    """Modified Lentz continued fraction elementwise (Thompson & Barnett,
    J. Comput. Phys. 64, 1986); 1 - P(mu, x) is this times the front factor.

    The method's guards, which replace a denominator ``an d + b`` or ``c``
    below a tiny floor, cannot fire here, so there are none: the caller
    sends only 0 < mu <= 1 and x >= mu + 1, so b_0 = x + 1 - mu >= 2.  At
    step i >= 1, an = -i (i - mu) and b_i = b_0 + 2i.  If d_{i-1} = 1/D with
    D >= i + 1, then |an| d_{i-1} <= i^2 / (i + 1) = i - i/(i + 1), so
    ``an d + b`` >= 2 + 2i - i + i/(i + 1) > i + 2, and likewise c >= i + 2
    from c_{i-1} >= i + 1.  c starts at 1e300, so c_1 = b_1 + an/1e300 is b_1
    exactly, and D_0 = b_0 >= 2 starts the induction; the margin
    i/(i + 1) >= 1/2 absorbs the rounding of b_0.
    """
    b = x + 1.0 - mu
    c = np.full(x.size, 1e300)
    d = 1.0 / b
    h = d
    out = np.empty(x.size)
    live = np.arange(x.size)
    for i in range(1, 512):
        an = -i * (i - mu)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
            if not live.size:
                return out
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _log_coeffs(mu: float, kvals: list[int], n: int,
                upper: list[float]) -> np.ndarray:
    """Coefficient n of the series for each k of ``kvals``,

        lgamma(k+n+1) - lgamma(n+1) - lgamma(n(mu+1)+k+1),

    three lgamma calls in that subtraction order, the middle one shared by
    every k.  ``upper`` holds the first one for each k."""
    nm = n * (mu + 1.0)
    log_n_fact = math.lgamma(n + 1.0)
    return np.array([first - log_n_fact - math.lgamma(nm + k + 1.0)
                     for first, k in zip(upper, kvals)])


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) applied to each element of ``x``.

    numpy's real log need not round like libm's, and neither does its
    complex log, so ``log`` and ``lgamma`` are libm's, one element at a
    time; ``exp`` goes through :func:`_exp`."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _exp(x: np.ndarray) -> np.ndarray:
    """e^x for each element of ``x``, bit for bit ``math.exp``, for x <= 709.

    numpy's real exp does not round like libm's (with AVX-512 it differs on
    about 4.5% of uniform arguments).  Its complex exp calls libm's ``cexp``,
    and glibc's ``cexp(x + 0i)`` is ``exp(x) * 1`` for every x up to 709, so
    the real part carries libm's bits; NaN, -inf and +-0 map as ``math.exp``
    maps them.  Above 709 glibc rescales and the last bit may differ.  Both
    callers stay inside: the series masks ``log_term > 700`` to NaN, and the
    incomplete gamma's front exponent -x + mu ln x - lgamma(mu) is <= 0."""
    return np.exp(x.astype(np.complex128)).real


def _sum_step(total: np.ndarray, comp: np.ndarray, small_run: np.ndarray,
              term: np.ndarray, abs_term: np.ndarray, rel_tol: float):
    """Add ``term`` (with ``abs_term`` = |term|) to each Neumaier-compensated
    sum ``total + comp`` and count the run of terms below ``rel_tol`` times
    the sum, all three arrays in place.  Returns ``(value, done)``: the sums
    and where the run has reached ``_CONSECUTIVE_SMALL``.  Both series walks
    stop by this rule.

    ``comp`` gains the rounding error of ``total + term`` by Knuth's
    branch-free two-sum.  Where that sum is finite the error is exact, so it
    equals Neumaier's branch on the larger of |total| and |term| bit for bit,
    in five array operations instead of seven.  Where it overflows, both
    make the value NaN from that term on."""
    t = total + term
    back = t - total
    comp += (total - (t - back)) + (term - back)
    total[...] = t
    value = total + comp
    small_run += 1.0
    small_run *= abs_term < rel_tol * np.abs(value)
    return value, small_run >= _CONSECUTIVE_SMALL


def _sum_block(total: np.ndarray, comp: np.ndarray, small_run: np.ndarray,
               terms: np.ndarray, abs_terms: np.ndarray, rel_tol: float):
    """Every column of ``terms`` (rows x width) through :func:`_sum_step`,
    row by row, in one pass; ``total``, ``comp`` and ``small_run`` are the
    state before column 0 and are not changed.

    Returns ``(totals, comps, small_runs, values, done)``, each shaped like
    ``terms``: column j is the state and result after j + 1 calls of
    :func:`_sum_step`, bit for bit.  The two-sum is a chain of error-free
    transformations, so the running totals are one in-order
    ``np.add.accumulate`` along each row, each column's rounding error
    follows from consecutive totals, and a second accumulate adds the
    errors in the same order.  A run of small terms counts back to the last
    column that was not small, or on into the run carried in."""
    rows, width = terms.shape
    totals = np.empty((rows, width + 1))
    totals[:, 0] = total
    totals[:, 1:] = terms
    totals = np.add.accumulate(totals, axis=1)
    before, t = totals[:, :-1], totals[:, 1:]
    back = t - before
    comps = np.empty((rows, width + 1))
    comps[:, 0] = comp
    comps[:, 1:] = (before - (t - back)) + (terms - back)
    comps = np.add.accumulate(comps, axis=1)[:, 1:]
    values = t + comps
    cols = np.arange(width, dtype=float)
    # The last column that was not small, at or before each column; the
    # carried run puts it at -1 - small_run before column 0.
    last_big = np.maximum.accumulate(np.where(
        abs_terms < rel_tol * np.abs(values), -1.0 - small_run[:, None], cols),
        axis=1)
    small_runs = cols - last_big
    return t, comps, small_runs, values, small_runs >= _CONSECUTIVE_SMALL


def _prabhakar_pairs(mu: float, ks: np.ndarray, zs: np.ndarray,
                     rel_tol: float, max_terms: int):
    """k! * E(mu, k; z) for every pair (ks[i], zs[i]), in one numpy pass.

    Returns ``(values, err_estimates, n_terms, failures)``: three arrays over
    the pairs and a dict {pair index: ConvergenceError} of the pairs that
    failed, whose values are NaN.  All pairs step through n together; each
    pair runs the arithmetic of its own sequential walk (Neumaier sum,
    ``_CONSECUTIVE_SMALL`` stopping rule, error estimate), in the same
    operation order, and its result or error is recorded once, when it
    converges or fails, so they are those of a call on that pair alone.
    """
    size = zs.size
    values = np.ones(size)
    ests = np.full(size, 1e-16)
    n_terms = np.ones(size, dtype=np.int64)
    failures: dict[int, ConvergenceError] = {}
    idx = np.flatnonzero(zs != 0.0)  # z = 0 sums to its first term, 1
    if not idx.size:
        return values, ests, n_terms, failures
    k_live = ks[idx]
    k_min = int(k_live.min())
    # Coefficients are computed for every k from min k to max k, and
    # rows[i] is pair i's place in that range.
    kvals = list(range(k_min, int(k_live.max()) + 1))
    rows = k_live - k_min
    # One row per quantity, one column per pair, compressed together:
    # ln|z|, running sum, compensation, sum of |terms|, run of small terms,
    # sign of z.
    state = np.zeros((6, idx.size))
    state[0] = _libm(math.log, np.abs(zs[idx]))
    state[5] = np.where(zs[idx] < 0.0, -1.0, 1.0)
    ln_abs_z, total, comp, abs_sum, small_run, sign = state
    # lgamma(k + n + 1) for each k of kvals: coefficient n's first lgamma,
    # which step n + 1 shares for all but the largest k.
    upper = [math.lgamma(k + 1.0) for k in kvals]
    # Pairs that have not stopped.  A stopped pair stays in the arrays until
    # at most a quarter of them is alive, so its result is recorded once.
    alive = np.ones(idx.size, dtype=bool)

    def fail(i: int, message: str, **info) -> None:
        values[idx[i]] = math.nan
        failures[int(idx[i])] = ConvergenceError(message.format(
            z=float(zs[idx[i]]), mu=mu, k=int(ks[idx[i]])), **info)

    # Python float arithmetic never warns; numpy's must not either.
    with np.errstate(all="ignore"):
        for n in range(max_terms):
            log_term = _log_coeffs(mu, kvals, n, upper)[rows] + n * ln_abs_z
            upper.append(math.lgamma(kvals[-1] + n + 2.0))
            del upper[0]
            over = log_term > 700.0
            # An overflowing pair's term is NaN, so it is never done; it fails.
            log_term[over] = math.nan
            term = _exp(log_term)
            if n & 1:
                term *= sign  # exact: a product with -1 or 1 negates or keeps
            abs_term = np.abs(term)
            abs_sum += abs_term
            value, done = _sum_step(total, comp, small_run, term, abs_term,
                                    rel_tol)
            over &= alive
            done &= alive
            stop = done | over
            if not stop.any():
                continue
            for i in over.nonzero()[0].tolist():
                fail(i, "series term overflows for z={z} (mu={mu}, k={k})",
                     reason="overflow", last_term=math.inf, n_terms=n)
            # Error estimate calibrated against 50-digit references over a
            # 400-case stress grid: the true error stays below 1.2e-15 *
            # abs_sum, so 1e-14 carries ~9x margin.
            finished = idx[done]
            values[finished] = value[done]
            ests[finished] = 1e-14 * abs_sum[done]
            n_terms[finished] = n + 1
            alive &= ~stop
            n_alive = np.count_nonzero(alive)
            if not n_alive:
                return values, ests, n_terms, failures
            if 4 * n_alive <= idx.size:
                state, idx, rows, abs_term = (
                    state[:, alive], idx[alive], rows[alive], abs_term[alive])
                ln_abs_z, total, comp, abs_sum, small_run, sign = state
                alive = np.ones(idx.size, dtype=bool)
    for i in alive.nonzero()[0].tolist():
        fail(i, f"series did not meet its truncation criterion within "
                f"{max_terms} terms for z={{z}} (mu={{mu}}, k={{k}})",
             reason="max_terms", last_term=float(abs_term[i]),
             n_terms=max_terms)
    return values, ests, n_terms, failures


def _prabhakar_scaled(mu: float, k: int, z: float, rel_tol: float,
                      max_terms: int) -> tuple[float, float, int]:
    """k! * E(mu, k; z) with an absolute error estimate.

    Returns ``(value, err_estimate, n_terms)``.  The k!-scaling keeps the
    value O(1) in k so the resolvent series can pair it with the
    complementary factor c^k / k! without overflow on either side.  This is
    the one-pair call of :func:`_prabhakar_pairs`.
    """
    values, ests, n_terms, failures = _prabhakar_pairs(
        mu, np.array([k]), np.array([z], dtype=float), rel_tol, max_terms)
    if failures:
        raise failures[0]
    return float(values[0]), float(ests[0]), int(n_terms[0])


def _prabhakar_full(mu: float, k: int, z: float, rel_tol: float,
                    max_terms: int) -> tuple[float, float, int]:
    """(value, absolute error estimate, terms used) of E(mu, k; z), after
    checking the truncation policy, mu, k and z in that order."""
    _check_series(rel_tol, max_terms)
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"mu must lie in (0, 1], got {mu}")
    if not _is_int(k) or k < 0:
        raise DomainError(f"k must be a non-negative integer, got {k}")
    # Past 2**53, k + n + 1.0 in the coefficient walk is not exact.
    if k >= 2 ** 53:
        raise DomainError(f"k must be < 2**53, got {k}")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    scale = math.exp(-math.lgamma(k + 1.0))
    value, est, n_terms = _prabhakar_scaled(mu, k, z, rel_tol, max_terms)
    if est > 1e-8 and est > 1e-6 * abs(value):
        raise ConvergenceError(
            f"cancellation exhausted double precision for z={z} "
            f"(mu={mu}, k={k}); estimated error {est:.2e} on a value "
            f"of magnitude {abs(value):.2e}",
            reason="precision", last_term=est, n_terms=n_terms)
    return scale * value, scale * est, n_terms


def prabhakar_ml(mu: float, k: int, z: float) -> float:
    """Evaluate E(mu, k; z) (first index mu+1, second and upper index k+1)
    by its defining series under the one truncation policy.

    Parameters
    ----------
    mu:
        In (0, 1].
    k:
        A non-negative integer below 2**53.
    z:
        Real argument; see the module docstring for the supported domain.

    Raises
    ------
    DomainError
        If mu, k or z lies outside its domain.
    ConvergenceError
        If the truncation criterion is not met within 2000 terms, a term
        overflows, or cancellation has destroyed the requested accuracy
        (``reason == "precision"``).
    """
    return _prabhakar_full(mu, k, z, _REL_TOL, _MAX_TERMS)[0]
