"""Scalar special functions: the regularized incomplete gamma and the
three-parameter (Prabhakar) Mittag-Leffler family

    E(mu, k; z) = sum_{n>=0} (k+n)! z^n / (n! k! Gamma(n(mu+1) + k + 1)),

which is the kernel of the resolvent series.  Terms are assembled in log
space from ``lgamma`` values and accumulated with Neumaier-compensated
summation; truncation stops after ``_CONSECUTIVE_SMALL`` successive terms
fall below ``rel_tol`` times the running sum.

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
multiply, ``where`` and ``abs``, and each keeps the operation order of its
own sequential walk, so a batch equals one-pair calls bit for bit and error
for error.  ``_prabhakar_scaled`` is the one-pair call.  Every
transcendental call is libm's, one element at a time (``math.exp``,
``math.log``, ``math.lgamma``): numpy's vectorized exp need not round like
libm's.

The series keeps no state between calls: a call computes the
log-coefficients of each n as its walk reaches it, from a log-factorial
table of its own, so no result depends on an earlier call.

``reg_lower_inc_gamma`` is array-first: a one-point call runs the array
engine on one element and costs 0.1-0.8 ms, so callers pass whole tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "MLParams",
    "SeriesControl",
    "DEFAULT_SERIES_CONTROL",
    "reg_lower_inc_gamma",
    "prabhakar_ml",
]


@dataclass(frozen=True)
class MLParams:
    """Index pair of the Mittag-Leffler family: first index mu+1, second and
    upper index k+1."""

    mu: float
    k: int

    def __post_init__(self) -> None:
        if not (0.0 < self.mu <= 1.0):
            raise DomainError(f"mu must lie in (0, 1], got {self.mu}")
        if self.k < 0 or int(self.k) != self.k:
            raise DomainError(f"k must be a non-negative integer, got {self.k}")


# Successive terms below rel_tol times the running sum that stop a series.
_CONSECUTIVE_SMALL = 3


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy shared by all series evaluations."""

    rel_tol: float = 1e-12
    max_terms: int = 2000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_terms < 16:
            raise DomainError(f"max_terms must be >= 16, got {self.max_terms}")


DEFAULT_SERIES_CONTROL = SeriesControl()


def reg_lower_inc_gamma(mu: float, x):
    """Regularized lower incomplete gamma P(mu, x) for 0 < mu <= 1, x >= 0.

    Power series for x < mu + 1, Lentz continued fraction for the upper
    complement otherwise; both are the classically stable choices and give
    absolute error well below 1e-12.

    ``x`` may be an array (the Volterra kernel table is one such call).  Each
    element runs the arithmetic of a one-point call and stops at its own
    convergence test, so an array call equals one-point calls bit for bit.
    The front factor x^mu e^{-x} / Gamma(mu) is a per-element ``math`` call
    because numpy's exp and log need not round like libm's.
    """
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"mu must lie in (0, 1], got {mu}")
    xs = np.asarray(x, dtype=float)
    bad = xs[~(np.isfinite(xs) & (xs >= 0.0))]
    if bad.size:
        raise DomainError(f"x must be finite and >= 0, got {float(bad[0])}")
    flat = xs.reshape(-1)
    out = np.zeros(flat.size)
    lgamma_mu = math.lgamma(mu)

    def front(values: np.ndarray) -> np.ndarray:
        # exp(-x + mu ln x - lgamma(mu)) underflows harmlessly for huge x.
        return np.array([math.exp(-v + mu * math.log(v) - lgamma_mu)
                         for v in values.tolist()])

    low = np.flatnonzero((flat > 0.0) & (flat < mu + 1.0))
    if low.size:
        out[low] = _inc_gamma_series(mu, flat[low]) * front(flat[low])
    high = np.flatnonzero(flat >= mu + 1.0)
    if high.size:
        out[high] = 1.0 - front(flat[high]) * _inc_gamma_fraction(mu, flat[high])
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _inc_gamma_series(mu: float, x: np.ndarray) -> np.ndarray:
    """sum_n x^n / (mu (mu+1) ... (mu+n)) elementwise; P(mu, x) is this times
    the front factor."""
    total = delta = np.full(x.size, 1.0 / mu)
    out = np.empty(x.size)
    live = np.arange(x.size)
    ap = mu
    for _ in range(512):
        ap += 1.0
        delta = delta * (x / ap)
        total = total + delta
        done = np.abs(delta) < np.abs(total) * 1e-16
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, x, delta, total = live[keep], x[keep], delta[keep], total[keep]
            if not live.size:
                return out
    raise ConvergenceError("incomplete gamma series did not converge",
                           last_term=float(abs(delta[0])))


def _inc_gamma_fraction(mu: float, x: np.ndarray) -> np.ndarray:
    """Lentz continued fraction elementwise; 1 - P(mu, x) is this times the
    front factor."""
    tiny = 1e-300
    b = x + 1.0 - mu
    c = np.full(x.size, 1.0 / tiny)
    d = 1.0 / b
    h = d
    out = np.empty(x.size)
    live = np.arange(x.size)
    for i in range(1, 512):
        an = -i * (i - mu)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
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
                log_fact: list[float]) -> np.ndarray:
    """Coefficient n of the series for each k of ``kvals``,

        lgamma(k+n+1) - lgamma(n+1) - lgamma(n(mu+1)+k+1),

    where ``log_fact[m]`` is lgamma(m + 1.0) up to m = max(kvals) + n.  The
    first two terms are read from that table; the values and the subtraction
    order are those of three lgamma calls."""
    nm = n * (mu + 1.0)
    return np.array([log_fact[k + n] - log_fact[n] - math.lgamma(nm + k + 1.0)
                     for k in kvals])


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) applied to each element of ``x``.

    numpy's exp and log need not round like libm's (with AVX-512 numpy's exp
    differs from math.exp on about 4.5% of uniform arguments), so every
    transcendental call of the series is libm's, one element at a time."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _prabhakar_pairs(mu: float, ks: np.ndarray, zs: np.ndarray,
                     ctl: SeriesControl):
    """k! * E(mu, k; z) for every pair (ks[i], zs[i]), in one numpy pass.

    Returns ``(values, err_estimates, n_terms, failures)``: three arrays over
    the pairs and a dict {pair index: ConvergenceError} of the pairs that
    failed, whose array entries are meaningless.  All pairs step through n
    together; each pair runs the arithmetic of its own sequential walk
    (Neumaier sum, ``_CONSECUTIVE_SMALL`` stopping rule, error estimate), in
    the same operation order, and is dropped when it converges or fails, so
    its results and its error are those of a call on that pair alone.
    """
    size = zs.size
    values = np.ones(size)
    ests = np.full(size, 1e-16)
    n_terms = np.ones(size, dtype=np.int64)
    failures: dict[int, ConvergenceError] = {}
    idx = np.flatnonzero(zs != 0.0)  # z = 0 sums to its first term, 1
    if not idx.size:
        return values, ests, n_terms, failures
    # Python's sort, not numpy's: numpy's pages in its sorting kernels,
    # about 0.75 MB of resident memory.
    kvals = np.array(sorted(set(ks[idx].tolist())), dtype=np.int64)
    rows = np.searchsorted(kvals, ks[idx])
    negative = zs[idx] < 0.0
    # One row per quantity, one column per live pair, compressed together:
    # ln|z|, running sum, compensation, sum of |terms|, run of small terms.
    state = np.zeros((5, idx.size))
    state[0] = _libm(math.log, np.abs(zs[idx]))
    ln_abs_z, total, comp, abs_sum, small_run = state
    klist = kvals.tolist()
    # ln m! for m = 0..max(k) + n, one entry appended per term
    log_fact = [math.lgamma(m + 1.0) for m in range(klist[-1] + 1)]

    def fail(i: int, message: str, **info) -> None:
        failures[int(idx[i])] = ConvergenceError(message.format(
            z=float(zs[idx[i]]), mu=mu, k=int(kvals[rows[i]])), **info)

    # Python float arithmetic never warns; numpy's must not either.
    with np.errstate(all="ignore"):
        for n in range(ctl.max_terms):
            if n:
                log_fact.append(math.lgamma(klist[-1] + n + 1.0))
            log_term = _log_coeffs(mu, klist, n, log_fact)[rows] + n * ln_abs_z
            over = log_term > 700.0
            if over.any():
                for i in np.flatnonzero(over).tolist():
                    fail(i, "series term overflows for z={z} (mu={mu}, k={k})",
                         reason="overflow", last_term=math.inf, n_terms=n)
                keep = ~over
                state, idx, rows, negative, log_term = (
                    state[:, keep], idx[keep], rows[keep], negative[keep],
                    log_term[keep])
                if not idx.size:
                    return values, ests, n_terms, failures
                ln_abs_z, total, comp, abs_sum, small_run = state
            term = _libm(math.exp, log_term)
            if n & 1:
                np.negative(term, out=term, where=negative)
            abs_term = np.abs(term)
            # Neumaier
            t = total + term
            comp += np.where(np.abs(total) >= abs_term,
                             (total - t) + term, (term - t) + total)
            total[...] = t
            abs_sum += abs_term
            value = total + comp
            small_run += 1.0
            small_run *= abs_term < ctl.rel_tol * np.abs(value)
            done = small_run >= _CONSECUTIVE_SMALL
            if done.any():
                # Error estimate calibrated against 50-digit references over
                # a 400-case stress grid: the true error stays below
                # 1.2e-15 * abs_sum, so 1e-14 carries ~9x margin.
                finished = idx[done]
                values[finished] = value[done]
                ests[finished] = 1e-14 * abs_sum[done]
                n_terms[finished] = n + 1
                keep = ~done
                state, idx, rows, negative, abs_term = (
                    state[:, keep], idx[keep], rows[keep], negative[keep],
                    abs_term[keep])
                if not idx.size:
                    return values, ests, n_terms, failures
                ln_abs_z, total, comp, abs_sum, small_run = state
    for i in range(idx.size):
        fail(i, f"series did not meet its truncation criterion within "
                f"{ctl.max_terms} terms for z={{z}} (mu={{mu}}, k={{k}})",
             reason="max_terms", last_term=float(abs_term[i]),
             n_terms=ctl.max_terms)
    return values, ests, n_terms, failures


def _prabhakar_scaled(mu: float, k: int, z: float, ctl: SeriesControl
                      ) -> tuple[float, float, int]:
    """k! * E(mu, k; z) with an absolute error estimate.

    Returns ``(value, err_estimate, n_terms)``.  The k!-scaling keeps the
    value O(1) in k so the resolvent series can pair it with the
    complementary factor c^k / k! without overflow on either side.  This is
    the one-pair call of :func:`_prabhakar_pairs`.
    """
    values, ests, n_terms, failures = _prabhakar_pairs(
        mu, np.array([k]), np.array([z], dtype=float), ctl)
    if failures:
        raise failures[0]
    return float(values[0]), float(ests[0]), int(n_terms[0])


def _prabhakar_full(p: MLParams, z: float, ctl: SeriesControl
                    ) -> tuple[float, float, int]:
    """(value, absolute error estimate, terms used) of E(mu, k; z)."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    scale = math.exp(-math.lgamma(p.k + 1.0))
    if z == 0.0:
        return scale, 1e-16 * scale, 1
    value, est, n_terms = _prabhakar_scaled(p.mu, p.k, z, ctl)
    if est > 1e-8 and est > 1e-6 * abs(value):
        raise ConvergenceError(
            f"cancellation exhausted double precision for z={z} "
            f"(mu={p.mu}, k={p.k}); estimated error {est:.2e} on a value "
            f"of magnitude {abs(value):.2e}",
            reason="precision", last_term=est, n_terms=n_terms)
    return scale * value, scale * est, n_terms


def prabhakar_ml(p: MLParams, z: float,
                 ctl: SeriesControl = DEFAULT_SERIES_CONTROL) -> float:
    """Evaluate E(mu, k; z) by its defining series.

    Parameters
    ----------
    p:
        Index pair (mu, k).
    z:
        Real argument; see the module docstring for the supported domain.
    ctl:
        Truncation policy.

    Raises
    ------
    ConvergenceError
        If the truncation criterion is not met within ``ctl.max_terms``
        terms, a term overflows, or cancellation has destroyed the
        requested accuracy (``reason == "precision"``).
    """
    return _prabhakar_full(p, z, ctl)[0]
