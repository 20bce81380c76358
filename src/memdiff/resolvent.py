"""Scalar resolvent S(t) via its Mittag-Leffler representation

    S(t) = e^{-beta t} * sum_{k>=0} (rho+beta)^k t^k E(mu, k; alpha rho t^{mu+1}),

plus the exact closed forms for mu = 1, where the transform
lam / (lam^2 - (rho+beta) lam - alpha rho) inverts by partial fractions
according to the sign of the discriminant D = (rho+beta)^2 + 4 alpha rho.

The outer sum pairs the scaled inner values k!*E with the complementary
factor ((rho+beta) t)^k / k!, so neither side overflows; it therefore
converges (numerically) whenever cancellation does not exhaust double
precision, which is detected and raised rather than returned.

One grid engine (``_series_grid``) evaluates every time of a grid at once,
and every caller takes the same path through it: the outer sum runs in
passes over all live times, each pass one call of the inner engine on their
(t, k) pairs and one pass of the compensated sum (``special._sum_block``).
A time's first pass takes the terms that the Poisson shape of its factors
|c|^k / k!, c = (rho+beta) t, says it needs (``_first_width``, at most
``_K_BLOCK``); a time that has not stopped goes on from its own next k in
passes of ``_K_BLOCK``.  Each time keeps the operation order of its own
sequential walk over (k, n), so the widths choose only which pairs are
evaluated.  The times that stop inside a pass are recorded by array
operations; Python loops only over the times that fail, to build their
errors.

A time fails at its first outer term that is not finite, since its sum can
then never stop: with the inner series' error if that failed there (its
value is NaN), with reason ``"overflow"`` otherwise.  A k past a time's stopping index never raises,
so ``series_S``, the batch of one, equals every point of ``series_curve``
bit for bit and error for error.  Every failure is a
:class:`ConvergenceError`, an overflow of t^{mu+1} included.  The powers
t^{mu+1} and the damping e^{-beta t} are computed per time by Python's libm
calls; every transcendental result of the inner series carries libm's bits
too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError
# _prabhakar_scaled is no longer called here; the benchmark's tracer hooks
# the name in this module, so it stays bound.
from .special import (_CONSECUTIVE_SMALL, _MAX_TERMS, _REL_TOL,  # noqa: F401
                      _prabhakar_pairs, _prabhakar_scaled, _sum_block)
from .symbols import ScalarProblem

__all__ = [
    "CurveMethod",
    "Curve",
    "series_S",
    "series_curve",
    "mu1_closed_form",
]


class CurveMethod(str, enum.Enum):
    """Provenance tag: which route produced a sampled curve."""

    SERIES = "series"
    VOLTERRA = "volterra"
    LAPLACE = "laplace"


@dataclass
class Curve:
    """A time grid and sampled values of S(t) with provenance.

    The values must be finite.  When ``problem`` is attached the samples
    are a resolvent curve and must start at (t, S) = (0, 1); synthetic
    curves used for fitting may pass ``problem=None`` and any grid.
    """

    times: np.ndarray
    values: np.ndarray
    method: str
    problem: ScalarProblem | None = None
    error_estimate: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if isinstance(self.method, CurveMethod):
            self.method = self.method.value
        self.times = _validate_grid(self.times, from_zero=self.problem is not None)
        if self.times.shape != self.values.shape:
            raise DomainError("times and values must be of equal length")
        if not np.isfinite(self.values).all():
            raise DomainError("curve values must be finite")
        if self.problem is not None and abs(self.values[0] - 1.0) > 1e-9:
            raise DomainError("resolvent curves must satisfy S(0) = 1")


def _validate_grid(times, from_zero: bool = True) -> np.ndarray:
    """``times`` as a non-empty, finite, strictly increasing 1-D float array
    that starts at t = 0 when ``from_zero``."""
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("time grid must be a non-empty 1-D array")
    if not np.isfinite(grid).all():
        raise DomainError("time grid must be finite")
    if from_zero and grid[0] != 0.0:
        raise DomainError("time grid must start at t = 0")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("time grid must be strictly increasing")
    return grid


# Outer terms k of a time's later passes, and the most its first pass takes.
# A pass is one call of the inner engine, and a second pass costs a call, so
# the cap lets a time that needs 33-40 terms finish in one pass.  Summing each
# request's best of 15 calls over the 36 passing series requests of
# curve-sweep seeds 91, 13 and 44 (2-CPU host, in-process, interleaved), a cap
# of 40 took 54.3-54.8 ms, 48 took 53.8-54.0 ms and 64 took 54.9-55.1 ms (on
# seeds 1, 21 and 7: 55.3, 55.8 and 56.1 ms); 32 took 66.0 ms.
_K_BLOCK = 48


def _first_width(c: np.ndarray) -> np.ndarray:
    """Outer terms of each time's first pass, from c = (rho+beta) t: the
    count of k < ``_K_BLOCK`` whose factor |c|^k / k! is at least
    ``_REL_TOL`` times the largest of them, plus the ``_CONSECUTIVE_SMALL``
    terms that stop a sum and a margin of 4, at most ``_K_BLOCK``.

    The factors have a Poisson shape in k, so the width follows the time's
    stopping index: of the 2,268 times of the series requests of
    curve-sweep seeds 91, 13 and 44, all but one stop in their first pass,
    with 3 (at most 6) of its terms to spare.  The width chooses only
    which pairs a pass evaluates, never a value or an error.  Products and
    quotients only: no transcendental.  Where the factors overflow, as at
    c = 5e299, the width is still finite.
    """
    steps = np.empty((c.size, _K_BLOCK))
    steps[:, 0] = 1.0
    steps[:, 1:] = np.abs(c)[:, None] / np.arange(1.0, _K_BLOCK)
    factors = np.cumprod(steps, axis=1)
    count = np.count_nonzero(
        factors >= _REL_TOL * factors.max(axis=1, keepdims=True), axis=1)
    return np.minimum(count + _CONSECUTIVE_SMALL + 4, _K_BLOCK)


def _series_grid(prob: ScalarProblem, grid: np.ndarray,
                 max_terms: int = _MAX_TERMS
                 ) -> tuple[np.ndarray, dict[int, ConvergenceError]]:
    """S at every time of ``grid`` (finite, >= 0) by the series, one numpy
    pass of the inner engine per pass over the live times.

    Returns the values, NaN where a time failed, and {grid index:
    ConvergenceError} of the failed times.  Every time is evaluated; each
    runs the arithmetic of its own sequential walk over (k, n), so its value
    or error does not depend on the other times.  A time's first pass takes
    :func:`_first_width` terms, each later one ``_K_BLOCK``, from the time's
    own next k.  A walk fails at its first term that is not finite: with the
    inner error if the inner series failed there, with reason ``"overflow"``
    otherwise.  A k past a time's stopping index never raises.  The values
    and the cancellation guard of the times that stop in a pass are array
    operations; Python loops only over the failing times, to build their
    :class:`ConvergenceError`.  ``max_terms`` is the term budget of the
    outer and inner walks; only tests pass a smaller one, to reach its
    failure in a few steps.
    """
    p = prob.params
    values = np.full(grid.size, np.nan)
    failures: dict[int, ConvergenceError] = {}
    times = grid.tolist()
    live, zs, cs, damps = [], [], [], []
    for i, t in enumerate(times):
        # Needed: if alpha * rho overflows, z at t = 0 would be inf * 0 = NaN.
        if t == 0.0:
            values[i] = 1.0
            continue
        try:
            zs.append(p.alpha * prob.rho * t ** (p.mu + 1.0))
        except OverflowError:
            failures[i] = ConvergenceError(
                f"t^(mu+1) overflows at t={t} (mu={p.mu})",
                reason="overflow", last_term=math.inf, n_terms=0)
            continue
        live.append(i)
        cs.append((prob.rho + p.beta) * t)
        damps.append(math.exp(-p.beta * t))
    live = np.array(live, dtype=np.int64)
    z, c, damp = np.array(zs), np.array(cs), np.array(damps)
    k_next = np.zeros(live.size, dtype=np.int64)
    prefactor = np.ones(live.size)  # c^k / k!
    total = np.zeros(live.size)
    comp = np.zeros(live.size)
    est = np.zeros(live.size)
    small_run = np.zeros(live.size)

    # Python float arithmetic never warns; numpy's must not either.
    with np.errstate(all="ignore"):
        width = np.minimum(_first_width(c), max_terms)
        while live.size:
            # Row r takes k_next[r] + j for j < width[r]; the other columns
            # follow all of its own, so its recurrences never read them.
            cols = np.arange(width.max())
            ks = k_next[:, None] + cols
            valid = cols < width[:, None]
            scaled = np.zeros(ks.shape)
            scaled_est = np.zeros(ks.shape)
            scaled[valid], scaled_est[valid], _, inner_failures = (
                _prabhakar_pairs(p.mu, ks[valid], np.repeat(z, width),
                                 max_terms))
            # The prefactor and the error estimate follow their sequential
            # recurrences along each row: cumprod and cumsum multiply and
            # add in k order.
            steps = np.empty((live.size, cols.size + 1))
            steps[:, 0] = prefactor
            steps[:, 1:] = c[:, None] / (ks + 1.0)
            prefactors = np.cumprod(steps, axis=1)
            terms = prefactors[:, :-1] * scaled
            steps[:, 0] = est
            abs_terms = np.abs(terms)
            steps[:, 1:] = (np.abs(prefactors[:, :-1]) * scaled_est
                            + abs_terms * 1e-15)
            ests = np.cumsum(steps, axis=1)[:, 1:]
            totals, comps, runs, sums, done = _sum_block(
                total, comp, small_run, terms, abs_terms, _REL_TOL)
            # A row stops at its first column that is done or not finite: a
            # sum that takes a term that is not finite can never stop.
            finite = np.isfinite(terms)
            stop = (done | ~finite) & valid
            stopped = stop.any(axis=1)
            first = stop.argmax(axis=1)
            row = np.arange(live.size)
            s = damp * sums[row, first]
            est_s = damp * ests[row, first]
            # Guard thresholds sit ~9x above the calibrated worst true
            # error, so surviving values carry < 2.5e-9 absolute error.
            lost = (est_s > 2e-8) & (est_s > 1e-7 * np.abs(s))
            ok = stopped & finite[row, first] & ~lost
            values[live[ok]] = s[ok]
            # Row r's pairs start at pair offset[r] of the inner call.
            offset = np.cumsum(width) - width
            for r in (stopped & ~ok).nonzero()[0].tolist():
                j = int(first[r])
                k = int(k_next[r]) + j
                i = int(live[r])
                if not finite[r, j]:
                    failures[i] = inner_failures.get(int(offset[r]) + j) or (
                        ConvergenceError(f"resolvent series term {k} overflows"
                                         f" at t={times[i]}", reason="overflow",
                                         last_term=math.inf, n_terms=k + 1))
                else:
                    failures[i] = ConvergenceError(
                        f"cancellation exhausted double precision at "
                        f"t={times[i]}: estimated error {est_s[r]:.2e} on S "
                        f"of magnitude {abs(s[r]):.2e}", reason="precision",
                        last_term=float(est_s[r]), n_terms=k + 1)
            # Each row carries its state from its last column.
            last = width - 1
            k_next += width
            spent = ~stopped & (k_next >= max_terms)
            for r in spent.nonzero()[0].tolist():
                i = int(live[r])
                failures[i] = ConvergenceError(
                    f"resolvent series did not converge within {max_terms} "
                    f"terms at t={times[i]}", reason="max_terms",
                    last_term=float(abs(terms[r, last[r]])),
                    n_terms=max_terms)
            keep = ~stopped & ~spent
            live, z, c, damp, k_next, prefactor, total, comp, est, small_run = (
                a[keep] for a in (live, z, c, damp, k_next,
                                  prefactors[row, width], totals[row, last],
                                  comps[row, last], ests[row, last],
                                  runs[row, last]))
            width = np.minimum(_K_BLOCK, max_terms - k_next)
    return values, failures


def series_S(prob: ScalarProblem, t: float) -> float:
    """S(t) by the Mittag-Leffler series: the grid engine on the one-point
    grid [t] under the series' one truncation policy.

    Raises :class:`ConvergenceError` when the outer or inner series fails
    its truncation policy, a term overflows, or cancellation has destroyed
    the result; the error message carries the offending magnitudes.
    """
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    values, failures = _series_grid(prob, np.array([t], dtype=float))
    if failures:
        raise failures[0]
    return float(values[0])


def series_curve(prob: ScalarProblem, times) -> Curve:
    """Sample S on a grid starting at t = 0.

    Every value equals :func:`series_S` at its time bit for bit: both run
    under the series' one truncation policy, which takes no argument
    because the cancellation guard's 2.5e-9 bound is calibrated at its
    1e-12 threshold.  Every time is evaluated; a failure raises the
    :class:`ConvergenceError` of the first failing time, prefixed by
    ``t=...: ``.
    """
    grid = _validate_grid(times)
    values, failures = _series_grid(prob, grid)
    if failures:
        i = min(failures)
        exc = failures[i]
        raise ConvergenceError(
            f"t={grid[i]}: {exc}", reason=exc.reason,
            last_term=exc.last_term, n_terms=exc.n_terms) from exc
    return Curve(grid, values, CurveMethod.SERIES, prob)


def mu1_closed_form(prob: ScalarProblem, t: float) -> float:
    """Exact S(t) for mu = 1, by the sign of D = (rho+beta)^2 + 4 alpha rho.

    |D| < 1e-12 max(1, (rho+beta)^2) counts as D = 0, a double root, which
    gives the (1 + (rho+beta)t/2) e^{...t} form.  Two real poles
    lam_{1,2} = ((rho+beta) +- sqrt(D))/2 give a sum of two exponentials; a
    conjugate pair gives, with c = sqrt(-D)/2,

        S(t) = e^{(rho-beta)t/2} (cos(c t) + (rho+beta)/(2c) * sin(c t)),

    the real inverse transform of lam/(lam^2 - (rho+beta) lam - alpha rho)
    shifted by e^{-beta t}.  A discriminant, an exponential or a value that
    is not a finite float raises :class:`AccuracyError`.  The value is none
    where an overflowing factor meets an exponential that underflows
    (inf * 0), or where c t is infinite and cos(c t) is undefined.
    """
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    p = prob.params
    if p.mu != 1.0:
        raise DomainError(f"classification requires mu = 1, got {p.mu}")
    s = prob.rho + p.beta
    disc = s * s + 4.0 * p.alpha * prob.rho
    if not math.isfinite(disc):
        raise AccuracyError(f"the mu = 1 discriminant is not a finite float "
                            f"(rho={prob.rho})")
    try:
        if abs(disc) < 1e-12 * max(1.0, s * s):
            value = (1.0 + 0.5 * s * t) * math.exp(
                0.5 * (prob.rho - p.beta) * t)
        elif disc > 0.0:
            root = math.sqrt(disc)
            c1 = (s + root) / (2.0 * root)
            c2 = (s - root) / (2.0 * root)
            value = (c1 * math.exp(0.5 * (prob.rho - p.beta + root) * t)
                     - c2 * math.exp(0.5 * (prob.rho - p.beta - root) * t))
        else:
            c = 0.5 * math.sqrt(-disc)
            value = math.exp(0.5 * (prob.rho - p.beta) * t) * (
                math.cos(c * t) + s / (2.0 * c) * math.sin(c * t))
    except OverflowError:
        raise AccuracyError(
            f"an exponential of the mu = 1 closed form overflows at t={t} "
            f"(rho={prob.rho})") from None
    except ValueError:  # cos or sin of an infinite c t
        value = math.nan
    if not math.isfinite(value):
        raise AccuracyError(f"the mu = 1 closed form is not a finite float "
                            f"at t={t} (rho={prob.rho})")
    return value
