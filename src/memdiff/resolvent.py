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
blocks of ``_K_BLOCK`` terms over all live times, each block one call of the
inner engine on its (t, k) pairs and one pass of the compensated sum over
the block (``special._sum_block``), and each time keeps the operation order
of its own sequential walk over (k, n).  Python loops only over the times
that stop inside a block.

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
from .special import (_MAX_TERMS, _REL_TOL, _check_series,  # noqa: F401
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


# Outer terms k per pass over the grid.  A pass is one call of the inner
# engine on every (live time, k) pair of the block; a time that stops inside
# a block wastes at most _K_BLOCK - 1 inner evaluations.  Over the passing
# series requests of three curve-sweep rounds (2-CPU host, in-process,
# interleaved), 32 took 0.92x the time of 16, 0.88x that of 24 and 0.96x
# that of 48.
_K_BLOCK = 32


def _series_grid(prob: ScalarProblem, grid: np.ndarray, rel_tol: float,
                 max_terms: int
                 ) -> tuple[np.ndarray, dict[int, ConvergenceError]]:
    """S at every time of ``grid`` (finite, >= 0) by the series, in one numpy
    pass per block of outer terms.

    Returns the values, NaN where a time failed, and {grid index:
    ConvergenceError} of the failed times.  Every time is evaluated; each
    runs the arithmetic of its own sequential walk over (k, n), so its value
    or error does not depend on the other times.  A walk fails at its first
    term that is not finite: with the inner error if the inner series failed
    there, with reason ``"overflow"`` otherwise.  A k past a time's stopping
    index never raises.
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
    prefactor = np.ones(live.size)  # c^k / k!
    total = np.zeros(live.size)
    comp = np.zeros(live.size)
    est = np.zeros(live.size)
    small_run = np.zeros(live.size)

    # Python float arithmetic never warns; numpy's must not either.
    with np.errstate(all="ignore"):
        k0 = 0
        while live.size and k0 < max_terms:
            ks = np.arange(k0, min(k0 + _K_BLOCK, max_terms))
            width = ks.size
            scaled, scaled_est, _, inner_failures = _prabhakar_pairs(
                p.mu, np.tile(ks, live.size), np.repeat(z, width), rel_tol,
                max_terms)
            scaled = scaled.reshape(live.size, width)
            # The prefactor and the error estimate follow their sequential
            # recurrences along each row: cumprod and cumsum multiply and
            # add in k order.
            steps = np.empty((live.size, width + 1))
            steps[:, 0] = prefactor
            steps[:, 1:] = c[:, None] / (ks + 1.0)
            prefactors = np.cumprod(steps, axis=1)
            terms = prefactors[:, :width] * scaled
            steps[:, 0] = est
            abs_terms = np.abs(terms)
            steps[:, 1:] = (np.abs(prefactors[:, :width])
                            * scaled_est.reshape(scaled.shape)
                            + abs_terms * 1e-15)
            ests = np.cumsum(steps, axis=1)[:, 1:]
            totals, comps, runs, sums, done = _sum_block(
                total, comp, small_run, terms, abs_terms, rel_tol)
            # A row stops at its first column that is done or not finite: a
            # sum that takes a term that is not finite can never stop.
            finite = np.isfinite(terms)
            stop = done | ~finite
            stopped = stop.any(axis=1)
            first = stop.argmax(axis=1)
            for r in stopped.nonzero()[0].tolist():
                j = int(first[r])
                k = k0 + j
                i = int(live[r])
                if not finite[r, j]:
                    failures[i] = inner_failures.get(r * width + j) or (
                        ConvergenceError(f"resolvent series term {k} overflows"
                                         f" at t={times[i]}", reason="overflow",
                                         last_term=math.inf, n_terms=k + 1))
                    continue
                s_i = float(damp[r] * sums[r, j])
                est_s = float(damp[r] * ests[r, j])
                # Guard thresholds sit ~9x above the calibrated worst true
                # error, so surviving values carry < 2.5e-9 absolute error.
                if est_s > 2e-8 and est_s > 1e-7 * abs(s_i):
                    failures[i] = ConvergenceError(
                        f"cancellation exhausted double precision at "
                        f"t={times[i]}: estimated error {est_s:.2e} on S "
                        f"of magnitude {abs(s_i):.2e}",
                        reason="precision", last_term=est_s, n_terms=k + 1)
                else:
                    values[i] = s_i
            k0 += width
            keep = ~stopped
            live, z, c, damp, prefactor, total, comp, est, small_run, term = (
                a[keep] for a in (live, z, c, damp, prefactors[:, width],
                                  totals[:, -1], comps[:, -1], ests[:, -1],
                                  runs[:, -1], terms[:, -1]))
    for r, i in enumerate(live.tolist()):
        failures[i] = ConvergenceError(
            f"resolvent series did not converge within {max_terms} terms "
            f"at t={times[i]}", reason="max_terms",
            last_term=float(abs(term[r])), n_terms=max_terms)
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
    values, failures = _series_grid(prob, np.array([t], dtype=float),
                                    _REL_TOL, _MAX_TERMS)
    if failures:
        raise failures[0]
    return float(values[0])


def series_curve(prob: ScalarProblem, times,
                 rel_tol: float = _REL_TOL) -> Curve:
    """Sample S on a grid starting at t = 0.

    A term below ``rel_tol`` (in (0, 1), checked before the grid) times the
    running sum is small.  At the default, every value equals
    :func:`series_S` at its time bit for bit.  Every time is evaluated; a
    failure raises the :class:`ConvergenceError` of the first failing time,
    prefixed by ``t=...: ``.
    """
    _check_series(rel_tol, _MAX_TERMS)
    grid = _validate_grid(times)
    values, failures = _series_grid(prob, grid, rel_tol, _MAX_TERMS)
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
