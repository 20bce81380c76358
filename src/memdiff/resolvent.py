"""Scalar resolvent S(t) via its Mittag-Leffler representation

    S(t) = e^{-beta t} * sum_{k>=0} (rho+beta)^k t^k E(mu, k; alpha rho t^{mu+1}),

plus the exact closed forms for mu = 1, where the transform
lam / (lam^2 - (rho+beta) lam - alpha rho) inverts by partial fractions
according to the sign of the discriminant D = (rho+beta)^2 + 4 alpha rho.

The outer sum pairs the scaled inner values k!*E with the complementary
factor ((rho+beta) t)^k / k!, so neither side overflows; it therefore
converges (numerically) whenever cancellation does not exhaust double
precision, which is detected and raised rather than returned.

One grid engine (``_series_grid``) evaluates every time of a grid at once:
the outer sum runs in blocks of ``_K_BLOCK`` terms over all live times, each
block one call of the inner engine on its (t, k) pairs, and each time keeps
the operation order of its own sequential walk over (k, n).  A time fails
at the first failure of that walk and a k past its stopping index never
raises, so ``series_S``, the batch of one, equals every point of
``series_curve`` bit for bit and error for error.  The powers t^{mu+1} and
the damping e^{-beta t} are computed per time by Python's libm calls, like
every transcendental call of the inner series.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
# _prabhakar_scaled is no longer called here; the benchmark's tracer hooks
# the name in this module, so it stays bound.
from .special import (_CONSECUTIVE_SMALL, DEFAULT_SERIES_CONTROL,  # noqa: F401
                      SeriesControl, _prabhakar_pairs, _prabhakar_scaled)
from .symbols import ScalarProblem

__all__ = [
    "CurveMethod",
    "Curve",
    "Mu1Case",
    "Mu1Classification",
    "series_S",
    "series_curve",
    "mu1_classify",
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

    When ``problem`` is attached the samples are a resolvent curve and must
    start at (t, S) = (0, 1); synthetic curves used for fitting may pass
    ``problem=None`` and any grid.
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
        if self.problem is not None and abs(self.values[0] - 1.0) > 1e-9:
            raise DomainError("resolvent curves must satisfy S(0) = 1")

    def __len__(self) -> int:
        return int(self.times.size)


class Mu1Case(enum.Enum):
    TWO_REAL_ROOTS = "two-real-roots"
    DOUBLE_ROOT = "double-root"
    COMPLEX_PAIR = "complex-pair"


@dataclass(frozen=True)
class Mu1Classification:
    """Pole structure of the mu = 1 transform."""

    discriminant: float
    case: Mu1Case


def _validate_grid(times, from_zero: bool = True) -> np.ndarray:
    """``times`` as a non-empty, strictly increasing 1-D float array that
    starts at t = 0 when ``from_zero``."""
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("time grid must be a non-empty 1-D array")
    if from_zero and grid[0] != 0.0:
        raise DomainError("time grid must start at t = 0")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("time grid must be strictly increasing")
    return grid


# Outer terms k per pass over the grid.  A pass is one call of the inner
# engine on every (live time, k) pair of the block; a time that stops inside
# a block wastes at most _K_BLOCK - 1 inner evaluations.  Once every live
# time's compensated sum is NaN, no time can stop before max_terms, each
# needs every k up to its first failure, and passes take _DOOMED_BLOCK.
_K_BLOCK = 16
_DOOMED_BLOCK = 1024


def _series_grid(prob: ScalarProblem, grid: np.ndarray, ctl: SeriesControl,
                 stop_at_failure: bool) -> tuple[np.ndarray, dict]:
    """S at every time of ``grid`` (finite, >= 0) by the series, in one numpy
    pass per block of outer terms.

    Returns the values, NaN where a time failed, and {grid index: error} of
    the failed times.  Each time runs the arithmetic of its own sequential
    walk over (k, n) and fails at the first failure of that walk; a k past
    its stopping index never raises.  With ``stop_at_failure`` the times
    after the first failure in grid order may be dropped, NaN and without an
    entry, once that failure is known.
    """
    p = prob.params
    values = np.full(grid.size, np.nan)
    failures: dict[int, Exception] = {}
    times = grid.tolist()
    live, zs, cs, damps = [], [], [], []
    for i, t in enumerate(times):
        if t == 0.0:
            values[i] = 1.0
            continue
        try:
            zs.append(p.alpha * prob.rho * t ** (p.mu + 1.0))
        except OverflowError as exc:
            failures[i] = exc
            if stop_at_failure:
                break
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
    term = np.zeros(live.size)

    # Python float arithmetic never warns; numpy's must not either.
    with np.errstate(all="ignore"):
        k0 = 0
        while live.size and k0 < ctl.max_terms:
            doomed = np.isnan(total + comp).all()
            ks = np.arange(k0, min(k0 + (_DOOMED_BLOCK if doomed else _K_BLOCK),
                                   ctl.max_terms))
            k0 += ks.size
            width = ks.size
            scaled, scaled_est, _, inner_failures = _prabhakar_pairs(
                p.mu, np.tile(ks, live.size), np.repeat(z, width), ctl)
            scaled = scaled.reshape(live.size, width)
            failed_at: dict[int, list[int]] = {}  # k index -> rows
            for pair in inner_failures:
                failed_at.setdefault(pair % width, []).append(pair // width)
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
            active = np.ones(live.size, dtype=bool)
            for j, k in enumerate(ks.tolist()):
                for r in failed_at.get(j, ()):
                    if active[r]:
                        failures[int(live[r])] = inner_failures[r * width + j]
                        active[r] = False
                term, abs_term = terms[:, j], abs_terms[:, j]
                s = total + term
                comp += np.where(np.abs(total) >= abs_term,
                                 (total - s) + term, (term - s) + total)
                total = s
                value = total + comp
                small_run += 1.0
                small_run *= abs_term < ctl.rel_tol * np.abs(value)
                done = (small_run >= _CONSECUTIVE_SMALL) & active
                if not done.any():
                    continue
                for r in np.flatnonzero(done).tolist():
                    active[r] = False
                    i = int(live[r])
                    s_i = float(damp[r] * value[r])
                    est_s = float(damp[r] * ests[r, j])
                    # Guard thresholds sit ~9x above the calibrated worst
                    # true error, so surviving values carry < 2.5e-9
                    # absolute error.
                    if est_s > 2e-8 and est_s > 1e-7 * abs(s_i):
                        failures[i] = ConvergenceError(
                            f"cancellation exhausted double precision at "
                            f"t={times[i]}: estimated error {est_s:.2e} on S "
                            f"of magnitude {abs(s_i):.2e}",
                            reason="precision", last_term=est_s, n_terms=k + 1)
                    else:
                        values[i] = s_i
                if not active.any():
                    break
            prefactor, est = prefactors[:, width], ests[:, width - 1]
            if stop_at_failure:
                # NaN stays NaN, so a time whose sum is NaN never meets the
                # small-term test again and is sure to fail: no time after
                # it, or after a failed one, is needed.
                sure = live[active & np.isnan(total + comp)][:1].tolist()
                active &= live <= min([f - 1 for f in failures] + sure,
                                      default=grid.size)
            live, z, c, damp, prefactor, total, comp, est, small_run, term = (
                a[active] for a in (live, z, c, damp, prefactor, total, comp,
                                    est, small_run, term))
    for r, i in enumerate(live.tolist()):
        failures[i] = ConvergenceError(
            f"resolvent series did not converge within {ctl.max_terms} terms "
            f"at t={times[i]}", reason="max_terms",
            last_term=float(abs(term[r])), n_terms=ctl.max_terms)
    return values, failures


def series_S(prob: ScalarProblem, t: float,
             ctl: SeriesControl = DEFAULT_SERIES_CONTROL) -> float:
    """Evaluate S(t) by the Mittag-Leffler series: the grid engine on the
    one-point grid [t].

    Raises :class:`ConvergenceError` when the outer or inner series fails
    its truncation policy, a term overflows, or cancellation has destroyed
    the result; the error message carries the offending magnitudes.
    """
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    values, failures = _series_grid(prob, np.array([t], dtype=float), ctl,
                                    True)
    if failures:
        raise failures[0]
    return float(values[0])


def series_curve(prob: ScalarProblem, times,
                 ctl: SeriesControl = DEFAULT_SERIES_CONTROL) -> Curve:
    """Sample S on a grid starting at t = 0.

    Every value equals :func:`series_S` at its time bit for bit; a failure
    raises the error of the first failing time, prefixed by ``t=...: ``.
    """
    grid = _validate_grid(times)
    values, failures = _series_grid(prob, grid, ctl, True)
    if failures:
        i = min(failures)
        exc = failures[i]
        if not isinstance(exc, ConvergenceError):
            raise exc
        raise ConvergenceError(
            f"t={grid[i]}: {exc}", reason=exc.reason,
            last_term=exc.last_term, n_terms=exc.n_terms) from exc
    return Curve(grid, values, CurveMethod.SERIES, prob)


def mu1_classify(prob: ScalarProblem) -> Mu1Classification:
    """Classify the mu = 1 pole structure by the discriminant
    D = (rho+beta)^2 + 4 alpha rho, with a relative tie band around D = 0."""
    p = prob.params
    if p.mu != 1.0:
        raise DomainError(f"classification requires mu = 1, got {p.mu}")
    s = prob.rho + p.beta
    disc = s * s + 4.0 * p.alpha * prob.rho
    if abs(disc) < 1e-12 * max(1.0, s * s):
        case = Mu1Case.DOUBLE_ROOT
    elif disc > 0.0:
        case = Mu1Case.TWO_REAL_ROOTS
    else:
        case = Mu1Case.COMPLEX_PAIR
    return Mu1Classification(disc, case)


def mu1_closed_form(prob: ScalarProblem, t: float) -> float:
    """Exact S(t) for mu = 1.

    Two real poles lam_{1,2} = ((rho+beta) +- sqrt(D))/2 give a sum of two
    exponentials; a double root gives the (1 + (rho+beta)t/2) e^{...t} form;
    a conjugate pair gives, with c = sqrt(-D)/2,

        S(t) = e^{(rho-beta)t/2} (cos(c t) + (rho+beta)/(2c) * sin(c t)),

    the real inverse transform of lam/(lam^2 - (rho+beta) lam - alpha rho)
    shifted by e^{-beta t}.
    """
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    p = prob.params
    cls = mu1_classify(prob)
    s = prob.rho + p.beta
    if cls.case is Mu1Case.DOUBLE_ROOT:
        return (1.0 + 0.5 * s * t) * math.exp(0.5 * (prob.rho - p.beta) * t)
    if cls.case is Mu1Case.TWO_REAL_ROOTS:
        root = math.sqrt(cls.discriminant)
        c1 = (s + root) / (2.0 * root)
        c2 = (s - root) / (2.0 * root)
        return (c1 * math.exp(0.5 * (prob.rho - p.beta + root) * t)
                - c2 * math.exp(0.5 * (prob.rho - p.beta - root) * t))
    c = 0.5 * math.sqrt(-cls.discriminant)
    return math.exp(0.5 * (prob.rho - p.beta) * t) * (
        math.cos(c * t) + s / (2.0 * c) * math.sin(c * t))
