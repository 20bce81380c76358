"""Scalar resolvent S(t) via its Mittag-Leffler representation

    S(t) = e^{-beta t} * sum_{k>=0} (rho+beta)^k t^k E(mu, k; alpha rho t^{mu+1}),

plus the exact closed forms for mu = 1, where the transform
lam / (lam^2 - (rho+beta) lam - alpha rho) inverts by partial fractions
according to the sign of the discriminant D = (rho+beta)^2 + 4 alpha rho.

The outer sum pairs the scaled inner values k!*E with the complementary
factor ((rho+beta) t)^k / k!, so neither side overflows; it therefore
converges (numerically) whenever cancellation does not exhaust double
precision, which is detected and raised rather than returned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .special import DEFAULT_SERIES_CONTROL, SeriesControl, _prabhakar_scaled
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
    CLOSED_FORM_MU1 = "closed-form-mu1"


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


def _series_S_impl(prob: ScalarProblem, t: float, ctl: SeriesControl
                   ) -> tuple[float, float, int]:
    """Returns (S(t), absolute error estimate on S, outer terms used)."""
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return 1.0, 0.0, 1
    p = prob.params
    z = p.alpha * prob.rho * t ** (p.mu + 1.0)
    c = (prob.rho + p.beta) * t
    damp = math.exp(-p.beta * t)

    prefactor = 1.0  # c^k / k!
    total = 0.0
    comp = 0.0
    est = 0.0
    small_run = 0
    for k in range(ctl.max_terms):
        scaled, scaled_est, _ = _prabhakar_scaled(p.mu, k, z, ctl)
        term = prefactor * scaled
        est += abs(prefactor) * scaled_est + abs(term) * 1e-15
        s = total + term
        if abs(total) >= abs(term):
            comp += (total - s) + term
        else:
            comp += (term - s) + total
        total = s
        if abs(term) < ctl.rel_tol * abs(total + comp):
            small_run += 1
            if small_run >= ctl.consecutive_small:
                value = damp * (total + comp)
                est_s = damp * est
                # Guard thresholds sit ~9x above the calibrated worst true
                # error, so surviving values carry < 2.5e-9 absolute error.
                if est_s > 2e-8 and est_s > 1e-7 * abs(value):
                    raise ConvergenceError(
                        f"cancellation exhausted double precision at t={t}: "
                        f"estimated error {est_s:.2e} on S of magnitude "
                        f"{abs(value):.2e}",
                        reason="precision", last_term=est_s, n_terms=k + 1)
                return value, est_s, k + 1
        else:
            small_run = 0
        prefactor *= c / (k + 1.0)
    raise ConvergenceError(
        f"resolvent series did not converge within {ctl.max_terms} terms "
        f"at t={t}", reason="max_terms", last_term=abs(term),
        n_terms=ctl.max_terms)


def series_S(prob: ScalarProblem, t: float,
             ctl: SeriesControl = DEFAULT_SERIES_CONTROL) -> float:
    """Evaluate S(t) by the Mittag-Leffler series.

    Raises :class:`ConvergenceError` when the outer or inner series fails
    its truncation policy, a term overflows, or cancellation has destroyed
    the result; the error message carries the offending magnitudes.
    """
    return _series_S_impl(prob, t, ctl)[0]


def series_curve(prob: ScalarProblem, times,
                 ctl: SeriesControl = DEFAULT_SERIES_CONTROL) -> Curve:
    """Sample S on a grid starting at t = 0."""
    grid = _validate_grid(times)
    values = np.empty(grid.size)
    for i, t in enumerate(grid):
        try:
            values[i] = series_S(prob, float(t), ctl)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"t={t}: {exc}", reason=exc.reason,
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
