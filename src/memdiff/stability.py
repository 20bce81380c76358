"""Regime classification, theoretical decay bounds, empirical rate fitting,
the boundary checks of the inequalities for the Laplace symbols, and
:func:`verify_problem`, which runs them all with the three-route check.

Generation regimes for the kernel triple (alpha, beta, mu):

  * alpha > 0, or
  * alpha < 0 with alpha + beta^mu >= |alpha|;

anything else is unsupported.  With a sectorial shift omega < 0 (rho for the
scalar problem, -lambda_1 for the spectral one) and beta + omega <= 0, the
resolvent obeys

  * alpha > 0:  |S(t)| <= C e^{-beta t}
  * alpha < 0:  |S(t)| <= C (1 + alpha omega t^{mu+1})
                          e^{-(beta - (alpha omega)^{1/(mu+1)}) t},

uniformly exponentially stable in the second case iff
beta^{mu+1} > alpha omega.  The lemma suite checks

  * g_bound:  |g| <= 1 (alpha > 0) or |g| <= beta^mu / (alpha + beta^mu)
    (alpha < 0),
  * arg_h:    |arg h(lambda)| <= (1+mu) |arg lambda|,
  * re_power: Re (lambda+beta)^mu >= (Re lambda + beta)^mu

on the half annulus Re lambda > 0, 1e-3 <= |lambda| <= 1e3, and

  * arg_h_tilde: |arg h_tilde(lambda)| <= (1+mu) |arg lambda|

on Re lambda <= 0, r_min <= |lambda| <= 1e6 r_min, where
r_min = max(1e-3, (2|alpha|)^{1/mu}, beta (1 + 1e-9)) holds
|lambda^mu| >= 2|alpha| and |lambda| > beta.  Each margin (right side minus
left side) takes its minimum over its region on the region's boundary
(arg_h_tilde with the proviso below), so the suite evaluates it there.  The
symbols are real on the real axis, so every margin is even under conjugation
and the upper half of a region, a quarter annulus, has the same minimum.  Its
boundary is two rays and two arcs, walked with 2,500 points a side, geometric
in modulus and uniform in argument; the arcs are evaluated like the rays, no
minimum is assumed to sit at a corner.
Why the boundary holds the minimum (maximum principle; Ahlfors, *Complex
Analysis*, ch. 4):

  * g_bound.  g = w / (w + alpha) with w = (lambda+beta)^mu is analytic on
    Re lambda > 0: for alpha > 0, w is never a negative real, and for an
    admissible alpha < 0 the zero lambda = |alpha|^{1/mu} - beta of w + alpha
    is negative, as beta^mu >= 2|alpha|.  So |g| is subharmonic and takes its
    maximum on the boundary, where cap - |g| takes its minimum.
  * arg_h.  arg g = Im log g is harmonic, and |arg g| < pi/2 (for alpha < 0,
    |w| > beta^mu >= 2|alpha| gives |arg g| < pi/6), so on the quarter
    0 <= arg lambda <= pi/2 the sum arg h = arg lambda + arg g does not wrap,
    and the margin is the smaller of the harmonic functions
    mu arg lambda - arg g and (2+mu) arg lambda + arg g: superharmonic, with
    its minimum on the boundary.
  * re_power.  With z = lambda + beta = |z| e^{i phi} the margin is
    |z|^mu (cos(mu phi) - cos(phi)^mu), and u = ln cos(mu phi) - mu ln cos phi
    has u(0) = 0 and u' = mu (tan phi - tan(mu phi)) >= 0 on [0, pi/2), so
    the inequality holds exactly.  The suite checks the scale-free form
    cos(mu phi) >= cos(phi)^mu on 2,500 points of [0, pi/2), where only
    rounding can show.
  * arg_h_tilde.  With theta = arg lambda in [pi/2, pi], the continuous
    branch A = arg(lambda - beta) + mu theta - arg(lambda^mu + alpha) of
    arg h_tilde lies in [0, 2 pi], so the margin
    (1+mu) theta - min(A, 2 pi - A) is the larger of

        m(lambda) = theta - arg(lambda - beta) + arg(lambda^mu + alpha)

    and 2 (1+mu) theta - 2 pi - m, and it is m where A <= pi.
    m = Im log[lambda (lambda^mu + alpha) / (lambda - beta)] is harmonic on
    the open quadrant, where lambda^mu + alpha has no zero, so no margin in
    the region lies below the boundary minimum of m.  Where that minimum has
    A <= pi it is a margin, and the boundary minimum of the margin is the
    region's; on every triple measured it lies at the corner lambda = i r_min.

For alpha > 0 the arg_h_tilde derivation goes further.  On the negative real
axis m = arg(r^mu e^{i mu pi} + alpha) >= 0, and on the imaginary axis

    m(i y) = arg(y^mu e^{i mu pi/2} + alpha) - atan(beta / y)

increases with y, as both terms do.  So the inequality holds on
{Re lambda <= 0, |lambda| >= r} exactly when r is at least the root r* of
arg(r^mu e^{i mu pi/2} + alpha) = atan(beta / r), provided the arc
|lambda| = r holds no lower margin; the suite evaluates the arc.  r* is 0 at
beta = 0, and 2.774, 1.565 and 0.898 at (0.5, 1, 0.3), (0.5, 1, 0.5) and
(0.5, 1, 0.8).  r_min is 1 at all three, since beta binds, which is below r*
at the first two: the suite finds worst margins -0.470 and -0.256 there, at
i r_min, so verify exits 1 on (0.5, 1, 0.3) at rho = -1 and -2 and on
(0.5, 1, 0.5) at rho = -2.  Whether the decay proof needs the inequality
that far in is the paper's question; the checked region and its slack stay.

The |lambda| > beta floor is not part of the classical hypothesis.  Below
beta the bound fails: h_tilde(r) is negative on the real segment
0 < r < beta, so the argument-integral representation underlying the
inequality starts from arg = pi rather than 0 there (e.g.
(alpha, beta, mu) = (-0.2, 1, 0.5) at lambda ~ 0.43 e^{1.64 i} gives
|arg h_tilde| = 2.47 > 2.45).
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AccuracyError, DomainError, HypothesisError
from .inversion import invert_S_curve
from .resolvent import Curve, CurveMethod, _series_grid, _validate_grid
from .symbols import (KernelParams, ScalarProblem, symbol_g, symbol_h,
                      symbol_h_tilde)
from .volterra import _MAX_STEPS, _stepping, solve_volterra

__all__ = [
    "RegimeClass",
    "Regime",
    "DecayBound",
    "RateFit",
    "BoundCheck",
    "LemmaCheck",
    "LemmaReport",
    "classify",
    "theoretical_bound",
    "fit_decay_rate",
    "verify_bound",
    "lemma_property_suite",
    "verify_problem",
]

SCHEMA_VERSION = 1


class RegimeClass(str, enum.Enum):
    POSITIVE_ALPHA = "positive-alpha"
    NEGATIVE_ALPHA_ADMISSIBLE = "negative-alpha-admissible"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Regime:
    """Classification of (alpha, beta, mu) under the caller-supplied sectorial
    shift omega.  ``decay_applicable`` records whether the decay estimates
    apply (omega < 0 and beta + omega <= 0)."""

    regime_class: RegimeClass
    beta_plus_omega: float
    decay_applicable: bool

    @property
    def supported(self) -> bool:
        return self.regime_class is not RegimeClass.UNSUPPORTED


@dataclass(frozen=True)
class DecayBound:
    """Envelope (1 + poly_coeff t^poly_power) e^{rate t}, up to the constant
    C that :func:`verify_bound` measures."""

    rate: float
    poly_coeff: float
    poly_power: float
    uniformly_stable: bool


@dataclass(frozen=True)
class RateFit:
    """Least-squares tail slope of ln|values|; ``oscillatory`` marks the
    local-maxima envelope fallback."""

    rate: float
    oscillatory: bool


@dataclass(frozen=True)
class BoundCheck:
    c_min: float
    c_min_doubled: float
    holds: bool


def classify(params: KernelParams, omega: float) -> Regime:
    """Pure regime predicate over valid parameter triples; an omega or a
    beta + omega that is not a finite float raises :class:`DomainError`."""
    if not math.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega}")
    if params.alpha > 0.0:
        cls = RegimeClass.POSITIVE_ALPHA
    elif params.alpha < 0.0 and params.alpha + params.beta ** params.mu >= abs(params.alpha):
        cls = RegimeClass.NEGATIVE_ALPHA_ADMISSIBLE
    else:
        cls = RegimeClass.UNSUPPORTED
    bpo = params.beta + omega
    if not math.isfinite(bpo):
        raise DomainError(f"beta + omega is not a finite float for "
                          f"beta={params.beta}, omega={omega}")
    return Regime(cls, bpo, decay_applicable=(omega < 0.0 and bpo <= 0.0))


def theoretical_bound(params: KernelParams, omega: float) -> DecayBound:
    """Decay envelope implied by the regime; requires a supported regime with
    the decay hypotheses satisfied."""
    regime = classify(params, omega)
    if not regime.supported:
        raise HypothesisError(
            f"unsupported regime: alpha={params.alpha}, beta={params.beta}, "
            f"mu={params.mu}")
    if not regime.decay_applicable:
        raise HypothesisError(
            f"decay estimates need omega < 0 and beta + omega <= 0; got "
            f"omega={omega}, beta+omega={regime.beta_plus_omega}")
    if regime.regime_class is RegimeClass.POSITIVE_ALPHA:
        return DecayBound(rate=-params.beta, poly_coeff=0.0, poly_power=0.0,
                          uniformly_stable=params.beta > 0.0)
    aw = params.alpha * omega  # > 0 here
    if not math.isfinite(aw):
        raise DomainError(f"alpha * omega is not a finite float for "
                          f"alpha={params.alpha}, omega={omega}")
    rate = -(params.beta - aw ** (1.0 / (params.mu + 1.0)))
    try:
        stable = params.beta ** (params.mu + 1.0) > aw
    except OverflowError:  # beta^{mu+1} exceeds every float, aw included
        stable = True
    return DecayBound(rate=rate, poly_coeff=aw, poly_power=params.mu + 1.0,
                      uniformly_stable=stable)


def fit_decay_rate(curve: Curve) -> RateFit:
    """Fit ln|values| ~ rate * t + b over the last half of the grid.

    Sign changes or zeros in the window switch to the envelope of |values|
    through its local maxima (flagged ``oscillatory``); if no envelope is
    resolvable the fit raises :class:`AccuracyError`.
    """
    t = curve.times
    mask = t >= t[0] + (t[-1] - t[0]) * 0.5
    if np.count_nonzero(mask) < 3:
        raise DomainError("tail window holds fewer than 3 samples")
    t, v = t[mask], curve.values[mask]
    oscillatory = bool(np.any(v[1:] * v[:-1] <= 0.0))
    if oscillatory:
        w = np.abs(v)
        peaks = np.where((w[1:-1] > w[:-2]) & (w[1:-1] > w[2:]))[0] + 1
        if peaks.size < 2:
            raise AccuracyError(
                "tail window has sign changes but fewer than 2 envelope peaks")
        t, v = t[peaks], w[peaks]
    slope = np.polyfit(t, np.log(np.abs(v)), 1)[0]
    return RateFit(float(slope), oscillatory)


def verify_bound(curve: Curve, bound: DecayBound, doubled: Curve) -> BoundCheck:
    """Smallest C with |values| <= C (1 + poly t^p) e^{rate t} on the grid,
    for ``curve`` and for its ``doubled``-horizon twin.

    Samples below 1e-12 times a curve's sup norm are ignored:
    they sit at or below the solver's roundoff floor, where the ratio
    against a decaying envelope measures noise, not the solution; a curve
    with no sample above that floor (all zero) raises :class:`DomainError`.
    ``holds`` needs both C finite and growing less than 5% under the doubling.
    """

    def c_min_of(c: Curve) -> float:
        v = np.abs(c.values)
        keep = v > 1e-12 * v.max()
        if not keep.any():
            raise DomainError("no sample lies above the 1e-12 floor of the "
                              "curve's sup norm")
        env = (1.0 + bound.poly_coeff * c.times[keep] ** bound.poly_power) \
            * np.exp(bound.rate * c.times[keep])
        return float(np.max(v[keep] / env))

    c1, c2 = c_min_of(curve), c_min_of(doubled)
    holds = bool(np.isfinite(c1) and np.isfinite(c2) and (c2 - c1) < 0.05 * c1)
    return BoundCheck(c1, c2, holds)


@dataclass(frozen=True)
class LemmaCheck:
    """One inequality on the boundary of its region: ``violations`` counts
    the boundary points whose margin is below -slack, and ``where`` is the
    lambda (the phi of z = lambda + beta for re_power) of the worst one."""

    name: str
    violations: int
    worst_margin: float  # most negative is worst; >= -slack means clean
    where: complex | float


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.checks)

    def violation_counts(self) -> dict[str, int]:
        return {c.name: c.violations for c in self.checks}


_SIDE = 2_500  # boundary points a side: 10,000 symbol values per check
_GROW = 10.0 ** (6.0 * np.arange(_SIDE) / _SIDE)  # [1, 1e6)
_TURN = np.pi / 2 * np.arange(_SIDE) / _SIDE  # [0, pi/2)


def _boundary(r0: float, t0: float) -> np.ndarray:
    """The boundary of r0 <= |lam| <= 1e6 r0, t0 <= arg lam <= t0 + pi/2,
    walked once around: the ray at t0 outward, the outer arc, the ray at
    t0 + pi/2 inward and the inner arc back, ``_SIDE`` points a side
    (geometric in modulus, uniform in argument), each corner once."""
    r1, t1 = 1e6 * r0, t0 + np.pi / 2
    return np.concatenate([r0 * _GROW * np.exp(1j * t0),
                           r1 * np.exp(1j * (t0 + _TURN)),
                           r1 / _GROW * np.exp(1j * t1),
                           r0 * np.exp(1j * (t1 - _TURN))])


def _check_supported(params: KernelParams) -> None:
    if not classify(params, 0.0).supported:
        raise HypothesisError(
            f"unsupported regime: alpha={params.alpha}, beta={params.beta}, "
            f"mu={params.mu}")


def lemma_property_suite(params: KernelParams) -> LemmaReport:
    """The four symbol inequalities on the boundaries of their regions,
    where each margin takes its minimum (see the module docstring): 10,000
    points for each symbol check and 2,500 values of phi for re_power.

    Violations are data, not errors; a clean run reports zero for every
    check.  A check whose margins are not finite floats (its region lies
    past the float range, as at mu near 0) raises :class:`AccuracyError`
    naming the check.  An unsupported regime raises
    :class:`HypothesisError`.
    """
    alpha, beta, mu = params.alpha, params.beta, params.mu
    _check_supported(params)
    g_cap = 1.0 if alpha > 0.0 else beta ** mu / (alpha + beta ** mu)

    checks = []

    def record(name: str, points: np.ndarray, margins: np.ndarray,
               slack: float) -> None:
        # A margin that is not finite is no sample; it never counts as clean.
        invalid = np.count_nonzero(~np.isfinite(margins))
        if invalid:
            raise AccuracyError(f"{name}: {invalid} of {margins.size} sampled "
                                "margins are not finite")
        worst = int(np.argmin(margins))
        checks.append(LemmaCheck(name, int(np.count_nonzero(margins < -slack)),
                                 float(margins[worst]), points[worst].item()))

    lam = _boundary(1e-3, 0.0)
    record("g_bound", lam, g_cap - np.abs(symbol_g(params, lam)), 1e-12)

    h = symbol_h(params, lam)
    record("arg_h", lam,
           (1.0 + mu) * np.abs(np.angle(lam)) - np.abs(np.angle(h)), 1e-10)

    record("re_power", _TURN, np.cos(mu * _TURN) - np.cos(_TURN) ** mu, 1e-12)

    # |lambda^mu| >= 2|alpha| plus the |lambda| > beta floor (see module
    # docstring); both are needed for the shifted-symbol inequality.
    try:
        r_min = max(1e-3, (2.0 * abs(alpha)) ** (1.0 / mu),
                    beta * (1.0 + 1e-9))
    except OverflowError:
        r_min = math.inf
    # Past the float range (mu near 0, say) the moduli or the symbol are not
    # finite, and record refuses the margins that follow from them.
    with np.errstate(over="ignore", invalid="ignore"):
        lam_left = _boundary(r_min, np.pi / 2)
        ht = symbol_h_tilde(params, lam_left)
        margins = (1.0 + mu) * np.abs(np.angle(lam_left)) - np.abs(np.angle(ht))
    record("arg_h_tilde", lam_left, margins, 1e-10)

    return LemmaReport(tuple(checks))


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Sup deviation over the larger sup norm; S(0) = 1, so about absolute."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def verify_problem(prob: ScalarProblem, grid: np.ndarray, dt: float,
                   tol: float, omega: float | None) -> dict:
    """The ``memdiff verify`` report on ``grid`` (from t = 0), a JSON-ready
    dict: three-route agreement within ``tol``, the lemma suites and, where
    decay applies for ``omega`` (None means rho), the decay checks.

    Every argument is refused before any route runs, in this order: a bad
    grid, a ``tol`` not finite and > 0 and an ``omega`` not finite
    (DomainError); the grid Volterra march's stepping of ``grid`` and ``dt``
    (its checks and messages are :func:`solve_volterra`'s); a long march past
    the step bound; then an unsupported regime (HypothesisError)."""
    grid = _validate_grid(grid)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    omega = prob.rho if omega is None else omega
    regime = classify(prob.params, omega)
    _stepping(grid, dt, 1)
    # Decay behaviour on a long horizon and, where decay applies, its
    # stability under horizon doubling.  The march is causal, so the base
    # horizon is a prefix of the doubled one and one solve serves both.
    horizon = max(20.0, float(grid[-1]))
    long_dt = 0.005
    n_base = int(round(horizon / long_dt))
    span = 2 if regime.decay_applicable else 1
    n_long = int(round(span * horizon / long_dt))
    if n_long > _MAX_STEPS:
        raise DomainError(f"the decay check's march to t = {span * horizon} "
                          f"needs {n_long} > {_MAX_STEPS} steps of {long_dt}")
    _check_supported(prob.params)

    # Series route, excluding the points where the series honestly fails.
    series_vals, _ = _series_grid(prob, grid)
    ok = np.isfinite(series_vals)
    excluded_fraction = 1.0 - float(np.mean(ok))

    volterra = solve_volterra(prob, grid, dt)
    laplace = invert_S_curve(prob, grid)

    # t = 0 is on every grid and exact in the series, so ok is never empty.
    deviations = {
        "series_volterra": _deviation(series_vals[ok], volterra.values[ok]),
        "series_laplace": _deviation(series_vals[ok], laplace.values[ok]),
        "volterra_laplace": _deviation(volterra.values, laplace.values),
    }

    report_lemmas = lemma_property_suite(prob.params)

    long = solve_volterra(prob, np.arange(n_long + 1) * long_dt)
    base = Curve(long.times[:n_base + 1], long.values[:n_base + 1],
                 CurveMethod.VOLTERRA, prob)
    fit = fit_decay_rate(base)

    passes = {
        "three_way_agreement": bool(
            max(deviations.values()) <= tol and excluded_fraction < 0.20),
        "lemma_suites": report_lemmas.total_violations == 0,
    }
    theoretical_rate = c_min = None
    if regime.decay_applicable:
        bound = theoretical_bound(prob.params, omega)
        check = verify_bound(base, bound, doubled=long)
        theoretical_rate, c_min = bound.rate, check.c_min
        passes["decay_rate"] = bool(fit.rate <= bound.rate + 0.05)
        passes["bound_stable"] = bool(check.holds and check.c_min < 100.0)
    passes["all"] = all(passes.values())

    return {
        "schema_version": SCHEMA_VERSION,
        "params": {**asdict(prob.params), "rho": prob.rho, "omega": omega},
        "regime": regime.regime_class.value,
        "grid": {"tmax": float(grid[-1]), "points": len(grid), "dt": dt,
                 "series_excluded_fraction": excluded_fraction},
        "deviations": deviations,
        "lemma_violations": report_lemmas.violation_counts(),
        "fitted_rate": fit.rate,
        "fitted_rate_oscillatory": fit.oscillatory,
        "theoretical_rate": theoretical_rate,
        "c_min": c_min,
        "passes": passes,
    }
