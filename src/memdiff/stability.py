"""Regime classification, theoretical decay bounds, empirical rate fitting,
the sampled inequality suites for the Laplace symbols, and
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
beta^{mu+1} > alpha omega.  The inequality suites sample lambda log-uniformly
in modulus and uniformly in admissible argument and count violations of

  * |g| <= 1 (alpha > 0)  or  |g| <= beta^mu / (alpha + beta^mu) (alpha < 0),
  * |arg h(lambda)| <= (1+mu) |arg lambda|          (Re lambda > 0),
  * Re (lambda+beta)^mu >= (Re lambda + beta)^mu    (Re lambda > 0),
  * |arg h_tilde(lambda)| <= (1+mu) |arg lambda|    (Re lambda < 0,
                                                     |lambda^mu| >= 2|alpha|,
                                                     |lambda| > beta).

The extra |lambda| > beta constraint on the last check is not part of the
classical hypothesis.  Below beta the bound fails: h_tilde(r) is negative
on the real segment 0 < r < beta, so the argument-integral representation
underlying the inequality starts from arg = pi rather than 0 there (e.g.
(alpha, beta, mu) = (-0.2, 1, 0.5) at lambda ~ 0.43 e^{1.64 i} gives
|arg h_tilde| = 2.47 > 2.45).  The floor is not enough, though: with
alpha > 0 and beta the binding floor the bound also fails above it.  At
seed 0 the suite counts 178 of 10^4 arg_h_tilde violations at (0.5, 1, 0.3),
worst margin -0.423, and 32 of 10^4 at (0.5, 1, 0.5), worst margin -0.201,
so verify exits 1 on (0.5, 1, 0.3) at rho = -1 and -2 and on (0.5, 1, 0.5) at
rho = -2.  The region where the inequality holds is still to be derived
(ROADMAP item 3); until then the check keeps this floor and its slack.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AccuracyError, DomainError, HypothesisError
from .inversion import invert_S_curve
from .resolvent import Curve, CurveMethod, _series_grid
from .special import DEFAULT_SERIES_CONTROL
from .symbols import (KernelParams, ScalarProblem, symbol_g, symbol_h,
                      symbol_h_tilde)
from .volterra import VolterraConfig, solve_volterra, solve_volterra_on_grid

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
    r_squared: float
    oscillatory: bool


@dataclass(frozen=True)
class BoundCheck:
    c_min: float
    c_min_doubled: float | None
    holds: bool


def classify(params: KernelParams, omega: float) -> Regime:
    """Pure regime predicate; total over valid parameter triples."""
    if not math.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega}")
    if params.alpha > 0.0:
        cls = RegimeClass.POSITIVE_ALPHA
    elif params.alpha < 0.0 and params.alpha + params.beta ** params.mu >= abs(params.alpha):
        cls = RegimeClass.NEGATIVE_ALPHA_ADMISSIBLE
    else:
        cls = RegimeClass.UNSUPPORTED
    bpo = params.beta + omega
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
    y = np.log(np.abs(v))
    slope, intercept = np.polyfit(t, y, 1)
    residual = y - (slope * t + intercept)
    total = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(residual ** 2)) / total if total > 0.0 else 1.0
    return RateFit(float(slope), r2, oscillatory)


def verify_bound(curve: Curve, bound: DecayBound,
                 doubled: Curve | None = None) -> BoundCheck:
    """Smallest C with |values| <= C (1 + poly t^p) e^{rate t} on the grid.

    Samples below 1e-12 times the curve's sup norm are ignored:
    they sit at or below the solver's roundoff floor, where the ratio
    against a decaying envelope measures noise, not the solution.  With a
    ``doubled``-horizon curve, ``holds`` additionally requires C to grow
    less than 5% under the doubling.
    """

    def c_min_of(c: Curve) -> float:
        v = np.abs(c.values)
        keep = v > 1e-12 * v.max()
        env = (1.0 + bound.poly_coeff * c.times[keep] ** bound.poly_power) \
            * np.exp(bound.rate * c.times[keep])
        return float(np.max(v[keep] / env))

    c1 = c_min_of(curve)
    c2 = c_min_of(doubled) if doubled is not None else None
    holds = bool(np.isfinite(c1))
    if c2 is not None:
        holds = holds and np.isfinite(c2) and (c2 - c1) < 0.05 * c1
    return BoundCheck(c1, c2, holds)


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    n_samples: int
    violations: int
    worst_margin: float  # most negative is worst; >= -slack means clean


@dataclass(frozen=True)
class LemmaReport:
    params: KernelParams
    seed: int
    checks: tuple[LemmaCheck, ...]

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.checks)

    def violation_counts(self) -> dict[str, int]:
        return {c.name: c.violations for c in self.checks}


def _sample_right_half(rng: np.random.Generator, n: int) -> np.ndarray:
    modulus = 10.0 ** rng.uniform(-3.0, 3.0, n)
    arg = rng.uniform(-np.pi / 2, np.pi / 2, n)
    return modulus * np.exp(1j * arg)


def _sample_left_half(rng: np.random.Generator, n: int, r_min: float) -> np.ndarray:
    modulus = r_min * 10.0 ** rng.uniform(0.0, 6.0, n)
    arg = rng.uniform(np.pi / 2, np.pi, n) * rng.choice((-1.0, 1.0), n)
    return modulus * np.exp(1j * arg)


def lemma_property_suite(params: KernelParams, n_samples: int = 10_000,
                         seed: int = 0) -> LemmaReport:
    """Sampled verification of the four symbol inequalities.

    Violations are data, not errors; a clean run reports zero for every
    check.  A check whose margins are not finite floats (its region lies
    past the float range, as at mu near 0) raises :class:`AccuracyError`
    naming the check.  The random stream is counter-based (Philox) keyed by
    ``seed``, so reports are reproducible and the sampling may be split
    freely.
    """
    alpha, beta, mu = params.alpha, params.beta, params.mu
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not classify(params, 0.0).supported:
        raise HypothesisError(
            f"unsupported regime: alpha={alpha}, beta={beta}, mu={mu}")
    g_cap = 1.0 if alpha > 0.0 else beta ** mu / (alpha + beta ** mu)

    rng = np.random.Generator(np.random.Philox(seed))
    lam = _sample_right_half(rng, n_samples)

    checks = []

    def record(name: str, margins: np.ndarray, slack: float) -> None:
        # A margin that is not finite is no sample; it never counts as clean.
        invalid = np.count_nonzero(~np.isfinite(margins))
        if invalid:
            raise AccuracyError(f"{name}: {invalid} of {margins.size} sampled "
                                "margins are not finite")
        worst = float(np.min(margins))
        checks.append(LemmaCheck(name, int(margins.size),
                                 int(np.count_nonzero(margins < -slack)), worst))

    g = symbol_g(params, lam)
    record("g_bound", g_cap - np.abs(g), 1e-12)

    h = symbol_h(params, lam)
    record("arg_h", (1.0 + mu) * np.abs(np.angle(lam)) - np.abs(np.angle(h)), 1e-10)

    w = (lam + beta) ** mu
    record("re_power", w.real - (lam.real + beta) ** mu, 1e-12)

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
        lam_left = _sample_left_half(rng, n_samples, r_min)
        ht = symbol_h_tilde(params, lam_left)
        margins = (1.0 + mu) * np.abs(np.angle(lam_left)) - np.abs(np.angle(ht))
    record("arg_h_tilde", margins, 1e-10)

    return LemmaReport(params, seed, tuple(checks))


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Sup deviation over the larger sup norm; S(0) = 1, so about absolute."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def verify_problem(prob: ScalarProblem, grid: np.ndarray, dt: float,
                   tol: float, omega: float | None, seed: int) -> dict:
    """The ``memdiff verify`` report on ``grid`` (from t = 0), a JSON-ready
    dict: three-route agreement within ``tol``, the lemma suites and, where
    decay applies for ``omega`` (None means rho), the decay checks."""
    omega = prob.rho if omega is None else omega
    regime = classify(prob.params, omega)

    # Series route, excluding the points where the series honestly fails.
    series_vals, _ = _series_grid(prob, grid, DEFAULT_SERIES_CONTROL)
    ok = np.isfinite(series_vals)
    excluded_fraction = 1.0 - float(np.mean(ok))

    volterra = solve_volterra_on_grid(prob, grid, dt)
    laplace = invert_S_curve(prob, grid)

    # t = 0 is on every grid and exact in the series, so ok is never empty.
    deviations = {
        "series_volterra": _deviation(series_vals[ok], volterra.values[ok]),
        "series_laplace": _deviation(series_vals[ok], laplace.values[ok]),
        "volterra_laplace": _deviation(volterra.values, laplace.values),
    }

    report_lemmas = lemma_property_suite(prob.params, seed=seed)

    # Decay behaviour on a long horizon and, where decay applies, its
    # stability under horizon doubling.  The march is causal, so the base
    # horizon is a prefix of the doubled one and one solve serves both.
    horizon = max(20.0, float(grid[-1]))
    long_dt = 0.005
    n_base = int(round(horizon / long_dt))
    span = 2 if regime.decay_applicable else 1
    long = solve_volterra(
        prob, VolterraConfig(long_dt, int(round(span * horizon / long_dt))))
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
