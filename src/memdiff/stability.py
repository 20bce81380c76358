"""Regime classification, theoretical decay bounds, empirical rate fitting,
and the sampled inequality suites for the Laplace symbols.

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
classical hypothesis but is required: h_tilde(r) is negative on the real
segment 0 < r < beta, so the argument-integral representation underlying
the inequality starts from arg = pi rather than 0 there, and the bound
genuinely fails below beta (e.g. (alpha, beta, mu) = (-0.2, 1, 0.5) at
lambda ~ 0.43 e^{1.64 i} gives |arg h_tilde| = 2.47 > 2.45).  Above beta
the sampled inequality holds with uniform margin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, HypothesisError
from .resolvent import Curve
from .symbols import KernelParams, symbol_g, symbol_h, symbol_h_tilde

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
]


class RegimeClass(str, enum.Enum):
    POSITIVE_ALPHA = "positive-alpha"
    NEGATIVE_ALPHA_ADMISSIBLE = "negative-alpha-admissible"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Regime:
    """Classification of (alpha, beta, mu) with the caller-supplied sectorial
    shift omega attached.  ``decay_applicable`` records whether the decay
    estimates apply (omega < 0 and beta + omega <= 0)."""

    regime_class: RegimeClass
    omega: float
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
    return Regime(cls, omega, bpo, decay_applicable=(omega < 0.0 and bpo <= 0.0))


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
    rate = -(params.beta - aw ** (1.0 / (params.mu + 1.0)))
    return DecayBound(rate=rate, poly_coeff=aw, poly_power=params.mu + 1.0,
                      uniformly_stable=params.beta ** (params.mu + 1.0) > aw)


def _tail_window(curve: Curve, tail_fraction: float) -> np.ndarray:
    if not (0.0 < tail_fraction < 1.0):
        raise DomainError(f"tail_fraction must lie in (0, 1), got {tail_fraction}")
    t = curve.times
    cut = t[0] + (t[-1] - t[0]) * (1.0 - tail_fraction)
    mask = t >= cut
    if np.count_nonzero(mask) < 3:
        raise DomainError("tail window holds fewer than 3 samples")
    return mask


def fit_decay_rate(curve: Curve, tail_fraction: float = 0.5) -> RateFit:
    """Fit ln|values| ~ rate * t + b over the last ``tail_fraction`` of the
    grid.

    Sign changes or zeros in the window switch to the envelope of |values|
    through its local maxima (flagged ``oscillatory``); if no envelope is
    resolvable the fit raises :class:`AccuracyError`.
    """
    mask = _tail_window(curve, tail_fraction)
    t = curve.times[mask]
    v = curve.values[mask]
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

    def to_dict(self) -> dict:
        return {
            "params": {"alpha": self.params.alpha, "beta": self.params.beta,
                       "mu": self.params.mu},
            "seed": self.seed,
            "checks": [
                {"name": c.name, "n_samples": c.n_samples,
                 "violations": c.violations, "worst_margin": c.worst_margin}
                for c in self.checks
            ],
        }


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
    check.  The random stream is counter-based (Philox) keyed by ``seed``,
    so reports are reproducible and the sampling may be split freely.
    """
    alpha, beta, mu = params.alpha, params.beta, params.mu
    if not classify(params, 0.0).supported:
        raise HypothesisError(
            f"unsupported regime: alpha={alpha}, beta={beta}, mu={mu}")
    g_cap = 1.0 if alpha > 0.0 else beta ** mu / (alpha + beta ** mu)

    rng = np.random.Generator(np.random.Philox(seed))
    lam = _sample_right_half(rng, n_samples)

    checks = []

    def record(name: str, margins: np.ndarray, slack: float) -> None:
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
    r_min = max(1e-3, (2.0 * abs(alpha)) ** (1.0 / mu), beta * (1.0 + 1e-9))
    lam_left = _sample_left_half(rng, n_samples, r_min)
    ht = symbol_h_tilde(params, lam_left)
    record("arg_h_tilde",
           (1.0 + mu) * np.abs(np.angle(lam_left)) - np.abs(np.angle(ht)), 1e-10)

    return LemmaReport(params, seed, tuple(checks))
