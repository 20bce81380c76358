"""Seeded operation lists for the three benchmark workloads.

A workload is one *round*: a fixed list of ``memdiff`` invocations built from
the seed alone.  A run repeats the round until its time budget is spent, so
every run attempts whole rounds and the share of known-failing operations is
the same in every run, whatever the seed.

Operations tagged with ``fault`` hit a defect of the program that is known
today; they are counted as failed, and any other failure makes the run
incorrect.  Their inputs never depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify-golden", "norm-curve", "curve-sweep")

# Spectral model of norm-curve: the CLI default interval (0, pi) with 16
# modes, so mode n is the scalar problem at rho = -(n pi / pi)^2.
NORM_MODES = 16
NORM_LENGTH = math.pi
NORM_TMAX = 5.0
NORM_POINTS = 11
NORM_ROUND = 12  # triples per round; every third has beta = 0

CURVE_POINTS = 64
CURVE_ROUND = 18  # seeded requests per round; every third is laplace

# Labels of the known faults; README.md in this directory describes each.
FAULT_FIT = "fit-decay-single-crossing"
FAULT_ARG_H_TILDE = "arg-h-tilde-violations"
FAULT_STIFF_CONTOUR = "stiff-contour"
FAULT_SERIES_DOMAIN = "series-domain"

GOLDEN_FAULTS = {
    (0.5, 1.0, 0.5, -1.0): FAULT_FIT,
    (0.5, 1.0, 0.3, -1.0): FAULT_ARG_H_TILDE,
    (0.5, 1.0, 0.3, -2.0): FAULT_ARG_H_TILDE,
    (0.5, 1.0, 0.5, -2.0): FAULT_ARG_H_TILDE,
}

# Fixed failing curve-sweep requests.  The stiff laplace request returns
# values near 1e221 with exit code 0; the series request lies inside the
# domain the README documents (|alpha rho| t^{mu+1} <= 100,
# |rho + beta| t <= 25) and raises ConvergenceError(reason="precision").
STIFF_CONTOUR = dict(alpha=1.0, beta=0.5, mu=0.5, rho=-256.0, tmax=2.0,
                     method="laplace")
SERIES_DOMAIN = dict(alpha=1.0, beta=0.5, mu=0.5, rho=-4.0, tmax=5.0,
                     method="series")


@dataclass(frozen=True)
class Op:
    """One memdiff invocation and what its output is checked against."""

    command: str  # "verify", "norm-curve" or "scalar-curve"
    alpha: float
    beta: float
    mu: float
    rho: float | None = None  # None for norm-curve
    tmax: float = 5.0
    points: int = 32
    method: str | None = None
    fault: str | None = None

    def argv(self) -> list[str]:
        argv = [self.command, "--alpha", repr(self.alpha), "--beta",
                repr(self.beta), "--mu", repr(self.mu)]
        if self.rho is not None:
            argv += ["--rho", repr(self.rho)]
        if self.command == "norm-curve":
            argv += ["--modes", str(NORM_MODES)]
        if self.command != "verify":
            argv += ["--tmax", repr(self.tmax), "--points", str(self.points)]
        if self.method is not None:
            argv += ["--method", self.method]
        return argv

    def times(self) -> list[float]:
        """The output grid, as numpy.linspace(0, tmax, points) builds it."""
        step = self.tmax / (self.points - 1)
        return [0.0] + [i * step for i in range(1, self.points - 1)] + [self.tmax]


def build(workload: str, seed: int) -> list[Op]:
    """The round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-golden":
        return _verify_golden(rng)
    if workload == "norm-curve":
        return _norm_curve(rng)
    if workload == "curve-sweep":
        return _curve_sweep(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _verify_golden(rng: random.Random) -> list[Op]:
    """The 24-problem golden grid in a seeded order; the seed changes only the
    order, never an input."""
    grid = list(itertools.product((0.5, 1.0), (0.0, 1.0), (0.3, 0.5, 0.8),
                                  (-1.0, -2.0)))
    rng.shuffle(grid)
    return [Op("verify", a, b, m, r, fault=GOLDEN_FAULTS.get((a, b, m, r)))
            for a, b, m, r in grid]


def _admissible_negative_alpha(rng: random.Random, beta: float, mu: float
                               ) -> float:
    # alpha < 0 is supported when beta^mu >= 2 |alpha|.
    return -rng.uniform(0.1, 0.45) * beta ** mu


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points of [0, 1), one in each interval [i/n, (i+1)/n), shuffled.

    Drawing the inputs that set an operation's cost this way (Latin
    hypercube sampling) gives every seed nearly the same mix of cheap and
    dear operations, so run-to-run spread measures the program, not the
    draw."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _norm_curve(rng: random.Random) -> list[Op]:
    """Seeded kernel triples: one in three with beta = 0 (cheap kernel
    table, the history march dominates), the others with beta > 0 (the
    incomplete-gamma table, rebuilt for every mode, dominates); the last
    one has an admissible negative alpha.  beta and mu, which set the cost,
    are stratified."""
    slots = [i % 3 == 0 for i in range(NORM_ROUND)]  # True: beta = 0
    n_zero = sum(slots)
    # At the CLI's dt = 0.005 the Volterra error grows as mu falls and as
    # alpha grows: 9.4e-5 at (alpha, mu) = (2, 0.4), 1.4e-4 near mu = 0.2.
    mus = {True: _strata(rng, n_zero), False: _strata(rng, NORM_ROUND - n_zero)}
    betas = _strata(rng, NORM_ROUND - n_zero)
    ops = []
    for i, zero in enumerate(slots):
        mu = 0.5 + 0.5 * mus[zero].pop()
        beta = 0.0 if zero else 0.2 + 1.8 * betas.pop()
        if i == NORM_ROUND - 1:
            alpha = _admissible_negative_alpha(rng, beta, mu)
        else:
            alpha = rng.uniform(0.2, 1.5)
        ops.append(Op("norm-curve", alpha, beta, mu, tmax=NORM_TMAX,
                      points=NORM_POINTS, method="volterra"))
    return ops


def _curve_sweep(rng: random.Random) -> list[Op]:
    """Fresh seeded (alpha, beta, mu, rho) per request, inside the region
    |rho + beta| tmax in [2, 6], |alpha rho|^{1/(mu+1)} tmax <= 6,
    tmax <= 10, rho in [-6, -0.5], where every route meets its accuracy;
    plus the two fixed failing requests, one in each half of the round.

    A series request costs about its count of outer terms, which grows with
    |rho + beta| tmax; that product and mu are stratified per route."""
    methods = ["laplace" if i % 3 == 2 else "series" for i in range(CURVE_ROUND)]
    mus = {m: _strata(rng, methods.count(m)) for m in ("series", "laplace")}
    spans = {m: _strata(rng, methods.count(m)) for m in ("series", "laplace")}
    ops = []
    for method in methods:
        mu = 0.2 + 0.8 * mus[method].pop()
        span = 2.0 + 4.0 * spans[method].pop()
        while True:
            if rng.random() < 0.2:
                beta = rng.uniform(0.5, 2.0)
                alpha = _admissible_negative_alpha(rng, beta, mu)
            else:
                beta = 0.0 if rng.random() < 1.0 / 3.0 else rng.uniform(0.1, 2.0)
                alpha = rng.uniform(0.1, 2.0)
            # The contour amplifies round-off by about e^{2(|rho| + beta)};
            # at |rho| + beta near 9 that alone is 1e-8.
            rho = -rng.uniform(0.5, 6.0)
            tmax = span / max(abs(rho + beta), 1e-300)
            # The series cancels about e^{|alpha rho|^{1/(mu+1)} t} against
            # e^{|rho + beta| t}; |alpha rho| t^{mu+1} <= 30 still failed at
            # mu = 0.22.
            if tmax <= 10.0 and abs(alpha * rho) ** (1.0 / (mu + 1.0)) * tmax <= 6.0:
                break
        ops.append(Op("scalar-curve", alpha, beta, mu, rho, tmax, CURVE_POINTS,
                      method))
    half = CURVE_ROUND // 2
    ops.insert(half, Op("scalar-curve", points=CURVE_POINTS,
                        fault=FAULT_SERIES_DOMAIN, **SERIES_DOMAIN))
    ops.append(Op("scalar-curve", points=CURVE_POINTS,
                  fault=FAULT_STIFF_CONTOUR, **STIFF_CONTOUR))
    return ops
