"""Command-line surface.

Subcommands
-----------
eval-ml       evaluate the Mittag-Leffler family E(mu, k; z)
scalar-curve  sample S(t) by one route and emit CSV/JSON
norm-curve    operator-norm curve of the interval Dirichlet-Laplacian model
verify        cross-validate the three routes, run the inequality suites
              and the decay-bound check; emit a JSON report
classify      print the regime and its theoretical decay envelope

Exit codes: 0 success, 1 verification failure, 2 numerical/convergence
error, 3 hypothesis/regime error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, HypothesisError, MemdiffError
from .inversion import InversionConfig, invert_S_curve
# series_S is no longer called here; the benchmark's tracer hooks the name in
# this module, so it stays bound.
from .resolvent import (Curve, CurveMethod, _series_grid,  # noqa: F401
                        series_S, series_curve)
from .special import MLParams, SeriesControl, _prabhakar_full
from .spectral import SpectralModel, operator_norm_curve
from .stability import classify, fit_decay_rate, lemma_property_suite, \
    theoretical_bound, verify_bound
from .symbols import KernelParams, ScalarProblem
from .volterra import VolterraConfig, solve_volterra, solve_volterra_on_grid

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NUMERICAL = 2
EXIT_HYPOTHESIS = 3
EXIT_USAGE = 64

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _curve_csv(curve: Curve) -> str:
    lines = ["t,value,method"]
    lines.extend(f"{_fmt(t)},{_fmt(v)},{curve.method}"
                 for t, v in zip(curve.times, curve.values))
    return "\n".join(lines) + "\n"


def _curve_json(curve: Curve) -> str:
    prob = curve.problem
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": None if prob is None else {
            "alpha": prob.params.alpha, "beta": prob.params.beta,
            "mu": prob.params.mu, "rho": prob.rho,
        },
        "method": curve.method,
        "t": [float(x) for x in curve.times],
        "value": [float(x) for x in curve.values],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _grid(tmax: float, points: int) -> np.ndarray:
    if not (math.isfinite(tmax) and tmax > 0.0):
        raise DomainError(f"--tmax must be > 0, got {tmax}")
    if points < 2:
        raise DomainError(f"--points must be >= 2, got {points}")
    return np.linspace(0.0, tmax, points)


def _problem_from(args) -> ScalarProblem:
    return ScalarProblem(KernelParams(args.alpha, args.beta, args.mu), args.rho)


# ---------------------------------------------------------------- eval-ml

def cmd_eval_ml(args) -> int:
    ctl = SeriesControl(rel_tol=args.rel_tol, max_terms=args.max_terms)
    value, _, n_terms = _prabhakar_full(MLParams(args.mu, args.k), args.z, ctl)
    print(_fmt(value))
    print(f"terms={n_terms}")
    return EXIT_OK


# ------------------------------------------------------------ scalar-curve

def cmd_scalar_curve(args) -> int:
    prob = _problem_from(args)
    regime = classify(prob.params, prob.rho)
    if not regime.supported and not args.force:
        print(f"unsupported regime (alpha={args.alpha}, beta={args.beta}, "
              f"mu={args.mu}); pass --force to compute anyway", file=sys.stderr)
        return EXIT_HYPOTHESIS
    grid = _grid(args.tmax, args.points)
    method = CurveMethod(args.method)
    if method is CurveMethod.SERIES:
        curve = series_curve(prob, grid, SeriesControl(rel_tol=args.rel_tol))
    elif method is CurveMethod.VOLTERRA:
        curve = solve_volterra_on_grid(prob, grid, args.dt)
    else:
        curve = invert_S_curve(prob, grid, InversionConfig(n_nodes=args.nodes))
    _write(args.out, _curve_csv(curve) if args.format == "csv"
           else _curve_json(curve))
    return EXIT_OK


# -------------------------------------------------------------- norm-curve

def cmd_norm_curve(args) -> int:
    params = KernelParams(args.alpha, args.beta, args.mu)
    model = SpectralModel(args.length, args.modes, (0.0,) * args.modes)
    regime = classify(params, -model.eigenvalue(1))
    if not regime.supported and not args.force:
        print(f"unsupported regime (alpha={args.alpha}, beta={args.beta}, "
              f"mu={args.mu}); pass --force to compute anyway", file=sys.stderr)
        return EXIT_HYPOTHESIS
    grid = _grid(args.tmax, args.points)
    curve = operator_norm_curve(model, params, grid, method=args.method,
                                dt=args.dt)
    _write(args.out, _curve_csv(curve) if args.format == "csv"
           else _curve_json(curve))
    return EXIT_OK


# ---------------------------------------------------------------- classify

def cmd_classify(args) -> int:
    params = KernelParams(args.alpha, args.beta, args.mu)
    regime = classify(params, args.omega)
    print(f"regime: {regime.regime_class.value}")
    print(f"beta+omega: {_fmt(regime.beta_plus_omega)}")
    print(f"decay_applicable: {str(regime.decay_applicable).lower()}")
    if regime.supported and regime.decay_applicable:
        bound = theoretical_bound(params, args.omega)
        print(f"rate: {_fmt(bound.rate)}")
        if bound.poly_coeff:
            print(f"poly: 1 + {_fmt(bound.poly_coeff)} * t^{_fmt(bound.poly_power)}")
        print(f"uniformly_stable: {str(bound.uniformly_stable).lower()}")
    return EXIT_OK


# ------------------------------------------------------------------ verify

def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Sup deviation normalized by the larger sup norm (S(0) = 1, so this is
    effectively an absolute sup-norm deviation)."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def cmd_verify(args) -> int:
    prob = _problem_from(args)
    omega = args.omega if args.omega is not None else args.rho
    regime = classify(prob.params, omega)
    if not regime.supported:
        print(f"unsupported regime (alpha={args.alpha}, beta={args.beta}, "
              f"mu={args.mu})", file=sys.stderr)
        return EXIT_HYPOTHESIS

    grid = _grid(args.tmax, args.points)

    # Series route, excluding the points where the series honestly fails.
    series_vals, failures = _series_grid(prob, grid, SeriesControl(), False)
    for exc in failures.values():
        if not isinstance(exc, ConvergenceError):
            raise exc
    series_ok = np.isfinite(series_vals)
    excluded_fraction = 1.0 - float(np.mean(series_ok))

    volterra = solve_volterra_on_grid(prob, grid, args.dt)
    laplace = invert_S_curve(prob, grid, InversionConfig())

    if series_ok.any():
        dev_sv = _deviation(series_vals[series_ok], volterra.values[series_ok])
        dev_sl = _deviation(series_vals[series_ok], laplace.values[series_ok])
    else:
        dev_sv = dev_sl = math.inf
    deviations = {
        "series_volterra": dev_sv,
        "series_laplace": dev_sl,
        "volterra_laplace": _deviation(volterra.values, laplace.values),
    }

    report_lemmas = lemma_property_suite(prob.params, n_samples=10_000,
                                         seed=args.seed)

    # Decay behaviour on a long horizon, stability under horizon doubling.
    # The march is causal, so the base horizon is a prefix of the doubled
    # one and one solve serves both.
    horizon = max(20.0, args.tmax)
    long_dt = 0.005
    n_base = int(round(horizon / long_dt))
    doubled = None
    if regime.decay_applicable:
        doubled = solve_volterra(
            prob, VolterraConfig(long_dt, int(round(2.0 * horizon / long_dt))))
        base = Curve(doubled.times[:n_base + 1], doubled.values[:n_base + 1],
                     CurveMethod.VOLTERRA, prob)
    else:
        base = solve_volterra(prob, VolterraConfig(long_dt, n_base))
    fit = fit_decay_rate(base, tail_fraction=0.5)

    theoretical_rate = None
    c_min = None
    bound_holds = None
    rate_ok = None
    if doubled is not None:
        bound = theoretical_bound(prob.params, omega)
        check = verify_bound(base, bound, doubled=doubled)
        theoretical_rate = bound.rate
        c_min = check.c_min
        bound_holds = check.holds and check.c_min < 100.0
        rate_ok = fit.rate <= bound.rate + 0.05

    passes = {
        "three_way_agreement": bool(
            max(deviations.values()) <= args.tol and excluded_fraction < 0.20),
        "lemma_suites": report_lemmas.total_violations == 0,
    }
    if rate_ok is not None:
        passes["decay_rate"] = bool(rate_ok)
    if bound_holds is not None:
        passes["bound_stable"] = bool(bound_holds)
    passes["all"] = all(passes.values())

    report = {
        "schema_version": SCHEMA_VERSION,
        "params": {"alpha": args.alpha, "beta": args.beta, "mu": args.mu,
                   "rho": args.rho, "omega": omega},
        "regime": regime.regime_class.value,
        "grid": {"tmax": args.tmax, "points": args.points, "dt": args.dt,
                 "series_excluded_fraction": excluded_fraction},
        "deviations": deviations,
        "lemma_violations": report_lemmas.violation_counts(),
        "fitted_rate": fit.rate,
        "fitted_rate_oscillatory": fit.oscillatory,
        "theoretical_rate": theoretical_rate,
        "c_min": c_min,
        "passes": passes,
    }
    _write(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if passes["all"] else EXIT_VERIFY_FAILED


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    parser = _Parser(prog="memdiff",
                     description="Resolvent curves for diffusion with an "
                                 "exponentially damped memory kernel")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_flags(p, with_rho: bool) -> None:
        p.add_argument("--alpha", "-a", type=float, required=True)
        p.add_argument("--beta", "-b", type=float, required=True)
        p.add_argument("--mu", "-m", type=float, required=True)
        if with_rho:
            p.add_argument("--rho", "-r", type=float, required=True)

    p = sub.add_parser("eval-ml", help="evaluate E(mu, k; z)")
    p.add_argument("--mu", "-m", type=float, required=True)
    p.add_argument("--k", "-k", type=int, required=True)
    p.add_argument("--z", "-z", type=float, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.add_argument("--max-terms", type=int, default=2000)
    p.set_defaults(func=cmd_eval_ml)

    p = sub.add_parser("scalar-curve", help="sample S(t) by one route")
    add_kernel_flags(p, with_rho=True)
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--points", type=int, default=32)
    p.add_argument("--method", choices=[m.value for m in
                                        (CurveMethod.SERIES, CurveMethod.VOLTERRA,
                                         CurveMethod.LAPLACE)],
                   default=CurveMethod.SERIES.value)
    p.add_argument("--dt", type=float, default=0.0025,
                   help="Volterra step bound (refined to land on the grid)")
    p.add_argument("--nodes", type=int, default=64,
                   help="contour nodes for the laplace route")
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.add_argument("--force", action="store_true",
                   help="compute even in an unsupported regime")
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scalar_curve)

    p = sub.add_parser("norm-curve",
                       help="operator-norm curve of the spectral model")
    add_kernel_flags(p, with_rho=False)
    p.add_argument("--length", type=float, default=math.pi,
                   help="interval length of the Dirichlet Laplacian")
    p.add_argument("--modes", type=int, default=16)
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--points", type=int, default=32)
    p.add_argument("--method", choices=(CurveMethod.SERIES.value,
                                        CurveMethod.VOLTERRA.value),
                   default=CurveMethod.VOLTERRA.value)
    p.add_argument("--dt", type=float, default=0.005)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_norm_curve)

    p = sub.add_parser("verify", help="three-route cross validation report")
    add_kernel_flags(p, with_rho=True)
    p.add_argument("--omega", "-w", type=float, default=None,
                   help="sectorial shift (defaults to rho)")
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--points", type=int, default=32)
    p.add_argument("--dt", type=float, default=0.0025)
    p.add_argument("--tol", type=float, default=1e-4,
                   help="three-way agreement tolerance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="regime and decay envelope")
    add_kernel_flags(p, with_rho=False)
    p.add_argument("--omega", "-w", type=float, required=True)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"memdiff: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"memdiff: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except MemdiffError as exc:
        print(f"memdiff: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
