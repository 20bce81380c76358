"""Command-line surface.  Each command parses its arguments, makes one
library call and serializes the result.

Subcommands
-----------
eval-ml       evaluate the Mittag-Leffler family E(mu, k; z)
scalar-curve  sample S(t) by one route and emit CSV/JSON
norm-curve    operator-norm curve of the interval Dirichlet-Laplacian model
verify        three-route agreement, lemma suites and decay checks as JSON
classify      print the regime and its theoretical decay envelope

Exit codes: 0 success, 1 verification failure, 2 numerical/convergence
error, 3 hypothesis/regime error, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict
from typing import Sequence

import numpy as np

from .errors import DomainError, HypothesisError, MemdiffError
from .inversion import invert_S_curve
# Nothing here calls series_S, fit_decay_rate, verify_bound or
# lemma_property_suite; the benchmark's tracer hooks them in this module.
from .resolvent import Curve, CurveMethod, series_S, series_curve  # noqa: F401
from .special import _prabhakar_full
from .spectral import SpectralModel, operator_norm_curve
from .stability import (SCHEMA_VERSION, classify, fit_decay_rate,  # noqa: F401
                        lemma_property_suite, theoretical_bound, verify_bound,
                        verify_problem)
from .symbols import KernelParams, ScalarProblem
from .volterra import solve_volterra

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NUMERICAL = 2
EXIT_HYPOTHESIS = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -1.5 as negative numbers, so -1e-3
        # would be taken for an option; exponent literals count too.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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
                 for t, v in zip(curve.times.tolist(), curve.values.tolist()))
    return "\n".join(lines) + "\n"


def _curve_json(curve: Curve) -> str:
    prob = curve.problem
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": None if prob is None else {**asdict(prob.params),
                                             "rho": prob.rho},
        "method": curve.method,
        "t": curve.times.tolist(),
        "value": curve.values.tolist(),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_curve(args, curve: Curve) -> int:
    _write(args.out, _curve_csv(curve) if args.format == "csv"
           else _curve_json(curve))
    return EXIT_OK


def _refuse(args) -> int:
    """Refuse an unsupported regime, naming ``--force`` where it exists."""
    hint = "; pass --force to compute anyway" if "force" in args else ""
    print(f"unsupported regime (alpha={args.alpha}, beta={args.beta}, "
          f"mu={args.mu}){hint}", file=sys.stderr)
    return EXIT_HYPOTHESIS


def _grid(tmax: float, points: int) -> np.ndarray:
    if not (math.isfinite(tmax) and tmax > 0.0):
        raise DomainError(f"--tmax must be > 0, got {tmax}")
    if points < 2:
        raise DomainError(f"--points must be >= 2, got {points}")
    try:
        return np.linspace(0.0, tmax, points)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise DomainError(
            f"--points {points} is more than memory can hold") from None


def _problem_from(args) -> ScalarProblem:
    return ScalarProblem(KernelParams(args.alpha, args.beta, args.mu), args.rho)


# ---------------------------------------------------------------- eval-ml

def cmd_eval_ml(args) -> int:
    value, _, n_terms = _prabhakar_full(args.mu, args.k, args.z)
    print(_fmt(value))
    print(f"terms={n_terms}")
    return EXIT_OK


# ------------------------------------------------------------ scalar-curve

def cmd_scalar_curve(args) -> int:
    prob = _problem_from(args)
    # Support rests on the triple alone; the curve commands take no omega.
    if not classify(prob.params, 0.0).supported and not args.force:
        return _refuse(args)
    grid = _grid(args.tmax, args.points)
    method = CurveMethod(args.method)
    if method is CurveMethod.SERIES:
        curve = series_curve(prob, grid)
    elif method is CurveMethod.VOLTERRA:
        curve = solve_volterra(prob, grid, args.dt)
    else:
        curve = invert_S_curve(prob, grid)
    return _write_curve(args, curve)


# -------------------------------------------------------------- norm-curve

def cmd_norm_curve(args) -> int:
    params = KernelParams(args.alpha, args.beta, args.mu)
    model = SpectralModel(args.length, args.modes)
    if not classify(params, 0.0).supported and not args.force:
        return _refuse(args)
    grid = _grid(args.tmax, args.points)
    return _write_curve(args, operator_norm_curve(
        model, params, grid, method=args.method, dt=args.dt))


# ---------------------------------------------------------------- classify

def cmd_classify(args) -> int:
    params = KernelParams(args.alpha, args.beta, args.mu)
    regime = classify(params, args.omega)
    # The bound before any output, so that its failure prints one line.
    bound = (theoretical_bound(params, args.omega)
             if regime.supported and regime.decay_applicable else None)
    print(f"regime: {regime.regime_class.value}")
    print(f"beta+omega: {_fmt(regime.beta_plus_omega)}")
    print(f"decay_applicable: {str(regime.decay_applicable).lower()}")
    if bound is not None:
        print(f"rate: {_fmt(bound.rate)}")
        if bound.poly_coeff:
            print(f"poly: 1 + {_fmt(bound.poly_coeff)} * t^{_fmt(bound.poly_power)}")
        print(f"uniformly_stable: {str(bound.uniformly_stable).lower()}")
    return EXIT_OK


# ------------------------------------------------------------------ verify

def cmd_verify(args) -> int:
    prob = _problem_from(args)
    regime = classify(prob.params, args.rho if args.omega is None
                      else args.omega)
    if not regime.supported:
        return _refuse(args)
    grid = _grid(args.tmax, args.points)
    report = verify_problem(prob, grid, args.dt, args.tol, args.omega)
    _write(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report["passes"]["all"] else EXIT_VERIFY_FAILED


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
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="regime and decay envelope")
    add_kernel_flags(p, with_rho=False)
    p.add_argument("--omega", "-w", type=float, required=True)
    p.set_defaults(func=cmd_classify)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` uses, built on the first call and never changed:
    parsing leaves it as it was, and building it costs 1-2 ms."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:  # OSError: an --out it cannot open
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
