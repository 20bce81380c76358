"""The public boundary: inputs outside a call's contract raise a typed
error (a :class:`DomainError`), never a raw Python exception or a silent
NaN, and the CLI reads every float literal that ``float`` reads as a
number."""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from memdiff import (AccuracyError, Curve, CurveMethod, DomainError,
                     HypothesisError, KernelParams, ModeError, ScalarProblem,
                     SpectralModel, field, invert_transform, mode_curve,
                     mu1_closed_form, operator_norm_curve, prabhakar_ml,
                     theoretical_bound, verify_bound, verify_problem)
from memdiff import stability, volterra
from memdiff.cli import main
from conftest import HUGE_K

PARAMS = KernelParams(1.0, 0.5, 0.5)
MODEL = SpectralModel(1.0, 2)
T = np.linspace(0.0, 1.0, 5)


def synthetic(values) -> Curve:
    return Curve(T, values, "synthetic", None)


def zero_bound():
    bound = theoretical_bound(PARAMS, -1.0)
    curve = synthetic(np.zeros(T.size))
    return verify_bound(curve, bound, doubled=curve)


@pytest.mark.parametrize("call", [
    # Integer parameters: a float or a bool is no integer.
    lambda: prabhakar_ml(0.5, 2.0, 1.0),
    lambda: prabhakar_ml(0.5, True, 1.0),
    lambda: SpectralModel(1.0, 2.5),
    lambda: SpectralModel(1.0, True),
    # Non-finite or empty numeric inputs.
    lambda: synthetic([1.0, np.nan, 0.5, 0.2, 0.1]),
    lambda: synthetic([1.0, np.inf, 0.5, 0.2, 0.1]),
    zero_bound,
    lambda: field(MODEL, PARAMS, [1.0, 0.0], 0.3, [0.2, np.nan]),
    lambda: field(MODEL, PARAMS, [np.nan, 0.0], 0.3, [0.2, 0.5]),
    lambda: field(MODEL, PARAMS, [1.0, np.inf], 0.3, [0.2, 0.5]),
    lambda: invert_transform(lambda lam: 1.0 / (lam + 1.0), 1.0,
                             contour_scale=np.nan),
    lambda: invert_transform(lambda lam: 1.0 / (lam + 1.0), 1.0,
                             contour_scale=np.inf),
    lambda: verify_problem(ScalarProblem(PARAMS, -1.0), np.zeros((2, 2)),
                           0.0025, 1e-4, None),
    # A mode index is an integer; a float mode would be a curve of rho =
    # -(n pi / L)^2 for no mode of the model.
    lambda: mode_curve(SpectralModel(math.pi, 3), PARAMS, 1.5,
                       [0.0, 0.5, 1.0]),
    lambda: MODEL.eigenvalue(1.0),
    lambda: MODEL.eigenvalue(True),
    # Coefficients are a 1-D sequence of n_modes finite numbers.
    lambda: field(SpectralModel(1.0, 1), PARAMS, 1.0, 0.3, [0.2]),
    lambda: field(MODEL, PARAMS, [[1.0], [0.0]], 0.3, [0.2]),
    lambda: field(MODEL, PARAMS, [[1.0], [0.0, 1.0]], 0.3, [0.2]),
    lambda: field(MODEL, PARAMS, ["1", "0"], 0.3, [0.2]),
    lambda: field(MODEL, PARAMS, [1.0, 1j], 0.3, [0.2]),
], ids=["ml-k-float", "ml-k-bool", "n-modes-float",
        "n-modes-bool", "curve-nan", "curve-inf",
        "bound-all-zero", "field-x-nan", "field-coeff-nan", "field-coeff-inf",
        "contour-scale-nan", "contour-scale-inf", "verify-grid-2d",
        "mode-index-float", "eigenvalue-float", "eigenvalue-bool",
        "field-coeff-scalar", "field-coeff-2d", "field-coeff-ragged",
        "field-coeff-str", "field-coeff-complex"])
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("method, value", [
    ("x", "'x'"), ("laplace", "'laplace'"),
    (CurveMethod.LAPLACE, "'laplace'")], ids=["x", "laplace", "enum-laplace"])
@pytest.mark.parametrize("route", [
    lambda method: mode_curve(MODEL, PARAMS, 1, T, method),
    lambda method: operator_norm_curve(MODEL, PARAMS, T, method),
], ids=["mode-curve", "norm-curve"])
def test_unknown_spectral_method_is_named(route, method, value):
    with pytest.raises(DomainError,
                       match=f"^unsupported mode-curve method {value}; "
                             "use 'series' or 'volterra'$"):
        route(method)


@pytest.mark.parametrize("k", HUGE_K)
def test_ml_index_past_2_53_is_refused(k):
    with pytest.raises(DomainError, match=r"k must be < 2\*\*53"):
        prabhakar_ml(0.5, k, -1.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_verify_problem_refuses_a_bad_tol_before_any_route(tol, monkeypatch):
    def spy(*args):
        raise AssertionError("the series route ran")

    monkeypatch.setattr(stability, "_series_grid", spy)
    with pytest.raises(DomainError, match="tol must be finite and > 0"):
        verify_problem(ScalarProblem(PARAMS, -1.0), T, 0.0025, tol, None)


def test_verify_problem_takes_a_list_grid():
    prob = ScalarProblem(PARAMS, -1.0)
    assert (verify_problem(prob, [0.0, 0.5, 1.0], 0.0025, 1e-4, None)
            == verify_problem(prob, np.linspace(0.0, 1.0, 3), 0.0025, 1e-4,
                              None))


def test_verify_problem_refuses_a_long_march_before_its_grid_is_built(
        monkeypatch):
    # Every refusal comes before any route runs, and before a grid of the
    # march's size is built.
    def spy(*args):
        raise AssertionError("a route ran")

    monkeypatch.setattr(stability, "_series_grid", spy)
    monkeypatch.setattr(stability, "invert_S_curve", spy)
    monkeypatch.setattr(volterra, "_solve_grid", spy)
    grid32 = np.linspace(0.0, 5.0, 32)
    for params, grid, dt, error, message in [
            # The grid march takes 26,000 steps of 0.1.  The doubled-horizon
            # march would take 1,040,000 steps of 0.005, past the step bound;
            # its 8.3 MB grid is never built.
            (PARAMS, [0.0, 2600.0], 0.1, DomainError,
             r"^the decay check's march to t = 5200\.0 needs 1040000 > "
             r"1000000 steps of 0\.005$"),
            (PARAMS, grid32, 0.0, DomainError, "dt must be finite and > 0"),
            # Without dt the grid is the stepping; its cells exceed 0.1.
            (PARAMS, grid32, None, DomainError,
             r"dt must lie in \(0, 0\.1\]"),
            (KernelParams(-1.0, 0.5, 0.5), grid32, 0.0025, HypothesisError,
             "unsupported regime")]:
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                verify_problem(ScalarProblem(params, -1.0), grid, dt, 1e-4,
                               None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def test_mode_curve_passes_a_kernel_domain_error_through():
    # beta^-mu overflows: an argument error, as on operator_norm_curve.
    with pytest.raises(DomainError, match="beta\\^-mu") as info:
        mode_curve(MODEL, KernelParams(1.0, 1e-310, 1.0), 1,
                   np.linspace(0.0, 0.5, 11), method="volterra")
    assert not isinstance(info.value, ModeError)


@pytest.mark.parametrize("params, rho, t", [
    # D = 0: 1 + s t / 2 overflows while e^{(rho - beta) t / 2} underflows,
    # inf * 0 where S(t) is 0
    ((4.0, 5.0, 1.0), -1.0, 1.7e308),
    # D < 0: c t = 1e310 is inf, and cos(inf) has no value
    ((1e300, 0.0, 1.0), -1.0, 1e160),
], ids=["double-root-inf-times-0", "complex-pair-infinite-phase"])
def test_mu1_closed_form_that_is_no_finite_float_is_an_accuracy_error(
        params, rho, t):
    with pytest.raises(AccuracyError, match="^the mu = 1 closed form is not "
                                            "a finite float at t="):
        mu1_closed_form(ScalarProblem(KernelParams(*params), rho), t)


def run(argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, exponent, decimal", [
    ("scalar-curve -a {} -b 1 -m 0.5 -r -1 --points 3", "-1e-1", "-0.1"),
    ("classify -a 1 -b 1 -m 0.5 -w {}", "-2E0", "-2.0"),
    ("eval-ml -m 0.5 -k 1 --z {}", "-1e1", "-10.0"),
    ("scalar-curve -a 1 -b 1 -m 0.5 -r {} --points 3", "-1e-3", "-0.001"),
])
def test_cli_reads_negative_exponent_literals(argv, exponent, decimal):
    expected = run(argv.format(decimal))
    assert expected[0] == 0
    assert run(argv.format(exponent)) == expected


@pytest.mark.parametrize("literal", ["-inf", "-x"])
def test_cli_non_numeric_negative_is_a_usage_error(literal):
    code, out, err = run(f"classify -a 1 -b 1 -m 0.5 -w {literal}")
    assert (code, out) == (64, "")
    assert err.endswith("memdiff classify: error: argument --omega/-w: "
                        "expected one argument\n")
