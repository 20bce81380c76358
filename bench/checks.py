"""Correctness checks of memdiff outputs.

Each check takes the text the CLI wrote and returns ``None`` when the output
is correct, or a one-line reason.  Curves are checked against the mpmath
references of ``reference.py``; ``verify`` reports are checked against the
paper's properties, with the theoretical rate recomputed here.  Report
fields are read by name, so added fields do not disturb the checks.
"""

from __future__ import annotations

import json
import math

# Accuracy each route states: the series guard and the 64-node contour both
# keep S(t) within a few 1e-9 of the truth on the sampled region.
CURVE_TOL = 1e-8
# Volterra product integration at dt = 0.005 (worst seen: 3e-5).
NORM_TOL = 1e-4
# Slack of the decay-rate check in `memdiff verify`.
RATE_SLACK = 0.05
GRID_TOL = 1e-12
DEVIATIONS = ("series_volterra", "series_laplace", "volterra_laplace")
LEMMAS = ("g_bound", "arg_h", "re_power", "arg_h_tilde")


def _rows(text: str, times: list[float], method: str):
    """Parse ``t,value,method`` CSV on the expected grid, or raise
    ValueError with the reason."""
    lines = text.split("\n")
    if lines[0] != "t,value,method" or lines[-1] != "":
        raise ValueError("not a t,value,method CSV ending in a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != len(times):
        raise ValueError(f"{len(rows)} rows, expected {len(times)}")
    values = []
    for (t_text, v_text, m), t in zip(rows, times):
        if m != method:
            raise ValueError(f"method {m!r}, expected {method!r}")
        if abs(float(t_text) - t) > GRID_TOL * max(1.0, abs(t)):
            raise ValueError(f"grid point {t_text}, expected {t!r}")
        values.append(float(v_text))
    return values


def _compare(values, times, reference, tol: float) -> str | None:
    for v, t, ref in zip(values, times, reference):
        if ref is not None and not abs(v - ref) <= tol:
            return f"t={t!r}: {v!r} differs from the reference {ref!r} by more than {tol}"
    return None


def check_curve(text: str, times, reference, method: str,
                tol: float = CURVE_TOL) -> str | None:
    """A scalar-curve CSV against the reference S(t) values."""
    try:
        values = _rows(text, times, method)
    except ValueError as exc:
        return str(exc)
    return _compare(values, times, reference, tol)


def check_norm(text: str, times, reference, tol: float = NORM_TOL
               ) -> str | None:
    """A norm-curve CSV against max_n |S_n(t)|; the norm at t = 0 is 1."""
    try:
        values = _rows(text, times, "volterra")
    except ValueError as exc:
        return str(exc)
    if values[0] != 1.0:
        return f"norm at t=0 is {values[0]!r}, not 1"
    return _compare(values, times, reference, tol)


def theoretical_rate(alpha: float, beta: float, mu: float, omega: float
                     ) -> float | None:
    """Decay rate of the paper's envelope, or None when it does not apply
    (omega < 0 and beta + omega <= 0 are required).

    alpha > 0:  |S(t)| <= C e^{-beta t}
    alpha < 0:  |S(t)| <= C (1 + alpha omega t^{mu+1})
                          e^{-(beta - (alpha omega)^{1/(mu+1)}) t}
    """
    if not (omega < 0.0 and beta + omega <= 0.0):
        return None
    if alpha > 0.0:
        return -beta
    return -(beta - (alpha * omega) ** (1.0 / (mu + 1.0)))


def check_verify(text: str, alpha: float, beta: float, mu: float, rho: float,
                 tol: float = 1e-4) -> str | None:
    """A verify report against the paper's properties (omega = rho)."""
    try:
        report = json.loads(text)
        deviations = {k: float(report["deviations"][k]) for k in DEVIATIONS}
        violations = {k: int(report["lemma_violations"][k]) for k in LEMMAS}
        fitted = float(report["fitted_rate"])
        claimed = report["theoretical_rate"]
        excluded = float(report["grid"]["series_excluded_fraction"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    for name, dev in deviations.items():
        if not dev <= tol:
            return f"deviation {name} = {dev!r} exceeds {tol}"
    if not excluded < 0.2:
        return f"series excluded fraction {excluded!r} is not below 0.2"
    bad = {k: v for k, v in violations.items() if v}
    if bad:
        return f"lemma violations {bad}"
    expected = theoretical_rate(alpha, beta, mu, rho)
    if expected is None or claimed is None:
        same = expected is None and claimed is None
    else:
        same = math.isclose(float(claimed), expected, rel_tol=1e-12,
                            abs_tol=1e-15)
    if not same:
        return f"theoretical_rate {claimed!r}, expected {expected!r}"
    if expected is None:
        return None
    if not fitted <= expected + RATE_SLACK:
        return f"fitted_rate {fitted!r} exceeds {expected!r} + {RATE_SLACK}"
    return None
