"""Dirichlet-Laplacian realization on an interval.

With A the Dirichlet Laplacian on (0, L), the eigenpairs are analytic,

    lambda_n = (n pi / L)^2,     phi_n(x) = sqrt(2/L) sin(n pi x / L),

so every mode reduces to the scalar problem with rho = -lambda_n and the
solution field is the truncated eigenfunction sum.  For this diagonal
self-adjoint family the operator norm is the supremum of the mode values,
so the norm curve is exact up to truncation, which is detected (argmax
resting on the last retained mode) rather than estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (AccuracyError, DomainError, MemdiffError, ModeError,
                     TruncationError)
from .resolvent import (Curve, CurveMethod, _validate_grid, series_S,
                        series_curve)
from .symbols import KernelParams, ScalarProblem
from .volterra import (_check_batch, solve_volterra, solve_volterra_batch,
                       volterra_grid)

__all__ = [
    "SpectralModel",
    "eigen_pairs",
    "mode_curve",
    "field",
    "operator_norm_curve",
]


@dataclass(frozen=True)
class SpectralModel:
    """Interval length and retained mode count of the Dirichlet Laplacian."""

    length: float
    n_modes: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise DomainError(f"length must be > 0, got {self.length}")
        if self.n_modes < 1:
            raise DomainError(f"n_modes must be >= 1, got {self.n_modes}")
        try:
            top = self.eigenvalue(self.n_modes)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise DomainError(
                f"eigenvalue {self.n_modes} of length {self.length} is not "
                "a finite float")

    def eigenvalue(self, n: int) -> float:
        if not (1 <= n <= self.n_modes):
            raise DomainError(f"mode index must lie in 1..{self.n_modes}, got {n}")
        return (n * math.pi / self.length) ** 2


def eigen_pairs(model: SpectralModel) -> list[tuple[float, Callable]]:
    """[(lambda_n, phi_n)] with phi_n L2-normalized on (0, length)."""
    L = model.length
    norm = math.sqrt(2.0 / L)

    def make_phi(n: int) -> Callable:
        def phi(x):
            return norm * np.sin(n * math.pi * np.asarray(x, dtype=float) / L)
        return phi

    return [(model.eigenvalue(n), make_phi(n)) for n in range(1, model.n_modes + 1)]


def mode_curve(model: SpectralModel, params: KernelParams, n: int, times,
               method: str | CurveMethod = CurveMethod.SERIES) -> Curve:
    """Resolvent curve of mode n: exactly the scalar route at rho = -lambda_n.

    For the Volterra route the grid must be uniform from 0 (it becomes the
    stepping grid).  A bad argument raises :class:`DomainError`; a failure of
    the mode's solution raises :class:`ModeError` with the mode index.
    """
    prob = ScalarProblem(params, -model.eigenvalue(n))
    method = CurveMethod(method)
    if method is CurveMethod.SERIES:
        times = _validate_grid(times)
    elif method is CurveMethod.VOLTERRA:
        cfg = volterra_grid(times)[0]
    else:
        raise DomainError(f"unsupported mode-curve method {method!r}")
    try:
        if method is CurveMethod.SERIES:
            return series_curve(prob, times)
        return solve_volterra(prob, cfg)
    except MemdiffError as exc:
        raise ModeError(f"mode {n}: {exc}", mode_index=n) from exc


def field(model: SpectralModel, params: KernelParams, u0_coeffs, t: float,
          x_grid) -> np.ndarray:
    """u(t, x) = sum_n S_n(t) <u0, phi_n> phi_n(x) over the retained modes,
    with ``u0_coeffs`` the coefficients <u0, phi_n> for n = 1..n_modes."""
    if len(u0_coeffs) != model.n_modes:
        raise DomainError(
            f"expected {model.n_modes} coefficients, got {len(u0_coeffs)}")
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    x = np.asarray(x_grid, dtype=float)
    if np.any(x < 0.0) or np.any(x > model.length):
        raise DomainError("x_grid must lie inside [0, length]")
    out = np.zeros_like(x)
    for (lam_n, phi), coeff, n in zip(
            eigen_pairs(model), u0_coeffs, range(1, model.n_modes + 1)):
        if coeff == 0.0:
            continue
        try:
            s_n = series_S(ScalarProblem(params, -lam_n), t)
        except MemdiffError as exc:
            raise ModeError(f"mode {n}: {exc}", mode_index=n) from exc
        out += s_n * coeff * phi(x)
    return out


def operator_norm_curve(model: SpectralModel, params: KernelParams, times,
                        method: str | CurveMethod = CurveMethod.SERIES,
                        dt: float | None = None) -> Curve:
    """Pointwise sup over modes of |S_n(t)|, exact for this diagonal family.

    The Volterra route marches every mode in one batch on the stepping grid
    of :func:`~memdiff.volterra.volterra_grid`: ``times`` itself, or, when
    ``dt`` is given, ``times`` with each cell split into steps no longer
    than ``dt``.  The series route ignores ``dt``.

    Raises :class:`TruncationError` when the sup rests on the last retained
    mode for more than 10% of the stepping grid (the truncation
    is then suspect and n_modes should grow).
    """
    method = CurveMethod(method)
    per_cell = 1
    if method is CurveMethod.VOLTERRA:
        cfg, per_cell = volterra_grid(times, dt)
        # A batch too large is no mode's failure; it is refused before the
        # list of rhos is built.
        _check_batch(model.n_modes, cfg.n_steps)
        rhos = [-model.eigenvalue(n) for n in range(1, model.n_modes + 1)]
        try:
            stacked = np.abs(solve_volterra_batch(params, rhos, cfg))
        except AccuracyError as exc:
            # A solution that is not finite names its row; any other
            # failure of the shared march is no one mode's and passes as is.
            n = exc.row + 1
            raise ModeError(f"mode {n}: {exc}", mode_index=n) from exc
        grid = times
    else:
        curves = [mode_curve(model, params, n, times, method)
                  for n in range(1, model.n_modes + 1)]
        stacked = np.vstack([np.abs(c.values) for c in curves])
        grid = curves[0].times
    argmax = np.argmax(stacked, axis=0)
    if model.n_modes > 1:
        boundary_frac = float(np.mean(argmax == model.n_modes - 1))
        if boundary_frac > 0.1:
            raise TruncationError(
                f"the norm rests on the last retained mode over "
                f"{boundary_frac:.0%} of the grid; increase n_modes")
    # The norm curve is not a single scalar problem; tag it with the first
    # mode only through the method label and leave problem unset.
    return Curve(grid, stacked.max(axis=0)[::per_cell], method, None)
