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

from .errors import DomainError, MemdiffError, ModeError, TruncationError
from .resolvent import Curve, CurveMethod, series_S, series_curve
from .symbols import KernelParams, ScalarProblem
from .volterra import solve_volterra, solve_volterra_batch, volterra_grid

__all__ = [
    "SpectralModel",
    "eigen_pairs",
    "mode_curve",
    "field",
    "operator_norm_curve",
]


@dataclass(frozen=True)
class SpectralModel:
    """Interval length, retained mode count, and initial-datum coefficients
    <u0, phi_n> for n = 1..n_modes."""

    length: float
    n_modes: int
    u0_coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise DomainError(f"length must be > 0, got {self.length}")
        if self.n_modes < 1:
            raise DomainError(f"n_modes must be >= 1, got {self.n_modes}")
        coeffs = tuple(float(c) for c in self.u0_coeffs)
        if len(coeffs) != self.n_modes:
            raise DomainError(
                f"expected {self.n_modes} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "u0_coeffs", coeffs)

    def eigenvalue(self, n: int) -> float:
        if not (1 <= n <= self.n_modes):
            raise DomainError(f"mode index must lie in 1..{self.n_modes}, got {n}")
        return (n * math.pi / self.length) ** 2


def eigen_pairs(model: SpectralModel) -> list[tuple[float, Callable]]:
    """[(lambda_n, phi_n)] with phi_n L2-normalized on (0, length)."""
    L = model.length
    norm = math.sqrt(2.0 / L)

    def make_phi(n: int) -> Callable:
        def phi(x, _n=n):
            return norm * np.sin(_n * math.pi * np.asarray(x, dtype=float) / L)
        return phi

    return [(model.eigenvalue(n), make_phi(n)) for n in range(1, model.n_modes + 1)]


def mode_curve(model: SpectralModel, params: KernelParams, n: int, times,
               method: str | CurveMethod = CurveMethod.SERIES) -> Curve:
    """Resolvent curve of mode n: exactly the scalar route at rho = -lambda_n.

    For the Volterra route the grid must be uniform from 0 (it becomes the
    stepping grid).  Failures carry the offending mode index.
    """
    prob = ScalarProblem(params, -model.eigenvalue(n))
    method = CurveMethod(method)
    try:
        if method is CurveMethod.SERIES:
            return series_curve(prob, times)
        if method is CurveMethod.VOLTERRA:
            return solve_volterra(prob, volterra_grid(times)[0])
        raise DomainError(f"unsupported mode-curve method {method!r}")
    except ModeError:
        raise
    except MemdiffError as exc:
        raise ModeError(f"mode {n}: {exc}", mode_index=n) from exc


def field(model: SpectralModel, params: KernelParams, t: float,
          x_grid) -> np.ndarray:
    """u(t, x) = sum_n S_n(t) <u0, phi_n> phi_n(x) over the retained modes."""
    x = np.asarray(x_grid, dtype=float)
    if np.any(x < 0.0) or np.any(x > model.length):
        raise DomainError("x_grid must lie inside [0, length]")
    out = np.zeros_like(x)
    for (lam_n, phi), coeff, n in zip(
            eigen_pairs(model), model.u0_coeffs, range(1, model.n_modes + 1)):
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
        rhos = [-model.eigenvalue(n) for n in range(1, model.n_modes + 1)]
        try:
            cfg, per_cell = volterra_grid(times, dt)
            stacked = np.abs(solve_volterra_batch(params, rhos, cfg))
        except MemdiffError as exc:
            # A solution that is not finite names its row; the grid, the
            # step and the kernel table are shared by all modes, so any
            # other failure is the first mode's.
            n = getattr(exc, "row", 0) + 1
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
