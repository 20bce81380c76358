"""Numerical inverse Laplace transform on a cotangent-deformed contour.

The Bromwich integral is deformed onto the Talbot-type contour

    lam(theta) = (r / t) * theta * (cot(theta) + i),   theta in (-pi, pi),

discretized by the midpoint rule; the integrand decays double-exponentially
towards theta = +-pi, so the rule converges geometrically in the node count.
The contour radius balances discretization against the e^r roundoff
amplification:

    r = max(contour_scale, min(n_nodes / 5, 16)).

``contour_scale`` only matters when poles demand a wider contour than
accuracy alone would pick; for the scalar resolvent the default
max(1, 2(|rho| + beta)) keeps the symbol's poles and its branch cut
(-inf, -beta] strictly inside.  Because the parametrization is symmetric
and the transforms are real-symmetric, the imaginary part of the quadrature
sum is pure noise; its magnitude is the trust diagnostic.

``invert_transform`` is the one quadrature routine: it calls its transform
once, array in and array out, on all contour nodes.  ``invert_S`` is that
routine applied to S_hat behind a guard that raises :class:`ContourError`
when a node lies on a pole of the denominator.

The forward transform is plain trapezoidal quadrature of e^{-lam t} times a
sampled curve plus an analytic exponential-tail correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, ContourError, DomainError
from .resolvent import Curve, CurveMethod, _validate_grid
from .symbols import ScalarProblem, laplace_S_hat, laplace_S_hat_den

__all__ = [
    "InversionConfig",
    "invert_transform",
    "invert_S",
    "invert_S_curve",
    "forward_transform",
]

IM_RESIDUE_TOL = 1e-8
_NODE_POLE_TOL = 1e-10


@dataclass(frozen=True)
class InversionConfig:
    """Contour quadrature knobs.

    ``n_nodes`` is the accuracy knob (even, 16..256; accuracy saturates
    around 1e-10 past ~96 nodes).  ``contour_scale=None`` lets the problem
    pick its pole-safe default.
    """

    n_nodes: int = 64
    contour_scale: float | None = None

    def __post_init__(self) -> None:
        if not (16 <= self.n_nodes <= 256) or self.n_nodes % 2:
            raise DomainError(
                f"n_nodes must be even and in [16, 256], got {self.n_nodes}")
        if self.contour_scale is not None and not (
                math.isfinite(self.contour_scale) and self.contour_scale > 0.0):
            raise DomainError(
                f"contour_scale must be > 0, got {self.contour_scale}")


DEFAULT_INVERSION_CONFIG = InversionConfig()


def _contour(t: float, n_nodes: int, scale: float):
    radius = max(scale, min(n_nodes / 5.0, 16.0))
    h = 2.0 * np.pi / n_nodes
    theta = -np.pi + (np.arange(n_nodes) + 0.5) * h
    cot = 1.0 / np.tan(theta)
    lam = (radius / t) * theta * (cot + 1j)
    dlam = (radius / t) * (cot - theta / np.sin(theta) ** 2 + 1j)
    return lam, h * dlam / (2j * np.pi)


def invert_transform(transform: Callable[[np.ndarray], np.ndarray], t: float,
                     cfg: InversionConfig = DEFAULT_INVERSION_CONFIG,
                     contour_scale: float = 1.0) -> tuple[float, float]:
    """Invert an arbitrary scalar transform at time t > 0.

    ``transform`` is called once, on the complex array of contour nodes, and
    returns the array of its values there.  Returns ``(value, im_residue)``;
    the result is trustworthy only when the residue is small (< 1e-8 for the
    resolvent wrappers).
    """
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"inversion requires t > 0, got {t}")
    scale = cfg.contour_scale if cfg.contour_scale is not None else contour_scale
    lam, weights = _contour(t, cfg.n_nodes, scale)
    vals = np.asarray(transform(lam), dtype=np.complex128)
    total = np.sum(np.exp(lam * t) * vals * weights)
    return float(total.real), float(abs(total.imag))


def _default_scale(prob: ScalarProblem) -> float:
    return max(1.0, 2.0 * (abs(prob.rho) + prob.params.beta))


def invert_S(prob: ScalarProblem, t: float,
             cfg: InversionConfig = DEFAULT_INVERSION_CONFIG) -> float:
    """S(t) by contour quadrature of its closed-form transform (t > 0)."""

    def s_hat(lam: np.ndarray) -> np.ndarray:
        if np.any(np.abs(laplace_S_hat_den(prob, lam)) < _NODE_POLE_TOL):
            raise ContourError(
                f"contour node within {_NODE_POLE_TOL} of a pole at t={t}; "
                "increase contour_scale")
        return laplace_S_hat(prob, lam)

    value, residue = invert_transform(s_hat, t, cfg, _default_scale(prob))
    if residue >= IM_RESIDUE_TOL:
        raise AccuracyError(
            f"imaginary residue {residue:.2e} at t={t} exceeds "
            f"{IM_RESIDUE_TOL}; the inversion is not trustworthy")
    return value


def invert_S_curve(prob: ScalarProblem, times,
                   cfg: InversionConfig = DEFAULT_INVERSION_CONFIG) -> Curve:
    """Sample S on a grid starting at t = 0; the t = 0 value is the known
    S(0) = 1 (the contour rule itself is undefined there)."""
    grid = _validate_grid(times)
    values = [1.0 if t == 0.0 else invert_S(prob, float(t), cfg) for t in grid]
    return Curve(grid, np.array(values), CurveMethod.LAPLACE, prob)


def forward_transform(curve: Curve, lam: float, tail_rate: float) -> float:
    """Laplace transform of a sampled curve at real lam > 0.

    Trapezoidal quadrature on the curve's grid plus the analytic tail
    int_T^inf e^{-lam t} v(T) e^{tail_rate (t-T)} dt; raises
    :class:`AccuracyError` when the tail correction exceeds 10% of the
    integral (lam too close to the curve's decay rate for the horizon).
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam must be finite and > 0, got {lam}")
    if not math.isfinite(tail_rate) or lam <= tail_rate:
        raise DomainError(
            f"lam must exceed the tail rate, got lam={lam}, tail_rate={tail_rate}")
    t = curve.times
    body = float(np.trapezoid(np.exp(-lam * t) * curve.values, t))
    tail = float(curve.values[-1] * math.exp(-lam * t[-1]) / (lam - tail_rate))
    total = body + tail
    if abs(tail) > 0.1 * abs(total):
        raise AccuracyError(
            f"tail correction {tail:.2e} exceeds 10% of the integral "
            f"{total:.2e}; extend the curve horizon or raise lam")
    return total
