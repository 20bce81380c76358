"""Numerical inverse Laplace transform on a cotangent-deformed contour.

The Bromwich integral is deformed onto the Talbot-type contour

    lam(theta) = (r / t) * theta * (cot(theta) + i),   theta in (-pi, pi),

discretized by the midpoint rule; the integrand decays double-exponentially
towards theta = +-pi, so the rule converges geometrically in the node count.
The contour radius balances discretization against the e^r roundoff
amplification:

    r = max(floor, min(n_nodes / 5, 16)).

``n_nodes`` is an even integer in [16, 256] (64 by default); accuracy
saturates around 1e-10 past ~96 nodes.  Every public call refuses any
other count with :class:`DomainError` before it computes a radius.

The floor only matters when poles demand a wider contour than accuracy
alone would pick.  For the scalar resolvent it is ``_default_scale``,
max(1, 2(|rho| + beta)), which keeps the symbol's poles and its branch cut
(-inf, -beta] strictly inside; for a generic transform it is the
``contour_scale`` argument of ``invert_transform``.  Because the
parametrization is symmetric and the transforms are real-symmetric, the
imaginary part of the quadrature sum is pure noise; its magnitude is the
trust diagnostic.

``invert_transform`` is the one quadrature routine: it calls its transform
once, array in and array out, on all contour nodes.  A vector of T times
gives a (T, N) node array, one C-contiguous row per time, and each row sums
exactly as a one-time call does, so a curve is one quadrature (``_contour``
also takes one radius per row).  ``invert_S_curve`` applies it to S_hat on
the whole grid behind a per-row guard that raises :class:`ContourError`
when a node lies on a pole of the denominator; ``invert_S`` is its batch of
one.  Of the rows that fail the guard or the residue check, the first in
time order raises, and S_hat is evaluated only on the rows before the first
guarded one.

The forward transform is plain trapezoidal quadrature of e^{-lam t} times a
sampled curve plus an analytic exponential-tail correction.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AccuracyError, ContourError, DomainError
from .resolvent import Curve, CurveMethod, _validate_grid
from .special import _is_int
from .symbols import ScalarProblem, laplace_S_hat, laplace_S_hat_den

__all__ = [
    "invert_transform",
    "invert_S",
    "invert_S_curve",
    "forward_transform",
]

IM_RESIDUE_TOL = 1e-8
_NODE_POLE_TOL = 1e-10


def _check_nodes(n_nodes) -> None:
    if not _is_int(n_nodes) or not 16 <= n_nodes <= 256 or n_nodes % 2:
        raise DomainError(
            f"n_nodes must be even and in [16, 256], got {n_nodes}")


def _contour(t: np.ndarray, n_nodes: int, radius):
    """Nodes and weights of the rule at each time of ``t``: shape (N,) for a
    scalar t, (T, N) for a vector, one C-contiguous row per time.
    ``radius`` is a scalar or one value per time."""
    h = 2.0 * np.pi / n_nodes
    theta = -np.pi + (np.arange(n_nodes) + 0.5) * h
    cot = 1.0 / np.tan(theta)
    scale = (np.asarray(radius, dtype=float) / t)[..., None]
    lam = scale * theta * (cot + 1j)
    dlam = scale * (cot - theta / np.sin(theta) ** 2 + 1j)
    return lam, h * dlam / (2j * np.pi)


def invert_transform(transform: Callable[[np.ndarray], np.ndarray], t,
                     n_nodes: int = 64, contour_scale: float = 1.0):
    """Invert an arbitrary scalar transform at a time t > 0, or at every time
    of a vector of times.

    ``transform`` is called once, on the complex array of contour nodes (one
    row per time for a vector), and returns the array of its values there.
    Returns ``(value, im_residue)``, as floats for a scalar t and as arrays
    for a vector; a result is trustworthy only when its residue is small
    (< 1e-8 for the resolvent wrappers).  ``contour_scale`` floors the
    contour radius and must be finite.
    """
    _check_nodes(n_nodes)
    times = np.asarray(t, dtype=float)
    bad = times[~(np.isfinite(times) & (times > 0.0))]
    if bad.size:
        raise DomainError(f"inversion requires t > 0, got {float(bad[0])}")
    if not math.isfinite(contour_scale):
        raise DomainError(f"contour_scale must be finite, got {contour_scale}")
    radius = max(contour_scale, min(n_nodes / 5.0, 16.0))
    # A contour, transform or sum that overflows (t near 0, say) is reported
    # through the sum's non-finite value.
    with np.errstate(all="ignore"):
        lam, weights = _contour(times, n_nodes, radius)
        vals = np.asarray(transform(lam), dtype=np.complex128)
        total = np.sum(np.exp(lam * times[..., None]) * vals * weights, axis=-1)
    if times.ndim == 0:
        return float(total.real), float(abs(total.imag))
    return total.real, np.abs(total.imag)


def _default_scale(prob: ScalarProblem) -> float:
    scale = max(1.0, 2.0 * (abs(prob.rho) + prob.params.beta))
    if not math.isfinite(scale):  # every node would be infinite
        raise AccuracyError(
            f"the contour radius 2(|rho| + beta) is not a finite float for "
            f"rho={prob.rho}, beta={prob.params.beta}")
    return scale


def _invert_S_grid(prob: ScalarProblem, times: np.ndarray,
                   n_nodes: int) -> np.ndarray:
    """S at every time of ``times`` (all > 0) by one contour quadrature over
    the (T, N) node array, raising the error of the first failing time.

    A time fails when a node lies within _NODE_POLE_TOL of a pole of the
    denominator (:class:`ContourError`), or when its value is not finite or
    its imaginary residue is not below IM_RESIDUE_TOL (:class:`AccuracyError`).
    S_hat is evaluated only on the rows before the first guarded one, so no
    later time can raise first.
    """
    guarded = len(times)

    def s_hat(lam: np.ndarray) -> np.ndarray:
        nonlocal guarded
        near = np.abs(laplace_S_hat_den(prob, lam)) < _NODE_POLE_TOL
        rows = np.flatnonzero(near.any(axis=-1))
        if rows.size:
            guarded = int(rows[0])
        vals = np.full(lam.shape, np.nan, dtype=np.complex128)
        if guarded:
            vals[:guarded] = laplace_S_hat(prob, lam[:guarded])
        return vals

    values, residues = invert_transform(s_hat, times, n_nodes,
                                         _default_scale(prob))
    for i in range(guarded):
        if not math.isfinite(values[i]):
            raise AccuracyError(
                f"contour sum is not finite at t={times[i]}; the inversion "
                "is not trustworthy")
        if not residues[i] < IM_RESIDUE_TOL:  # NaN fails too
            raise AccuracyError(
                f"imaginary residue {residues[i]:.2e} at t={times[i]} exceeds "
                f"{IM_RESIDUE_TOL}; the inversion is not trustworthy")
    if guarded < len(times):
        raise ContourError(
            f"contour node within {_NODE_POLE_TOL} of a pole at "
            f"t={times[guarded]}")
    return values


def invert_S(prob: ScalarProblem, t: float, n_nodes: int = 64) -> float:
    """S(t) by contour quadrature of its closed-form transform (t > 0): the
    grid engine on the one-point grid [t]."""
    _check_nodes(n_nodes)
    return float(_invert_S_grid(prob, np.array([t], dtype=float), n_nodes)[0])


def invert_S_curve(prob: ScalarProblem, times, n_nodes: int = 64) -> Curve:
    """Sample S on a grid starting at t = 0; the t = 0 value is the known
    S(0) = 1 (the contour rule itself is undefined there).  One quadrature
    serves every t > 0, and each value equals :func:`invert_S` at its time
    bit for bit."""
    _check_nodes(n_nodes)
    grid = _validate_grid(times)
    values = np.empty(grid.size)
    values[0] = 1.0
    values[1:] = _invert_S_grid(prob, grid[1:], n_nodes)
    return Curve(grid, values, CurveMethod.LAPLACE, prob)


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
