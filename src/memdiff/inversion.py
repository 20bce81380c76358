"""Numerical inverse Laplace transform on a cotangent-deformed contour.

The Bromwich integral is deformed onto the Talbot-type contour

    lam(theta) = (r / t) * theta * (cot(theta) + i),   theta in (-pi, pi),

discretized by the midpoint rule; the integrand decays double-exponentially
towards theta = +-pi, so the rule converges geometrically in the node count.
The contour radius balances discretization against the e^r roundoff
amplification:

    r = max(floor, min(n_nodes / 5, 16)).

The resolvent route runs at one node count, 64 (radius 12.8 unless the
floor is larger), and no public call or CLI flag changes it: there
discretization and round-off balance (Weideman & Trefethen, Math. Comp.
76, 2007).  Over the 24 golden problems at 31 times each, the largest gap
from the series is 7.2e-4 at 16 nodes, 7.0e-7 at 24 and 4.6e-9 at 32; at
every multiple of 8 from 40 to 256 it lies between 5.2e-10 and 1.4e-9,
the series' own error, so more nodes buy nothing that shows, while fewer
return wrong values that pass the residue check.  ``invert_transform``
takes ``n_nodes``, an even integer in [16, 256] (64 by default), and
refuses any other count with :class:`DomainError` before it computes a
radius.

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
the whole grid behind a per-row guard that raises :class:`AccuracyError`
when a node lies on a pole of the denominator; ``invert_S`` is its batch of
one.  One ``_S_hat_parts`` call on every node, which never raises, feeds
the guard and the values; then the first row in time order that fails the
guard or the residue check raises.  ``laplace_S_hat``'s 1e-300 pole check
does not run here: the 1e-10 node guard catches every row it would.

The forward transform is plain trapezoidal quadrature of e^{-lam t} times a
sampled curve plus an analytic exponential-tail correction.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError
from .resolvent import Curve, CurveMethod, _validate_grid
from .special import _is_int
# Nothing here calls laplace_S_hat or laplace_S_hat_den; the benchmark's
# tracer hooks them in this module, so they stay bound.
from .symbols import (ScalarProblem, _S_hat_parts, laplace_S_hat,  # noqa: F401
                      laplace_S_hat_den)

__all__ = [
    "invert_transform",
    "invert_S",
    "invert_S_curve",
    "forward_transform",
]

IM_RESIDUE_TOL = 1e-8
_NODE_POLE_TOL = 1e-10


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
    if not _is_int(n_nodes) or not 16 <= n_nodes <= 256 or n_nodes % 2:
        raise DomainError(
            f"n_nodes must be even and in [16, 256], got {n_nodes}")
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


def _invert_S_grid(prob: ScalarProblem, times: np.ndarray) -> np.ndarray:
    """S at every time of ``times`` (all > 0) by one contour quadrature over
    the (T, 64) node array, raising the error of the first failing time.

    A time fails, with :class:`AccuracyError`, when a node lies within
    _NODE_POLE_TOL of a pole of the denominator, or when its value is not
    finite or its imaginary residue is not below IM_RESIDUE_TOL.  One
    ``_S_hat_parts`` call gives the denominator and the values on every
    row; it never raises, so the rows are checked in time order after the
    sum.  ``laplace_S_hat``'s 1e-300 pole check does not run here: any row
    it would catch fails the node guard first.
    """
    near = []

    def s_hat(lam: np.ndarray) -> np.ndarray:
        w, den = _S_hat_parts(prob, lam)
        near.append((np.abs(den) < _NODE_POLE_TOL).any(axis=-1))
        return w / den

    values, residues = invert_transform(s_hat, times,
                                         contour_scale=_default_scale(prob))
    for i, guarded in enumerate(near[0]):
        if guarded:
            raise AccuracyError(
                f"contour node within {_NODE_POLE_TOL} of a pole at "
                f"t={times[i]}")
        if not math.isfinite(values[i]):
            raise AccuracyError(
                f"contour sum is not finite at t={times[i]}; the inversion "
                "is not trustworthy")
        if not residues[i] < IM_RESIDUE_TOL:  # NaN fails too
            raise AccuracyError(
                f"imaginary residue {residues[i]:.2e} at t={times[i]} exceeds "
                f"{IM_RESIDUE_TOL}; the inversion is not trustworthy")
    return values


def invert_S(prob: ScalarProblem, t: float) -> float:
    """S(t) by contour quadrature of its closed-form transform (t > 0): the
    grid engine on the one-point grid [t]."""
    return float(_invert_S_grid(prob, np.array([t], dtype=float))[0])


def invert_S_curve(prob: ScalarProblem, times) -> Curve:
    """Sample S on a grid starting at t = 0; the t = 0 value is the known
    S(0) = 1 (the contour rule itself is undefined there).  One quadrature
    serves every t > 0, and each value equals :func:`invert_S` at its time
    bit for bit."""
    grid = _validate_grid(times)
    values = np.empty(grid.size)
    values[0] = 1.0
    values[1:] = _invert_S_grid(prob, grid[1:])
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
