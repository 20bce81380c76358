"""Complex symbols of the memory equation in the Laplace domain.

For kernel parameters (alpha, beta, mu) the smoothed kernel
a = 1 + 1*kappa has transform ((lam+beta)^mu + alpha) / (lam (lam+beta)^mu),
and the symbols evaluated here are

    g(lam)      = (lam+beta)^mu / ((lam+beta)^mu + alpha)
    h(lam)      = lam * g(lam)                       (= 1 / a_hat)
    h_tilde(lam)= (lam-beta) lam^mu / (lam^mu + alpha)   (= h(lam - beta))

together with the closed-form transform of the scalar resolvent,

    S_hat(lam) = (lam+beta)^mu / ((lam+beta)^{mu+1}
                  - (rho+beta)(lam+beta)^mu - alpha rho).

All powers use the principal branch.  Functions accept complex scalars or
numpy arrays and return matching shapes.  The S_hat form names every
operand of a complex product: numpy computes ``a * (b - c)`` in place in
the temporary ``b - c`` once it reaches 256 KiB, and its in-place complex
product rounds differently, so an unnamed operand would make a large node
array disagree with one row of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "KernelParams",
    "ScalarProblem",
    "symbol_g",
    "symbol_h",
    "symbol_h_tilde",
    "laplace_S_hat",
    "laplace_S_hat_den",
]

_POLE_TOL = 1e-300


@dataclass(frozen=True)
class KernelParams:
    """Memory-kernel triple (alpha, beta, mu).

    alpha = 0 is admitted as a degenerate test mode (no memory, exponential
    baseline); the generation theory itself assumes alpha != 0.
    """

    alpha: float
    beta: float
    mu: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "mu"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")
        if self.beta < 0.0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")
        if not (0.0 < self.mu <= 1.0):
            raise DomainError(f"mu must lie in (0, 1], got {self.mu}")


@dataclass(frozen=True)
class ScalarProblem:
    """Scalar realization: the generator is rho times the identity."""

    params: KernelParams
    rho: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rho):
            raise DomainError(f"rho must be finite, got {self.rho}")


def _as_complex(lam):
    return np.asarray(lam, dtype=np.complex128)


def _maybe_scalar(value, lam):
    return complex(value) if np.ndim(lam) == 0 else value


def _require_right_half_plane(arr, who: str) -> None:
    if np.any(arr.real <= 0.0):
        raise DomainError(f"{who} requires Re(lambda) > 0")


def _guard_pole(den) -> None:
    if np.any(np.abs(den) < _POLE_TOL):
        raise SingularityError("denominator vanishes to working precision")


def symbol_g(params: KernelParams, lam):
    """g(lam) for Re(lam) > 0."""
    z = _as_complex(lam)
    _require_right_half_plane(z, "symbol_g")
    w = (z + params.beta) ** params.mu
    den = w + params.alpha
    _guard_pole(den)
    return _maybe_scalar(w / den, lam)


def symbol_h(params: KernelParams, lam):
    """h(lam) = lam * g(lam) for Re(lam) > 0."""
    z = _as_complex(lam)
    _require_right_half_plane(z, "symbol_h")
    w = (z + params.beta) ** params.mu
    den = w + params.alpha
    _guard_pole(den)
    return _maybe_scalar(z * w / den, lam)


def symbol_h_tilde(params: KernelParams, lam):
    """h(lam - beta) in shifted form, defined off the branch cut for any
    lam != 0 with lam^mu + alpha away from zero."""
    z = _as_complex(lam)
    if np.any(z == 0):
        raise DomainError("symbol_h_tilde requires lambda != 0")
    w = z ** params.mu
    den = w + params.alpha
    _guard_pole(den)
    return _maybe_scalar((z - params.beta) * w / den, lam)


def _S_hat_parts(prob: ScalarProblem, lam):
    """``(w, den)`` with S_hat = w / den: w = (lam+beta)^mu and
    den = w (lam - rho) - alpha rho."""
    z = _as_complex(lam)
    p = prob.params
    w = (z + p.beta) ** p.mu
    shifted = z - prob.rho
    return w, w * shifted - p.alpha * prob.rho


def laplace_S_hat_den(prob: ScalarProblem, lam):
    """Denominator of S_hat; exposed so contour quadrature can check pole
    proximity at its nodes."""
    return _maybe_scalar(_S_hat_parts(prob, lam)[1], lam)


def laplace_S_hat(prob: ScalarProblem, lam):
    """Laplace transform of the scalar resolvent.

    Equals g(lam) / (h(lam) - rho) wherever both sides are defined; the
    direct form used here is analytic off the branch cut
    (-inf, -beta] and the symbol's poles.
    """
    w, den = _S_hat_parts(prob, lam)
    _guard_pole(den)
    return _maybe_scalar(w / den, lam)
