"""Independent ground-truth solver.

The memory equation is equivalent to the second-kind Volterra equation

    u(t) = 1 + rho * int_0^t a(t-s) u(s) ds,

whose kernel a = 1 + 1*kappa is continuous (the convolution smooths the
t^{mu-1} singularity):

    a(t) = 1 + alpha * t^mu / Gamma(mu+1)          (beta = 0)
    a(t) = 1 + alpha * beta^{-mu} * P(mu, beta t)  (beta > 0).

The solver applies the product trapezoidal rule to the convolution with the
kernel evaluated exactly at node differences and an implicit diagonal
weight, so the per-step solve is one scalar division.  The kernel is only
Hoelder-mu at t = 0, which limits the observed order to between 1+mu and 2;
dt <= 0.005 is the budget used for golden comparisons.

One engine serves every caller.  The kernel does not depend on rho, so its
table a(i dt), i = 0..n, is built once per solve in one numpy pass
(:func:`kernel_a` on the array of nodes) and shared by every rho of a batch.
The march then takes one of two loops, chosen by the batch size:

- two or more rows advance together, and the history sums of all rows are
  one ``np.vecdot`` per step, so the call overhead is shared by the rows;
- a batch of one marches on Python floats: one ``np.dot`` per step for the
  history sum and float arithmetic for the update.  That is the batched
  step without its array temporaries; on a 2-CPU host a step costs about
  1.5 us at n = 1,000 and 3.4 us at n = 8,000, against 8-10 us for one row
  in the batched loop.

Batch invariance: each row of that ``vecdot`` and the one-row ``np.dot`` are
the same BLAS ``ddot`` over contiguous memory, and Python floats round as
numpy's elementwise operations do, so a row's values do not depend on the
batch it is marched in, and :func:`solve_volterra` is the batch of one.
A matrix-vector product (``@`` on the batch), ``sum``, ``math.fsum``, a
reciprocal of the denominator and fused forms regroup or reround the
arithmetic and are not used.  The march is causal, so the first n + 1 values
of a 2n-step solve are the n-step solve bit for bit.  A solution that
overflows raises :class:`~memdiff.errors.AccuracyError` instead of returning
``inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, StepSizeError
from .resolvent import Curve, CurveMethod
from .special import reg_lower_inc_gamma
from .symbols import KernelParams, ScalarProblem

__all__ = ["VolterraConfig", "kernel_a", "solve_volterra",
           "solve_volterra_batch", "solve_volterra_on_grid", "volterra_grid"]


@dataclass(frozen=True)
class VolterraConfig:
    """Uniform-grid stepping: horizon = dt * n_steps.

    ``richardson=True`` also solves at dt/2 and attaches the max-norm
    difference on the coarse grid as an error estimate.
    """

    dt: float
    n_steps: int
    richardson: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.dt <= 0.1):
            raise DomainError(
                f"dt must lie in (0, 0.1] for the accuracy claims, got {self.dt}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")


def kernel_a(params: KernelParams, t):
    """Smoothed kernel a(t) = 1 + (1 * kappa)(t); a(0) = 1 and, for beta > 0,
    a(t) -> 1 + alpha / beta^mu as t -> infinity.

    ``t`` may be an array of nodes, which gives the whole table in one pass
    with every element equal to its one-point value bit for bit.  For that,
    the beta = 0 power is a per-element Python power: numpy's need not round
    like libm's.  The function is array-first: a one-point call runs the
    array engine on one element and costs 0.1-0.8 ms.
    """
    ts = np.asarray(t, dtype=float)
    bad = ts[~(np.isfinite(ts) & (ts >= 0.0))]
    if bad.size:
        raise DomainError(f"t must be finite and >= 0, got {float(bad[0])}")
    if params.beta == 0.0:
        powers = np.array([v ** params.mu for v in ts.reshape(-1).tolist()])
        a = 1.0 + params.alpha * powers.reshape(ts.shape) / math.gamma(
            params.mu + 1.0)
    else:
        a = 1.0 + params.alpha * params.beta ** (-params.mu) * reg_lower_inc_gamma(
            params.mu, params.beta * ts)
    a = np.where(ts == 0.0, 1.0, a)
    return float(a) if ts.ndim == 0 else a


def _solve_grid(params: KernelParams, dt: float, n: int, rhos) -> np.ndarray:
    """Rows u_r(i dt), i = 0..n, for every rho_r of ``rhos``: shape
    (len(rhos), n + 1)."""
    rhos = np.asarray(rhos, dtype=float)
    denom = 1.0 - 0.5 * rhos * dt  # a(0) = 1
    if np.any(np.abs(denom) < 1e-12):
        worst = float(np.min(np.abs(denom)))
        raise StepSizeError(
            f"implicit step is degenerate (|1 - rho dt / 2| = {worst:.2e}); "
            "shrink dt")
    rho_dt = rhos * dt
    a = kernel_a(params, np.arange(n + 1) * dt)
    # Contiguous, so each history sum below is one BLAS ddot.
    a_rev = a[::-1].copy()
    u = np.empty((rhos.size, n + 1))
    u[:, 0] = 1.0
    # Overflow is reported once, below, as an AccuracyError.
    with np.errstate(over="ignore", invalid="ignore"):
        if rhos.size == 1:
            _march_row(a, a_rev, float(rho_dt[0]), float(denom[0]), u[0])
        else:
            for i in range(1, n + 1):
                hist = 0.5 * a[i]  # j = 0 endpoint, u(0) = 1
                if i > 1:
                    hist = hist + np.vecdot(a_rev[n - i + 1:n], u[:, 1:i])
                u[:, i] = (1.0 + rho_dt * hist) / denom
    finite = np.isfinite(u)
    if not finite.all():
        # The earliest failing step, the lowest row on a tie.
        i, r = np.argwhere(~finite.T)[0]
        error = AccuracyError(
            f"Volterra solution is not finite for rho={float(rhos[r])!r} "
            f"from t={i * dt:.6g} on")
        error.row = int(r)
        raise error
    return u


def _march_row(a, a_rev, rho_dt: float, denom: float, row) -> None:
    """March one row in place on Python floats: the same ddot and the same
    rounded operations as a row of the batched loop, without its per-step
    array overhead."""
    n = row.size - 1
    dot = np.dot
    half_a = (0.5 * a).tolist()
    row[1] = (1.0 + rho_dt * half_a[1]) / denom
    for i in range(2, n + 1):
        hist = half_a[i] + float(dot(a_rev[n - i + 1:n], row[1:i]))
        row[i] = (1.0 + rho_dt * hist) / denom


def solve_volterra(prob: ScalarProblem, cfg: VolterraConfig) -> Curve:
    """March the product-trapezoidal scheme across the uniform grid."""
    u = _solve_grid(prob.params, cfg.dt, cfg.n_steps, [prob.rho])[0]
    estimate = None
    if cfg.richardson:
        fine = _solve_grid(prob.params, 0.5 * cfg.dt, 2 * cfg.n_steps,
                           [prob.rho])[0]
        estimate = float(np.max(np.abs(fine[::2] - u)))
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return Curve(times, u, CurveMethod.VOLTERRA, prob, error_estimate=estimate)


def solve_volterra_batch(params: KernelParams, rhos,
                         cfg: VolterraConfig) -> np.ndarray:
    """Rows u_r on the grid of ``cfg`` for every rho_r of ``rhos``, shape
    (len(rhos), n_steps + 1), from one kernel table.

    Row r equals ``solve_volterra(ScalarProblem(params, rhos[r]), cfg)``
    bit for bit; ``cfg.richardson`` is not applied.  A solution that is not
    finite raises :class:`~memdiff.errors.AccuracyError` for the row that
    fails at the earliest step (the lowest such row on a tie), and its
    ``row`` attribute is that row's index.
    """
    return _solve_grid(params, cfg.dt, cfg.n_steps, rhos)


def volterra_grid(grid, dt: float | None = None) -> tuple[VolterraConfig, int]:
    """Stepping whose nodes include every node of ``grid``.

    ``grid`` must be uniform and start at 0; uniform means equal cells up to
    the rounding of the nodes themselves.  Returns ``(cfg, per_cell)`` with
    grid node j at step j * per_cell.  Without ``dt`` the grid is itself the
    stepping grid; with it, each cell is split into the fewest equal steps
    no longer than ``dt`` (to 1e-9 relative).
    """
    grid = np.asarray(grid, dtype=float)
    cells = np.diff(grid)
    if grid.size < 2 or grid[0] != 0.0 or not np.allclose(
            cells, cells[0], rtol=1e-12,
            atol=4.0 * np.finfo(float).eps * abs(grid[-1])):
        raise DomainError("the Volterra route needs a uniform grid starting at 0")
    spacing = float(cells[0])
    per_cell = 1 if dt is None else max(1, math.ceil(spacing / dt - 1e-9))
    n_steps = per_cell * (grid.size - 1)
    # With one step per cell the step is the spacing itself; on a
    # numpy.linspace grid that equals grid[-1] / n_steps bit for bit.
    step = spacing if per_cell == 1 else float(grid[-1]) / n_steps
    return VolterraConfig(step, n_steps), per_cell


def solve_volterra_on_grid(prob: ScalarProblem, grid, dt: float) -> Curve:
    """S at the nodes of a uniform ``grid`` from 0, stepping at most ``dt``."""
    cfg, per_cell = volterra_grid(grid, dt)
    curve = solve_volterra(prob, cfg)
    return Curve(grid, curve.values[::per_cell], CurveMethod.VOLTERRA, prob)
