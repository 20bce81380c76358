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

:func:`solve_volterra` returns the solution at the nodes of a uniform grid
from 0.  It steps on the grid itself or, given ``dt``, on its cells split
into the fewest equal steps no longer than ``dt``.  The stepping is made by
``_stepping``, which is also the one check of every size of a march: the
step count (at most ``_MAX_STEPS``), the step (in (0, 0.1]) and the batch
table (at most ``_MAX_TABLE`` floats), each refused before anything of that
size is built.  :func:`~memdiff.spectral.operator_norm_curve` calls it for
its batch of modes, and :func:`~memdiff.stability.verify_problem` before
any of its routes runs.

One engine, ``_solve_grid``, marches a batch of rhos on one stepping.  The
kernel does not depend on rho, so its table a(i dt), i = 0..n, is built
once per solve in one numpy pass (:func:`kernel_a` on the array of nodes)
and shared by every rho of a batch.  For beta > 0 that pass is one call of
:func:`~memdiff.special.reg_lower_inc_gamma` on x = beta t: one front
factor over every x > 0, then the series below x = mu + 1 and the
continued fraction from there on.  The fraction has no tiny-denominator
guards, because its inputs cannot reach them (the proof is in
``special._inc_gamma_fraction``).  The march then takes one of two loops,
chosen by the batch size:

- two or more rows advance together, and the history sums of all rows are
  one ``np.vecdot`` per step, so the call overhead is shared by the rows;
  the update runs in place in one preallocated buffer, with no temporary
  array per step;
- a batch of one marches on Python floats: one ``ndarray.dot`` per step for
  the history sum and float arithmetic for the update.  That is the batched
  step without its array temporaries.  ``ndarray.dot`` is the ``ddot`` that
  ``np.dot`` calls, without its ``__array_function__`` dispatch: 0.2-0.5 us
  less per call, timed alone.

On a 2-CPU host (best of five runs; the host's speed varied about 2x
between runs), a step costs about 1.1 us for one row at n = 1,000 and
2.0 us at n = 8,000; a step of the batched loop costs 3.9 us for two rows
and 5.8 us for 16 at n = 1,000.

Batch invariance: each row of that ``vecdot`` and the one-row ``dot`` are
the same BLAS ``ddot`` over contiguous memory, and Python floats round as
numpy's elementwise operations do, so a row's values do not depend on the
batch it is marched in, and :func:`solve_volterra` is the batch of one.
The in-place update applies the same IEEE operations as
``(1 + rho dt (a_i / 2 + dot)) / denom``, only with the operands of ``+``
and ``*`` swapped, which does not change their rounding.
No BLAS call takes more than ``_DOT_CHUNK`` = 10,000 elements: OpenBLAS
splits a longer ``ddot`` across its threads, and the rounding would then
depend on their number (``OPENBLAS_NUM_THREADS``).  A longer history sum is
the in-order sum of dots over chunks of at most 10,000 elements, from the
oldest, by one helper (``_chunked_dot``) for both loops, so a march of at
most 10,001 steps takes one dot per step and keeps its bits, and a longer
one does not depend on the thread count or on its batch.
A matrix-vector product (``@`` on the batch), ``sum``, ``math.fsum``, a
reciprocal of the denominator and fused forms regroup or reround the
arithmetic and are not used.  The march is causal, so at one step the
first n + 1 values of a 2n-step solve are the n-step solve bit for bit.  A
solution that overflows raises :class:`~memdiff.errors.AccuracyError`
instead of returning ``inf``.  A step whose implicit factor 1 - rho dt / 2
is not above 1e-12 raises :class:`~memdiff.errors.StepSizeError`: where it
is negative (rho dt / 2 > 1) the march cannot follow a growing row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError, StepSizeError
from .resolvent import Curve, CurveMethod, _validate_grid
from .special import reg_lower_inc_gamma
from .symbols import KernelParams, ScalarProblem

__all__ = ["kernel_a", "solve_volterra"]


# Most steps one solve may take: the history march costs O(n_steps^2)
# operations, about 5e11 multiply-adds at this bound.
_MAX_STEPS = 10**6
# Most floats one batch's table of rows may hold: 16 rows at the step bound,
# 128 MB.
_MAX_TABLE = 16 * (_MAX_STEPS + 1)
# Longest dot one BLAS call takes (see the module docstring).
_DOT_CHUNK = 10_000


def kernel_a(params: KernelParams, t):
    """Smoothed kernel a(t) = 1 + (1 * kappa)(t); a(0) = 1 and, for beta > 0,
    a(t) -> 1 + alpha / beta^mu as t -> infinity.  a(0) is exactly 1.0 in
    both branches, since 0^mu = 0 and P(mu, 0) = 0.

    ``t`` may be an array of nodes, which gives the whole table in one pass
    with every element equal to its one-point value bit for bit.  For that,
    the beta = 0 power is a per-element Python power: numpy's need not round
    like libm's.  The function is array-first: a one-point call runs the
    array engine on one element and costs 0.01-0.6 ms.

    A kernel that leaves the float range raises :class:`DomainError`: for
    beta > 0, a factor beta^-mu or alpha*beta^-mu that is not a finite float;
    for beta = 0, a table value alpha t^mu / Gamma(mu+1) that is not one,
    named at its first such t.  A finite table keeps its bits.
    """
    ts = np.asarray(t, dtype=float)
    bad = ts[~(np.isfinite(ts) & (ts >= 0.0))]
    if bad.size:
        raise DomainError(f"t must be finite and >= 0, got {float(bad[0])}")
    if params.beta == 0.0:
        powers = np.array([v ** params.mu for v in ts.reshape(-1).tolist()])
        with np.errstate(over="ignore"):
            table = params.alpha * powers.reshape(ts.shape) / math.gamma(
                params.mu + 1.0)
        bad = ts[~np.isfinite(table)]
        if bad.size:
            raise DomainError(
                f"the kernel's table value alpha t^mu / Gamma(mu+1) is not a "
                f"finite float at t={float(bad[0])} for alpha={params.alpha}, "
                f"mu={params.mu}")
        a = 1.0 + table
    else:
        try:
            scale = params.beta ** (-params.mu)
        except OverflowError:
            raise DomainError(
                f"the kernel's factor beta^-mu is not a finite float for "
                f"beta={params.beta}, mu={params.mu}") from None
        factor = params.alpha * scale
        if not math.isfinite(factor):
            raise DomainError(
                f"the kernel's factor alpha*beta^-mu is not a finite float "
                f"for alpha={params.alpha}, beta={params.beta}, "
                f"mu={params.mu}")
        # A beta t past the float range takes the largest float, where P is
        # already its exact limit 1.
        with np.errstate(over="ignore"):
            x = np.minimum(params.beta * ts, np.finfo(float).max)
        a = 1.0 + factor * reg_lower_inc_gamma(params.mu, x)
    return float(a) if ts.ndim == 0 else a


def _solve_grid(params: KernelParams, dt: float, n: int, rhos) -> np.ndarray:
    """Rows u_r(i dt), i = 0..n, for every rho_r of ``rhos``: shape
    (len(rhos), n + 1).  A row that is not finite raises
    :class:`AccuracyError` for the row that fails at the earliest step (the
    lowest such row on a tie), with that row's index as its ``row``."""
    rhos = np.asarray(rhos, dtype=float)
    denom = 1.0 - 0.5 * rhos * dt  # a(0) = 1
    # A factor <= 0 cannot follow a growing row: each step divides by it.
    if np.any(denom <= 1e-12):
        r = int(np.argmin(denom))
        raise StepSizeError(
            f"implicit step factor 1 - rho dt / 2 = {float(denom[r]):.3g} is "
            f"not > 1e-12 at rho={float(rhos[r])}, dt={dt}; shrink dt")
    rho_dt = rhos * dt
    a = kernel_a(params, np.arange(n + 1) * dt)
    # Contiguous, so each history sum below is one BLAS ddot.
    a_rev = a[::-1].copy()
    # j = 0 endpoint of every history sum, u(0) = 1
    half_a = (0.5 * a).tolist()
    u = np.empty((rhos.size, n + 1))
    u[:, 0] = 1.0
    # Overflow is reported once, below, as an AccuracyError.
    with np.errstate(over="ignore", invalid="ignore"):
        if rhos.size == 1:
            _march_row(a_rev, half_a, float(rho_dt[0]), float(denom[0]), u[0])
        else:
            hist = np.empty(rhos.size)
            one_dot = _DOT_CHUNK + 1  # the last step whose history is one dot
            for i in range(1, n + 1):
                # (1 + rho dt (a_i / 2 + dot)) / denom, in place
                if i <= one_dot:
                    np.vecdot(a_rev[n - i + 1:n], u[:, 1:i], out=hist)
                else:
                    hist[:] = _chunked_dot(a_rev[n - i + 1:n], u[:, 1:i])
                hist += half_a[i]
                hist *= rho_dt
                hist += 1.0
                np.divide(hist, denom, out=u[:, i])
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


def _march_row(a_rev, half_a: list, rho_dt: float, denom: float,
               row) -> None:
    """March one row in place from step 1 on Python floats: the same ddot
    and the same rounded operations as a row of the batched loop, without
    its per-step array overhead (step 1's empty history dot is 0.0)."""
    n = row.size - 1
    for i in range(1, min(n, _DOT_CHUNK + 1) + 1):
        hist = half_a[i] + float(a_rev[n - i + 1:n].dot(row[1:i]))
        row[i] = (1.0 + rho_dt * hist) / denom
    for i in range(_DOT_CHUNK + 2, n + 1):
        dot = float(_chunked_dot(a_rev[n - i + 1:n], row[1:i]))
        row[i] = (1.0 + rho_dt * (half_a[i] + dot)) / denom


def _chunked_dot(a, u):
    """``np.vecdot(a, u)`` for one row or a batch ``u``, as the in-order sum
    of dots over chunks of at most ``_DOT_CHUNK`` elements, oldest first."""
    total = 0.0
    for lo in range(0, a.size, _DOT_CHUNK):
        hi = lo + _DOT_CHUNK
        total = total + np.vecdot(a[lo:hi], u[..., lo:hi])
    return total


def _stepping(grid, dt: float | None,
              rows: int) -> tuple[np.ndarray, float, int, int]:
    """``(grid, step, n_steps, per_cell)`` for a batch of ``rows`` rows on a
    uniform ``grid`` from 0 (equal cells up to the rounding of the nodes),
    grid node j at step j * per_cell.  Without ``dt`` the grid is its own
    stepping; with it, each cell is split into the fewest equal steps no
    longer than ``dt`` (to 1e-9 relative), which must be finite and > 0.

    Every size of a march is checked here, before anything of that size is
    built, in this order after the grid, ``dt`` and uniformity: at most
    ``_MAX_STEPS`` steps (the refusal names ``dt``, or the grid spacing
    without it), a step in (0, 0.1], and at most ``_MAX_TABLE`` floats in
    the rows.
    """
    grid = _validate_grid(grid)
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    cells = np.diff(grid)
    if grid.size < 2 or not np.allclose(
            cells, cells[0], rtol=1e-12,
            atol=4.0 * np.finfo(float).eps * grid[-1]):
        raise DomainError("the Volterra route needs a uniform grid starting at 0")
    spacing = float(cells[0])
    dt = spacing if dt is None else dt
    # Capped before math.ceil, which fails on an infinite ratio; a capped
    # count is past the bound.
    per_cell = max(1, math.ceil(min(spacing / dt, _MAX_STEPS + 1) - 1e-9))
    n_steps = per_cell * (grid.size - 1)
    if n_steps > _MAX_STEPS:
        raise DomainError(f"dt = {dt} needs more than {_MAX_STEPS} steps to "
                          f"reach t = {float(grid[-1])}")
    # With one step per cell the step is the spacing itself; on a
    # numpy.linspace grid that equals grid[-1] / n_steps bit for bit.
    step = spacing if per_cell == 1 else float(grid[-1]) / n_steps
    if not (0.0 < step <= 0.1):
        raise DomainError(
            f"dt must lie in (0, 0.1] for the accuracy claims, got {step}")
    if rows * (n_steps + 1) > _MAX_TABLE:
        raise DomainError(
            f"{rows} rows of {n_steps + 1} nodes exceed the batch bound of "
            f"{_MAX_TABLE} floats")
    return grid, step, n_steps, per_cell


def solve_volterra(prob: ScalarProblem, grid, dt: float | None = None,
                   richardson: bool = False) -> Curve:
    """S at the nodes of a uniform ``grid`` from 0, by the
    product-trapezoidal march on the grid itself or, with ``dt``, on the grid
    with each cell split into the fewest equal steps no longer than ``dt``.

    ``richardson=True`` also solves at half the step and attaches the
    max-norm difference over the stepping nodes as an error estimate; it is
    refused when that solve would pass the step bound.
    """
    grid, step, n, per_cell = _stepping(grid, dt, 1)
    if richardson and 2 * n > _MAX_STEPS:
        raise DomainError(
            f"richardson needs {2 * n} steps at dt/2, more than {_MAX_STEPS}")
    u = _solve_grid(prob.params, step, n, [prob.rho])[0]
    estimate = None
    if richardson:
        fine = _solve_grid(prob.params, 0.5 * step, 2 * n, [prob.rho])[0]
        estimate = float(np.max(np.abs(fine[::2] - u)))
    return Curve(grid, u[::per_cell], CurveMethod.VOLTERRA, prob,
                 error_estimate=estimate)

