"""Agree or raise: each route returns a value within its stated accuracy of
an independent reference, or raises a typed error.

The series leg draws problems over the north star's edge domain and checks
every time of ``_series_grid``, the engine of ``series_S``,
``series_curve`` and verify's series leg, against the benchmark's mpmath
references: ``certified`` in ``bench/reference.py``, a fixed Talbot rule
summed at 30 and at 24 digits and kept only where the two agree to 1e-12.
That file is loaded by path, and nothing under ``bench/`` is changed.

The contour leg holds the contour route's known silent faults, each against
a referee already in the repo.  Each is a strict xfail until the route
raises a typed error there or returns the right value.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memdiff import (ConvergenceError, MemdiffError, invert_S_curve,
                     mu1_closed_form, series_curve)
from memdiff.resolvent import _series_grid
from conftest import problem

_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"

# The series' absolute accuracy: its cancellation guard passes only values
# whose estimated error, calibrated about 9x above the worst true error,
# keeps them within this of S.
SERIES_CONTRACT = 2.5e-9
# The contour's absolute accuracy, the bound of its imaginary-residue check.
CONTOUR_CONTRACT = 1e-8


@functools.cache
def _certified():
    """``certified`` of ``bench/reference.py``.  Loading it puts ``bench/``
    on ``sys.path`` to import its workloads; the entry is taken off again."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("memdiff_bench_reference",
                                                  _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module.certified


@st.composite
def edge_problems(draw, negative_alpha: bool):
    """(problem, grid): mu in [0.05, 1], beta in {0, 0.5, 2}, rho in [-16,
    -0.5] and 10 times from 0 to tmax in [0.5, 8]; alpha in [0.1, 2], or an
    admissible alpha = -(0.1 to 0.45) beta^mu, which needs beta > 0."""
    mu = draw(st.floats(0.05, 1.0))
    if negative_alpha:
        beta = draw(st.sampled_from([0.5, 2.0]))
        alpha = -draw(st.floats(0.1, 0.45)) * beta ** mu
    else:
        beta = draw(st.sampled_from([0.0, 0.5, 2.0]))
        alpha = draw(st.floats(0.1, 2.0))
    rho = -draw(st.floats(0.5, 16.0))
    tmax = draw(st.floats(0.5, 8.0))
    return problem(alpha, beta, mu, rho), np.linspace(0.0, tmax, 10)


def check_series(prob, grid):
    """Every time of the grid engine is within SERIES_CONTRACT of the
    reference where that is certified, or fails with ConvergenceError."""
    values, failures = _series_grid(prob, grid)
    p = prob.params
    reference = _certified()(p.alpha, p.beta, p.mu, [prob.rho],
                             grid.tolist())[0]
    for i, (value, ref) in enumerate(zip(values.tolist(), reference)):
        if i in failures:
            assert isinstance(failures[i], ConvergenceError)
            assert np.isnan(value)
        elif ref is not None:
            assert abs(value - ref) <= SERIES_CONTRACT, (grid[i], value, ref)


class TestSeriesContract:
    @settings(max_examples=40, deadline=None)
    @given(edge_problems(negative_alpha=False))
    def test_positive_alpha(self, case):
        check_series(*case)

    @settings(max_examples=20, deadline=None)
    @given(edge_problems(negative_alpha=True))
    def test_admissible_negative_alpha(self, case):
        check_series(*case)


def certified_values(prob, grid):
    p = prob.params
    return _certified()(p.alpha, p.beta, p.mu, [prob.rho], grid.tolist())[0]


def mu1_values(prob, grid):
    return [mu1_closed_form(prob, t) for t in grid.tolist()]


def series_values(prob, grid):
    return series_curve(prob, grid).values.tolist()


def check_contour(prob, grid, referee, atol, rtol):
    """Every time of ``invert_S_curve`` lies within atol + rtol |ref| of the
    referee where it gives a value, or the route raises a MemdiffError."""
    try:
        values = invert_S_curve(prob, grid).values
    except MemdiffError:
        return
    for t, value, ref in zip(grid.tolist(), values.tolist(),
                             referee(prob, grid)):
        if ref is not None:
            assert abs(value - ref) <= atol + rtol * abs(ref), (t, value, ref)


def _fault(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


class TestContourKnownFaults:
    @_fault("FOUND 2 in CHANGES.md: stiff modes print about 1e221")
    def test_stiff_mode(self):
        # the referee: -8.47e-4, -3.26e-4 and -9.05e-5 at t = 0.5, 1 and 2
        check_contour(problem(1.0, 0.5, 0.5, -256.0), np.linspace(0.0, 2.0, 5),
                      certified_values, CONTOUR_CONTRACT, 0.0)

    @_fault("ROADMAP Baseline, known faults: the weak pair prints 0.2162 at "
            "t = 2 and -4.1e-9 at t = 3")
    def test_weak_pair(self):
        # the referee: 0.14186 and 0.03722 at t = 2 and 3
        check_contour(problem(100.0, 0.0, 1.0, -1.0), np.linspace(0.0, 5.0, 6),
                      mu1_values, CONTOUR_CONTRACT, 0.0)

    @_fault("ROADMAP Baseline, known faults: the growing mode prints 6402 at "
            "t = 2 and 0.0072 at t = 3")
    def test_growing_mode(self):
        # the referee: 8.706e5 and 8.665e8 at t = 2 and 3.  The series' own
        # guard allows 1e-7 relative, so the bound is relative.
        check_contour(problem(1.0, 0.0, 0.5, 5.0), np.linspace(0.0, 5.0, 6),
                      series_values, 0.0, 1e-6)
