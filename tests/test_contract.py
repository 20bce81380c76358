"""Agree or raise: each route returns a value within its stated accuracy of
an independent reference, or raises a typed error.

The series leg draws problems over the north star's edge domain and checks
every time of ``_series_grid``, the engine of ``series_S``,
``series_curve`` and verify's series leg, against the benchmark's mpmath
references: ``certified`` in ``bench/reference.py``, a fixed Talbot rule
summed at 30 and at 24 digits and kept only where the two agree to 1e-12.
That file is loaded by path, and nothing under ``bench/`` is changed.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from memdiff import ConvergenceError
from memdiff.resolvent import _series_grid
from conftest import problem

_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"

# The series' absolute accuracy: its cancellation guard passes only values
# whose estimated error, calibrated about 9x above the worst true error,
# keeps them within this of S.
SERIES_CONTRACT = 2.5e-9


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
