import numpy as np
import pytest
from hypothesis import assume, strategies as st

from memdiff import KernelParams, ScalarProblem, resolvent, special

# Indices k from 2**53 on, where k + n + 1.0 in the Mittag-Leffler
# coefficient walk is no longer exact.
HUGE_K = (2 ** 53, 2 ** 62, 2 ** 63 - 1, 2 ** 64, 10 ** 30)


def problem(alpha, beta, mu, rho) -> ScalarProblem:
    return ScalarProblem(KernelParams(alpha, beta, mu), rho)


@pytest.fixture
def double_root_problem():
    # (rho + beta)^2 + 4 alpha rho = 4 - 4 = 0: repeated pole
    return problem(1.0, 3.0, 1.0, -1.0)


@pytest.fixture
def two_root_problem():
    # discriminant 1 - 3/4 = 1/4: poles at -1/4 and -3/4
    return problem(3.0 / 16.0, 0.0, 1.0, -1.0)


@pytest.fixture
def complex_pair_problem():
    # discriminant 1 - 8 = -7
    return problem(1.0, 1.0, 1.0, -2.0)


def sup_deviation(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def one_pair(mu: float, k: int, z: float, max_terms: int):
    """``special._prabhakar_scaled`` at a term budget of ``max_terms``: the
    pairs engine on the one pair (k, z), raising its error."""
    values, ests, n_terms, failures = special._prabhakar_pairs(
        mu, np.array([k]), np.array([z], dtype=float), max_terms)
    if failures:
        raise failures[0]
    return float(values[0]), float(ests[0]), int(n_terms[0])


@pytest.fixture
def pair_calls(monkeypatch):
    """The (ks, zs) of every call the series grid engine makes to the inner
    engine ``_prabhakar_pairs``, in order, each recorded before it runs."""
    calls = []
    pairs = resolvent._prabhakar_pairs

    def recording_pairs(mu, ks, zs, *policy):
        calls.append((ks, zs))
        return pairs(mu, ks, zs, *policy)

    monkeypatch.setattr(resolvent, "_prabhakar_pairs", recording_pairs)
    return calls


def error_record(exc):
    """What must match between two errors: type, message and, for a
    ConvergenceError, reason, terms and the last term's bits."""
    last = getattr(exc, "last_term", None)
    return (type(exc), str(exc), getattr(exc, "reason", None),
            getattr(exc, "n_terms", None),
            None if last is None else float.hex(float(last)))


@st.composite
def curve_sweep_cases(draw, max_points: int = 8):
    """(problem, grid) inside the curve-sweep benchmark's region: rho in
    [-6, -0.5], |rho + beta| tmax in [2, 6], |alpha rho|^{1/(mu+1)} tmax <= 6,
    tmax <= 10, one draw in five with an admissible negative alpha; the grid
    starts at 0 and holds up to ``max_points`` times, none below tmax / 1000."""
    mu = draw(st.floats(0.2, 1.0))
    span = draw(st.floats(2.0, 6.0))
    rho = -draw(st.floats(0.5, 6.0))
    if draw(st.integers(0, 4)) == 0:
        beta = draw(st.floats(0.5, 2.0))
        alpha = -draw(st.floats(0.1, 0.45)) * beta ** mu
    else:
        beta = draw(st.sampled_from([0.0, None]))
        if beta is None:
            beta = draw(st.floats(0.1, 2.0))
        alpha = draw(st.floats(0.1, 2.0))
    assume(abs(rho + beta) > 0.2)
    tmax = span / abs(rho + beta)
    assume(tmax <= 10.0 and abs(alpha * rho) ** (1.0 / (mu + 1.0)) * tmax <= 6.0)
    fractions = draw(st.lists(st.floats(1e-3, 1.0), min_size=1,
                              max_size=max_points - 1))
    grid = np.unique(np.array([0.0] + [tmax * f for f in fractions]))
    return problem(alpha, beta, mu, rho), grid
