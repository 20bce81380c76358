"""Exception hierarchy.

Numerical failures are loud and typed: callers can distinguish "you asked
for something outside the supported domain" (:class:`DomainError`) from
"the requested accuracy could not be reached" (:class:`ConvergenceError`,
:class:`AccuracyError`).
"""

from __future__ import annotations


class MemdiffError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MemdiffError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(MemdiffError):
    """A series failed to reach the requested accuracy.

    ``reason`` is ``"max_terms"`` (truncation criterion never met),
    ``"overflow"`` (a term is not representable in double precision) or
    ``"precision"`` (cancellation ate the requested digits).  ``last_term``
    carries the magnitude of the last term examined.
    """

    def __init__(self, message: str, *, reason: str = "max_terms",
                 last_term: float | None = None, n_terms: int | None = None):
        super().__init__(message)
        self.reason = reason
        self.last_term = last_term
        self.n_terms = n_terms


class StepSizeError(MemdiffError):
    """The implicit Volterra step factor 1 - rho dt / 2 is not positive;
    shrink the step."""


class AccuracyError(MemdiffError):
    """A result does not meet its stated accuracy contract."""


class HypothesisError(MemdiffError):
    """The parameter regime does not satisfy the hypotheses of the bound."""


class TruncationError(MemdiffError):
    """A truncated expansion is dominated by its last retained mode."""


class ModeError(MemdiffError):
    """A spectral mode computation failed; ``mode_index`` identifies it."""

    def __init__(self, message: str, *, mode_index: int):
        super().__init__(message)
        self.mode_index = mode_index
