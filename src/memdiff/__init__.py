"""memdiff: resolvent families for diffusion with an exponentially damped,
weakly singular memory kernel.

The central object is the scalar family S(t) solving

    u'(t) = rho u(t) + rho (kappa * u)(t),   u(0) = 1,
    kappa(t) = alpha e^{-beta t} t^{mu-1} / Gamma(mu),

computed by three mutually validating routes (Mittag-Leffler series,
Volterra product integration on a uniform grid from 0, contour inversion of
the closed-form Laplace transform), together with regime classification and
decay-bound verification, and the diagonal Dirichlet-Laplacian realization
on an interval.
"""

from .errors import (AccuracyError, ConvergenceError, DomainError,
                     HypothesisError, MemdiffError, ModeError, StepSizeError,
                     TruncationError)
from .inversion import (forward_transform, invert_S, invert_S_curve,
                        invert_transform)
from .resolvent import (Curve, CurveMethod, mu1_closed_form, series_S,
                        series_curve)
from .special import prabhakar_ml
from .spectral import SpectralModel, field, mode_curve, operator_norm_curve
from .stability import (BoundCheck, DecayBound, LemmaCheck, LemmaReport,
                        RateFit, Regime, RegimeClass, classify,
                        fit_decay_rate, lemma_property_suite,
                        theoretical_bound, verify_bound, verify_problem)
from .symbols import KernelParams, ScalarProblem, laplace_S_hat
from .volterra import solve_volterra

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BoundCheck", "ConvergenceError",
    "Curve", "CurveMethod", "DecayBound",
    "DomainError", "HypothesisError", "KernelParams",
    "LemmaCheck", "LemmaReport", "MemdiffError", "ModeError",
    "RateFit", "Regime", "RegimeClass",
    "ScalarProblem", "SpectralModel",
    "StepSizeError", "TruncationError", "classify",
    "field", "fit_decay_rate", "forward_transform",
    "invert_S", "invert_S_curve", "invert_transform",
    "laplace_S_hat", "lemma_property_suite",
    "mode_curve", "mu1_closed_form", "operator_norm_curve",
    "prabhakar_ml", "series_S", "series_curve",
    "solve_volterra", "theoretical_bound", "verify_bound", "verify_problem",
]
