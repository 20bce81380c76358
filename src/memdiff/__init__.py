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
from .special import prabhakar_ml, reg_lower_inc_gamma
from .spectral import (SpectralModel, eigen_pairs, field, mode_curve,
                       operator_norm_curve)
from .stability import (BoundCheck, DecayBound, LemmaCheck, LemmaReport,
                        RateFit, Regime, RegimeClass, classify,
                        fit_decay_rate, lemma_property_suite,
                        theoretical_bound, verify_bound, verify_problem)
from .symbols import (KernelParams, ScalarProblem, laplace_S_hat, symbol_g,
                      symbol_h, symbol_h_tilde)
from .volterra import kernel_a, solve_volterra

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BoundCheck", "ConvergenceError",
    "Curve", "CurveMethod", "DecayBound",
    "DomainError", "HypothesisError", "KernelParams",
    "LemmaCheck", "LemmaReport", "MemdiffError", "ModeError",
    "RateFit", "Regime", "RegimeClass",
    "ScalarProblem", "SpectralModel",
    "StepSizeError", "TruncationError", "classify",
    "eigen_pairs", "field", "fit_decay_rate", "forward_transform",
    "invert_S", "invert_S_curve", "invert_transform", "kernel_a",
    "laplace_S_hat", "lemma_property_suite",
    "mode_curve", "mu1_closed_form", "operator_norm_curve",
    "prabhakar_ml", "reg_lower_inc_gamma", "series_S", "series_curve",
    "solve_volterra", "symbol_g", "symbol_h", "symbol_h_tilde",
    "theoretical_bound", "verify_bound", "verify_problem",
]
