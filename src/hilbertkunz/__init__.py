"""Hilbert-Kunz functions over quotients of polynomial rings in char p.

Library layout:

- poly: prime fields, monomial orders, canonical sparse polynomials and
  free-module elements.
- groebner: Buchberger engine, normal forms, colengths, syzygies, Krull
  dimension, matrix ranks and cokernel dimensions.
- hk: ring/ideal/module presentations, Frobenius bracket powers, e_n
  values, delta_n, Tor_1 lengths and series.
- asymptotics: exact closed-form verification and alpha/beta/tau/gamma
  extraction with residual diagnostics.
- cli: problem files, commands and JSON reports.
"""

__version__ = "0.1.0"

from .poly import (DEGLEX, EXP_LIMIT, GREVLEX, LEX, ExponentOverflowError,
                   FreeModuleElement, MonomialOrder, ParseError, PolyRing,
                   Polynomial, RingMismatchError, get_order, is_prime,
                   parse_poly, poly_add, poly_mul, poly_power)
from .groebner import (Budget, BudgetExceededError, GroebnerBasis, INFINITE,
                       Staircase, buchberger, cokernel_dimension, colength,
                       krull_dimension, matrix_rank_over_domain,
                       monomial_ideal_colength, normal_form, syzygies)
from .hk import (BracketPower, HKSeries, IdealHandle, InfiniteColengthError,
                 ModuleDimension, ModulePresentation,
                 NonHomogeneousInputWarning, RingPresentation, bracket_power,
                 check_m_primary, delta_n, en_cyclic, en_module,
                 module_dimension, module_rank, series, tor1_length)
from .asymptotics import (ClosedForm, DeltaTrend, EntryCheck, FitReport,
                          GammaEstimate, TauEstimate, VerificationReport,
                          fit_two_point, gamma_estimate, parse_closed_form,
                          residual_bound, tau_from_delta, tau_from_recurrence,
                          verify_closed_form)
from .cli import ProblemFile, parse_problem

__all__ = [
    "__version__",
    # poly
    "DEGLEX", "EXP_LIMIT", "GREVLEX", "LEX", "ExponentOverflowError",
    "FreeModuleElement", "MonomialOrder", "ParseError", "PolyRing",
    "Polynomial", "RingMismatchError", "get_order", "is_prime", "parse_poly",
    "poly_add", "poly_mul", "poly_power",
    # groebner
    "Budget", "BudgetExceededError", "GroebnerBasis", "INFINITE", "Staircase",
    "buchberger", "cokernel_dimension", "colength", "krull_dimension",
    "matrix_rank_over_domain", "monomial_ideal_colength", "normal_form",
    "syzygies",
    # hk
    "BracketPower", "HKSeries", "IdealHandle", "InfiniteColengthError",
    "ModuleDimension", "ModulePresentation", "NonHomogeneousInputWarning",
    "RingPresentation", "bracket_power", "check_m_primary", "delta_n",
    "en_cyclic", "en_module", "module_dimension", "module_rank", "series",
    "tor1_length",
    # asymptotics
    "ClosedForm", "DeltaTrend", "EntryCheck", "FitReport", "GammaEstimate",
    "TauEstimate", "VerificationReport", "fit_two_point", "gamma_estimate",
    "parse_closed_form", "residual_bound", "tau_from_delta",
    "tau_from_recurrence", "verify_closed_form",
    # cli
    "ProblemFile", "parse_problem",
]
