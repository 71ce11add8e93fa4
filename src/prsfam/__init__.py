"""Pseudorandom sequence families over prime fields.

Constructions of binary and k-symbol sequence families from polynomial
residue symbols and extension-field characters, exact brute-force
evaluation of their randomness measures (covering complexity, windowed
product correlations, pattern-count deviations, root-of-unity
relabelings), and verification of the theoretical bounds relating them.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    dual_gamma_circ_envelope,
    fc_envelope_f1,
    fc_envelope_f2,
    fc_envelope_ksym,
    fc_lower_bound_from_dual,
    gamma_envelope,
    phi_envelope,
    verify_family,
    weil_check,
)
from .construct import (
    Family,
    dual,
    family_f1,
    family_f2,
    family_k_symbol,
    read_family,
    write_family,
)
from .errors import (
    BudgetError,
    DomainError,
    Error,
    InternalError,
    ParameterError,
    ParseError,
)
from .ff import ExtElem, FieldParams, char_k, is_prime, legendre, primitive_root
from .measures import (
    CorrelationSpec,
    MeasureResult,
    PatternWitness,
    big_gamma,
    cross_correlation,
    cross_correlation_circ,
    evaluate_witness,
    f_complexity,
    gamma,
    gamma_circ,
)
from .poly import (
    Poly,
    conjugacy_representatives,
    count_trace_zero_irreducibles,
    enumerate_trace_zero_irreducibles,
    is_irreducible,
    minimal_polynomial,
    mobius,
    poly_gcd,
    scale_poly,
)

__all__ = [
    "__version__",
    # errors
    "Error", "ParameterError", "DomainError", "BudgetError", "ParseError",
    "InternalError",
    # ff
    "is_prime", "legendre", "primitive_root", "char_k", "FieldParams",
    "ExtElem",
    # poly
    "Poly", "poly_gcd", "is_irreducible", "mobius",
    "count_trace_zero_irreducibles", "enumerate_trace_zero_irreducibles",
    "minimal_polynomial", "conjugacy_representatives", "scale_poly",
    # construct
    "Family", "family_f1", "family_f2", "family_k_symbol", "dual",
    "read_family", "write_family",
    # measures
    "CorrelationSpec", "PatternWitness", "MeasureResult", "f_complexity",
    "cross_correlation", "cross_correlation_circ", "gamma", "gamma_circ",
    "big_gamma", "evaluate_witness",
    # bounds
    "BoundReport", "fc_lower_bound_from_dual", "phi_envelope",
    "gamma_envelope", "dual_gamma_circ_envelope", "fc_envelope_f1",
    "fc_envelope_f2", "fc_envelope_ksym", "weil_check", "verify_family",
]
