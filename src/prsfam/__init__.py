"""Pseudorandom sequence families over prime fields.

Constructions of binary and k-symbol sequence families from polynomial
residue symbols and extension-field characters, exact brute-force
evaluation of their randomness measures (covering complexity, windowed
product correlations, pattern-count deviations, root-of-unity
relabelings), and verification of the theoretical bounds relating them.

The names below resolve on first access (PEP 562), so importing the
package compiles none of its modules; ``from prsfam import gamma``
loads ``prsfam.measures`` and what it imports.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that owns it, in the order of ``__all__``.
_OWNER = {name: module for module, names in (
    ("errors", ("Error", "ParameterError", "DomainError", "BudgetError",
                "ParseError", "InternalError")),
    ("ff", ("is_prime", "legendre", "primitive_root", "char_k", "mobius",
            "count_trace_zero_irreducibles")),
    ("poly", ("Poly", "poly_gcd", "is_irreducible",
              "enumerate_trace_zero_irreducibles", "ExtElem",
              "minimal_polynomial", "conjugacy_representatives",
              "scale_poly")),
    ("family", ("Family", "dual", "read_family", "write_family")),
    ("construct", ("family_f1", "family_f2", "family_k_symbol")),
    ("measures", ("CorrelationSpec", "PatternWitness", "MeasureResult",
                  "f_complexity", "cross_correlation",
                  "cross_correlation_circ", "gamma", "gamma_circ",
                  "big_gamma", "evaluate_witness")),
    ("bounds", ("BoundReport", "fc_lower_bound_from_dual", "phi_envelope",
                "gamma_envelope", "dual_gamma_circ_envelope",
                "fc_envelope_f1", "fc_envelope_f2", "fc_envelope_ksym",
                "weil_check", "verify_family")),
) for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())
