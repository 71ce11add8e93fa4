"""The builders of the sequence families (the data model and the file
format are ``family``).

``family_f1`` gives the residue-symbol rows of the scalings
i^d * f(x/i) of one irreducible f, ``family_f2`` those of the monic
irreducibles with zero x^(d-1) coefficient, and ``family_k_symbol`` the
order-k character rows of the minimal polynomials of trace-zero
conjugacy representatives.  All share ``_symbol_rows``, which reads
each row from a table of the symbol over F_p^*; no value may be zero.
Rows may repeat at small parameters (``Family.distinct_rows``).
"""

from __future__ import annotations

import math

from . import poly as _poly
from .errors import (DEFAULT_ENUM_BUDGET, InternalError, ParameterError,
                     check_budget)
# ``read_family`` is not called here; it stays importable from
# ``construct`` because perfbench's gate imports it from here.
from .family import Family, _family, read_family
from .ff import (_buildable, char_k, count_irreducibles,
                 count_trace_zero_irreducibles, is_prime, legendre)
from .poly import (
    Poly,
    conjugacy_representatives,
    is_irreducible,
    minimal_polynomial,
    scale_poly,
)

__all__ = ["family_f1", "family_f2", "family_k_symbol"]


def _pm_symbol(p: int):
    """The binary row symbol of a nonzero residue mod p: 0 for a square
    (residue symbol +1), 1 otherwise."""
    return lambda m: 0 if legendre(m, p) == 1 else 1


def _symbol_rows(polys, p: int, symbol) -> tuple[tuple[int, ...], ...]:
    """One row symbol(f(n)), n = 1..p-1, per polynomial f.  p - 1 calls
    of ``symbol`` fill a table, doubled so index v + c reads v + c mod p:
    f(n) = s(n) + c for f's stem s (f less its constant c).  Rows are
    filled stem by stem: each stem is evaluated once, wherever its rows
    fall, and one stem's values are held at a time."""
    table = [None] + [symbol(m) for m in range(1, p)]
    table += table
    xs = range(1, p)
    polys = list(polys)
    by_stem = {}
    for i, f in enumerate(polys):
        by_stem.setdefault(f.coeffs[1:], []).append(i)
    rows = [None] * len(polys)
    for stem, indices in by_stem.items():
        vals = Poly((0,) + stem, p).values(xs)
        for i in indices:
            c = polys[i].coeffs[0]
            rows[i] = row = tuple(map(table[c:].__getitem__, vals))
            if None in row:
                raise InternalError(f"{polys[i]} vanished at "
                                    f"{row.index(None) + 1}; irreducible "
                                    f"inputs cannot")
    return tuple(rows)


def _f1_pattern(p: int, d: int) -> list[range]:
    """The values an f1 base may take at x^(d-1), x^(d-2), ..., x^0:
    zero, then two nonzero coefficients, then any."""
    nonzero = range(1, p)
    return [range(1), nonzero, nonzero] + [range(p)] * (d - 3)


def _find_base_poly(p: int, d: int, budget: int) -> Poly:
    """Deterministic default base for family_f1: the lexicographically
    first monic irreducible with the coefficient pattern of
    ``_f1_pattern``, among its first ``budget`` candidates; a search
    that stops at the budget is refused with ``BudgetError``."""
    pattern = _f1_pattern(p, d)
    base = _poly.first_irreducible(pattern, p, budget)
    if base is None:
        check_budget(math.prod(map(len, pattern)), budget, "the base search")
        raise ParameterError(
            f"no monic irreducible degree-{d} base with the required "
            f"coefficient pattern exists over F_{p}")
    return base


def _check_field(p: int, d: int) -> None:
    if not _buildable(p, d):
        raise ParameterError(f"need an odd prime p, d >= 2 and "
                             f"p^d < 2^1024, got p={p} d={d}")


def _validate_base(base: Poly, p: int, d: int) -> None:
    if base.p != p:
        raise ParameterError("base polynomial is over the wrong prime field")
    if base.degree != d or not base.is_monic:
        raise ParameterError(f"base must be monic of degree {d}, got {base}")
    for j, allowed in enumerate(_f1_pattern(p, d), 1):
        if base.coeffs[d - j] not in allowed:
            kind = "zero" if len(allowed) == 1 else "nonzero"
            raise ParameterError(
                f"base must have {kind} x^(d-{j}) coefficient")
    if not is_irreducible(base):
        raise ParameterError(f"base {base} is reducible over F_{p}")


def family_f1(p: int, d: int, base: Poly | None = None,
              budget: int | None = None) -> Family:
    """Binary family with one row per scale factor i in 1..p-1; row i is
    the residue-symbol sequence of i^d * base(x/i) at x = 1..p-1.

    Requires d >= 5, p not dividing d, and a base polynomial that is
    monic irreducible with zero x^(d-1) coefficient and nonzero
    x^(d-2), x^(d-3) coefficients (searched deterministically when not
    given).
    """
    _check_field(p, d)
    if d < 5:
        raise ParameterError(f"degree must be >= 5, got {d}")
    if d % p == 0:
        raise ParameterError(f"p={p} must not divide d={d}")
    symbols = (p - 1)**2
    budget = check_budget(symbols, budget, f"building {p - 1} rows of "
                          f"{p - 1} symbols, {symbols} in all,",
                          DEFAULT_ENUM_BUDGET)
    if base is None:
        base = _find_base_poly(p, d, budget)
    else:
        _validate_base(base, p, d)
    rows = _symbol_rows((scale_poly(base, i) for i in range(1, p)), p,
                        _pm_symbol(p))
    return _family(p=p, d=d, k=2, rows=rows, construction="f1",
                   params={"base": base.coeffs})


def family_f2(p: int, d: int, trace_zero: bool = True,
              budget: int | None = None) -> Family:
    """Binary family with one row per monic irreducible degree-d
    polynomial (zero x^(d-1) coefficient by default), in lexicographic
    polynomial order; row entries are the residue symbols at 1..p-1.
    The row count is known in closed form, so a family of more row
    symbols than the budget is refused before any enumeration."""
    _check_field(p, d)
    size = (count_trace_zero_irreducibles if trace_zero
            else count_irreducibles)(p, d)
    symbols = size * (p - 1)
    budget = check_budget(symbols, budget, f"building {size} rows of "
                          f"{p - 1} symbols, {symbols} in all,",
                          DEFAULT_ENUM_BUDGET)
    if trace_zero:
        polys = _poly.enumerate_trace_zero_irreducibles(p, d, budget=budget)
    else:
        polys = _poly.enumerate_irreducibles(p, d, False, budget)
    rows = _symbol_rows(polys, p, _pm_symbol(p))
    return _family(p=p, d=d, k=2, rows=rows, construction="f2",
                   params={"trace_zero": trace_zero})


def family_k_symbol(p: int, d: int, k: int, require_coprime: bool = True,
                    budget: int | None = None) -> Family:
    """k-symbol family: one row per trace-zero conjugacy representative
    beta of degree exactly d, with entries the order-k character of the
    minimal polynomial of beta evaluated at 1..p-1.

    Requires d prime with p != d, 2 <= k dividing p-1, and (by default)
    gcd(k, (p^d-1)/(p-1)) = 1.  The coprimality hypothesis underwrites
    the correlation bound, not the construction itself; pass
    ``require_coprime=False`` to build the family without it.
    """
    _check_field(p, d)
    if not is_prime(d):
        raise ParameterError(f"degree must be prime, got {d}")
    if p == d:
        raise ParameterError(
            f"p = d = {p} degenerates the trace-zero count; choose p != d")
    if k < 2:
        raise ParameterError(f"alphabet size must be >= 2, got {k}")
    if (p - 1) % k != 0:
        raise ParameterError(f"order k={k} must divide p-1 = {p - 1}")
    subgroup = (p**d - 1) // (p - 1)
    if require_coprime and math.gcd(k, subgroup) != 1:
        raise ParameterError(
            f"gcd(k, (p^d-1)/(p-1)) = gcd({k}, {subgroup}) = "
            f"{math.gcd(k, subgroup)} != 1")
    reps = conjugacy_representatives(p, d, trace_zero_only=True, budget=budget)
    rows = _symbol_rows(map(minimal_polynomial, reps), p,
                        lambda m: char_k(m, k, p))
    expected = (p**d - p) // (d * p)
    if len(rows) != expected:
        raise InternalError(
            f"family size {len(rows)} != (p^d-p)/(dp) = {expected}")
    return _family(p=p, d=d, k=k, rows=rows, construction="ksym")
