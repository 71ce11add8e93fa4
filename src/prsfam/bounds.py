"""Theoretical bounds as explicit functions, and verification reports
comparing them against measured values.

Three kinds of report are produced:

* ``exact``      -- identities and inequalities that hold with no
  unspecified constant (family sizes, row distinctness, the capacity
  bound k^C <= F, the dual-correlation lower bound on the covering
  complexity, complete character sums).  These are asserted.
* ``envelope``   -- upper bounds of the shape c * (formula) where the
  scale constant c is a free parameter (default 10); violations are
  surfaced as warnings, never hidden.
* ``asymptotic`` -- lower-bound envelopes with vanishing terms dropped;
  reported for context only, never asserted.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import TYPE_CHECKING, ParameterError, Record, check_budget
from .ff import _buildable, _check_odd_prime, legendre
from .poly import (DEFAULT_ENUM_BUDGET, Poly, count_irreducibles,
                   count_trace_zero_irreducibles, poly_gcd)

if TYPE_CHECKING:  # `weil` runs this module without building or measuring
    from typing import Optional, Sequence, Union

    from .family import Family
    from .measures import MeasureResult

    Number = Union[int, float, Fraction]

__all__ = [
    "BoundReport",
    "KIND_EXACT",
    "KIND_ENVELOPE",
    "KIND_ASYMPTOTIC",
    "fc_lower_bound_from_dual",
    "dual_orders",
    "phi_envelope",
    "gamma_envelope",
    "dual_gamma_circ_envelope",
    "fc_envelope_f1",
    "fc_envelope_f2",
    "fc_envelope_ksym",
    "weil_check",
    "verify_plan",
    "verify_family",
]

KIND_EXACT = "exact"
KIND_ENVELOPE = "envelope"
KIND_ASYMPTOTIC = "asymptotic"


class BoundReport(Record):
    """One comparison of a measured value against a theoretical one: the
    report's name, its kind, the parameters it was evaluated at, the
    theoretical and measured values (int, float or Fraction), whether
    the bound holds, the ratio and a note.

    ``satisfied`` means measured <= theoretical for upper bounds and
    measured >= theoretical for lower bounds, compared exactly whenever
    both sides are exact.  ``ratio`` is measured over theoretical where
    that is meaningful.
    """

    __match_args__ = __slots__ = ("name", "kind", "params", "theoretical",
                                  "measured", "satisfied", "ratio", "note")
    _defaults = {"theoretical": 0, "measured": 0, "satisfied": True,
                 "ratio": None, "note": ""}
    _uncompared = ("params",)


def _ratio(measured: Number, theoretical: Number) -> Optional[float]:
    if theoretical == 0:
        return None
    return float(measured) / float(theoretical)


def _ceil_log_ratio(num: Number, den: Number, base: int) -> int:
    """Smallest integer t >= 0 with den * base**t >= num, computed with
    exact rational arithmetic.  Its caller takes max(t - 1, 0), and a
    smaller t, when den >= num, would clamp to the same 0; so the search
    starts at t = 0 and only ascends."""
    num, den, t = Fraction(num), Fraction(den), 0
    while den * Fraction(base) ** t < num:
        t += 1
    return t


def fc_lower_bound_from_dual(family_size: int, max_corr: Number,
                             alphabet_k: int = 2,
                             variant: str = "binary") -> int:
    """Covering-complexity lower bound from the largest dual-family
    correlation, clamped at 0.

    Variants (all coincide for k = 2):

    * ``binary``     -- ceil(log2 F - log2 max_corr) - 1, exact.
    * ``kary_logk``  -- ceil(log_k F - log_k max_corr) - 1, exact;
      the single-base reading.
    * ``kary_log2``  -- ceil(log_k F - log2 max_corr) - 1, mixed bases,
      evaluated in double precision; reported, never asserted.
    """
    if family_size < 2:
        raise ParameterError("family size must be >= 2")
    if max_corr <= 0:
        raise ParameterError("max correlation must be positive")
    if alphabet_k < 2:
        raise ParameterError(f"alphabet size must be >= 2, got {alphabet_k}")
    if variant == "binary":
        t = _ceil_log_ratio(family_size, max_corr, 2)
    elif variant == "kary_logk":
        t = _ceil_log_ratio(family_size, max_corr, alphabet_k)
    elif variant == "kary_log2":
        v = (math.log(family_size, alphabet_k)
             - math.log2(float(max_corr)))
        t = math.ceil(v)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    return max(t - 1, 0)


def _check_scale(c: float) -> None:
    # NaN fails every comparison, so it is refused along with inf
    if not 0 <= c < math.inf:
        raise ParameterError(
            f"the envelope constant c must be finite and >= 0, got {c}")


def phi_envelope(p: int, d: int, ell: int, c: float = 10.0) -> float:
    """Upper envelope c * d * ell * sqrt(p) * ln(p) for the order-ell
    correlation of the polynomial residue-symbol families."""
    _check_scale(c)
    if p < 3 or d < 1 or ell < 1:
        raise ParameterError("need p >= 3, d >= 1, ell >= 1")
    return c * d * ell * math.sqrt(p) * math.log(p)


def gamma_envelope(p: int, ell: int, c: float = 10.0) -> float:
    """Upper envelope c * ell * sqrt(p) * ln(p) for the order-ell
    pattern deviation of the k-symbol family."""
    _check_scale(c)
    if p < 3:
        raise ParameterError("need p >= 3")
    if ell < 1:
        return 0.0
    return c * ell * math.sqrt(p) * math.log(p)


def dual_gamma_circ_envelope(p: int, d: int, ell: int,
                             c: float = 10.0) -> float:
    """Upper envelope c * ((ell*p - 1) * p^(d/2) + p) / (d*p) for the
    zero-shift pattern deviation of the k-symbol family's dual."""
    _check_scale(c)
    if p < 3 or d < 1 or ell < 1:
        raise ParameterError("need p >= 3, d >= 1, ell >= 1")
    return c * ((ell * p - 1) * p ** (d / 2) + p) / (d * p)


def fc_envelope_f1(p: int, d: int) -> float:
    """Asymptotic covering-complexity envelope (1/2) log2(p / d^2) for
    the scaled-polynomial family, vanishing terms dropped; 0 when
    p <= d^2."""
    if p <= d * d:
        return 0.0
    return 0.5 * math.log2(p / (d * d))


def fc_envelope_f2(p: int, d: int) -> float:
    """Asymptotic covering-complexity envelope (1/2) log2(p^d / d^2)
    for the irreducible-polynomial family (grouping read as the
    logarithm of the full quotient)."""
    if p**d <= d * d:
        return 0.0
    return 0.5 * math.log2(p**d / (d * d))


def fc_envelope_ksym(p: int, d: int) -> float:
    """Asymptotic covering-complexity envelope
    (d/2 - 1) log2 p - log2((d-1) log2 p) for the k-symbol family;
    may be negative (callers clamp for display)."""
    if d < 2 or p < 3:
        raise ParameterError("need d >= 2 and p >= 3")
    return (d / 2 - 1) * math.log2(p) - math.log2((d - 1) * math.log2(p))


def _reduce_slots(r: int, p: int, ones: int) -> int:
    """``r`` less p in each of its 32-bit slots that holds p or more,
    for slots in [0, 2p) with p < 2^30; ``ones`` has a 1 at the foot of
    every slot.  A slot plus 2^31 - p stays below 2^32, and reaches bit
    31 exactly when the slot is p or more."""
    return r - ((r + (2**31 - p) * ones) >> 31 & ones) * p


def weil_check(h: Poly, p: int) -> BoundReport:
    """Complete residue-symbol sum of a square-free polynomial checked
    against (deg h - 1) * sqrt(p); the comparison is exact (squared
    integer inequality), the report shows the float envelope.  The sum
    takes p steps and is refused with a ``BudgetError`` when p exceeds
    ``DEFAULT_BUDGET``.

    The values h(0), ..., h(p - 1) are walked by forward differences
    in ``lanes = isqrt(p)`` runs of ``steps = ceil(p / lanes)``
    consecutive points, lane i from i * steps.  Each difference order
    Delta^j h, j = 0..m = deg h, keeps the lanes as the 32-bit slots of
    one int, and a step adds order j + 1 into order j for j = 0..m - 1
    (Delta^m h is constant), then ``_reduce_slots``: no per-point
    multiply or ``%``.  Why this reads every h(x) mod p exactly once:

    * a lane's start differences, reduced mod p, are congruent to the
      integer ones, and the step is the integer recurrence, so after t
      steps a value slot holds h(i * steps + t) mod p;
    * every slot stays in [0, p), and the sum of two is below
      2p < 2^31, since ``check_budget`` refuses p > ``DEFAULT_BUDGET``
      = 10^9 < 2^30, and a p of 2^30 or more is refused here too,
      should that budget grow; so bit 31 decides "p or more", and no
      carry crosses a slot;
    * lanes * steps - p < lanes <= steps, so only the last lane runs
      past p - 1, and its slot is not read in the steps that do.

    Each value read adds 1 plus its residue symbol, from a p-byte
    table (2 on the squares, 1 at 0) or, past ``DEFAULT_ENUM_BUDGET``,
    where that table grows too large, through one ``legendre`` call;
    the sum less p is the character sum."""
    _check_odd_prime(p)
    check_budget(p, None, "the complete sum")
    if h.degree < 1:
        raise ParameterError("need a nonconstant polynomial")
    if h.p != p:
        raise ParameterError("polynomial is over the wrong prime field")
    if poly_gcd(h, h.derivative()).degree != 0:
        raise ParameterError(f"{h} is not square-free over F_{p}")
    if 2 * p >= 1 << 31:  # two slots must sum below bit 31
        raise ParameterError(f"p = {p} too large for 32-bit lanes")
    symbol = lambda v: legendre(v, p) + 1
    if p <= DEFAULT_ENUM_BUDGET:
        table = bytearray(b"\1") + bytes(p - 1)  # 1 at 0, 2 on the squares
        for x in range(1, (p + 1) // 2):
            table[x * x % p] = 2
        symbol = table.__getitem__
    m, lanes, order = h.degree, math.isqrt(p), sys.byteorder
    steps, ones = -(-p // lanes), ((1 << 32 * lanes) - 1) // 0xFFFF_FFFF
    # row t holds h at each lane's point t; differenced in place, it
    # holds Delta^t h at each lane's first point
    rows = [h.values(range(t, lanes * steps + t, steps)) for t in range(m + 1)]
    for j in range(1, m + 1):
        for t in range(m, j - 1, -1):
            rows[t] = [(b - a) % p for a, b in zip(rows[t - 1], rows[t])]
    layers = [int.from_bytes(b"".join(v.to_bytes(4, order) for v in row),
                             order) for row in rows]
    total = -p
    for t in range(steps):
        vals = memoryview(layers[0].to_bytes(4 * lanes, order)).cast("I")
        # the lanes whose point t is in F_p: all, or all but the last
        total += sum(map(symbol, vals[:(p - 1 - t) // steps + 1]))
        for j in range(m):
            layers[j] = _reduce_slots(layers[j] + layers[j + 1], p, ones)
    measured = abs(total)
    theoretical = (m - 1) * math.sqrt(p)
    satisfied = measured * measured <= (m - 1) * (m - 1) * p
    return BoundReport(
        name="weil_complete_sum", kind=KIND_EXACT,
        params={"p": p, "degree": m, "poly": list(h.coeffs)},
        theoretical=theoretical, measured=measured, satisfied=satisfied,
        ratio=_ratio(measured, theoretical),
        note="|sum over F_p of residue symbols| vs (deg-1) sqrt(p), "
             "decided by exact squared comparison")


def dual_orders(fam: Family) -> int:
    """The largest order i of the dual correlations the covering-
    complexity lower bound reads: floor(log_b F) with b = max(k, 2), at
    least 1, and 0 when F < 2."""
    if fam.size < 2:
        return 0
    base, imax = max(fam.k, 2), 0
    while base ** (imax + 1) <= fam.size:
        imax += 1
    return max(imax, 1)


def _correlation(fam: Family) -> str:
    """The correlation measure of ``fam``'s alphabet: phi for a binary
    family, gamma otherwise.  The lower bound reads it on the dual."""
    return "phi" if fam.k == 2 else "gamma"


_PHI_ENVELOPE = ("phi_envelope", "phi", False, phi_envelope, ("p", "d"),
                 "phi_ell <= c * d * ell * sqrt(p) * ln p")

# What ``verify`` reports on each construction: the correlation its
# envelopes are stated for, the asymptotic covering-complexity envelope
# and its note, and each correlation envelope as (report, the measure it
# reads, whether on the dual, its bound, the parameters listed before ell
# and c, note).  An envelope applies only to a family whose correlation
# (``_correlation``) is its construction's; one on the dual correlation
# the lower bound reads takes that bound's orders.
_REPORTS = {
    "f1": ("phi", fc_envelope_f1,
           "(1/2) log2(p/d^2), vanishing terms dropped", (
               ("dual_phi_envelope", "phi", True, phi_envelope, ("p", "d"),
                "dual family phi_ell <= c * d * ell * sqrt(p) * ln p"),
               _PHI_ENVELOPE)),
    "f2": ("phi", fc_envelope_f2,
           "(1/2) log2(p^d/d^2), vanishing terms dropped", (_PHI_ENVELOPE,)),
    "ksym": ("gamma", fc_envelope_ksym,
             "(d/2 - 1) log2 p - log2((d-1) log2 p); negative "
             "values clamp to 0 for comparison", (
                 ("gamma_envelope", "gamma", False, gamma_envelope, ("p",),
                  "gamma_ell <= c * ell * sqrt(p) * ln p"),
                 ("dual_gamma_circ_envelope", "gamma_circ", True,
                  dual_gamma_circ_envelope, ("p", "d"),
                  "zero-shift gamma of the dual vs "
                  "c * ((ell p - 1) p^(d/2) + p)/(d p)"))),
}


def _envelopes(fam: Family) -> tuple:
    """The correlation envelopes of ``_REPORTS`` that apply to ``fam``."""
    entry = _REPORTS.get(fam.construction)
    return entry[3] if entry and entry[0] == _correlation(fam) else ()


def verify_plan(fam: Family, max_order: int) -> list[tuple[str, bool, int]]:
    """Every measure ``verify`` takes, in the order it takes them, as
    (measure, on the dual, order): the covering complexity (order 0),
    the dual correlations of orders 1..``dual_orders(fam)`` the lower
    bound reads, then at each order 1..``max_order`` the measures the
    applicable envelopes read.  ``verify_plan(fam, 0)`` is what
    ``verify_family`` requires.  Raises ``ParameterError`` for a
    negative ``max_order``."""
    if max_order < 0:
        raise ParameterError(f"max order must be >= 0, got {max_order}")
    lower = (_correlation(fam), True)
    reads = [(read, on_dual) for _, read, on_dual, *_ in _envelopes(fam)
             if (read, on_dual) != lower]
    return ([("f_complexity", False, 0)]
            + [(*lower, i) for i in range(1, dual_orders(fam) + 1)]
            + [(*m, ell) for ell in range(1, max_order + 1) for m in reads])


def verify_family(fam: Family, measures: Sequence[MeasureResult],
                  c: float = 10.0) -> list[BoundReport]:
    """Build one report per applicable bound for a constructed family.

    Requires, among ``measures``, a record of each entry of
    ``verify_plan(fam, 0)``: the covering complexity of the family and,
    when F >= 2, the dual family's order-i correlations (binary: the
    product correlation; otherwise the pattern deviation) for
    i = 1 .. ``dual_orders(fam)``.  Each supplied measure that an
    applicable envelope of ``_REPORTS`` reads produces that envelope's
    report; ``verify_plan`` lists the ones ``verify`` supplies.
    Raises ``ParameterError`` listing anything missing, for a negative
    or non-finite ``c``, or for an f1, f2 or ksym family whose header no
    builder emits (p not an odd prime, N != p - 1, d < 2, or p^d at or
    past 2^1024).
    """
    from .family import dual_tag  # here, so `weil` does not compile it

    _check_scale(c)
    tag = fam.construction
    dtag = dual_tag(tag)
    p, d, k, f_size, n_len = fam.p, fam.d, fam.k, fam.size, fam.length
    reports: list[BoundReport] = []

    # --- structural identities (computed here, always available) ---
    if tag in _REPORTS:
        # refuse a header no builder emits: each writes rows of p - 1
        # symbols over a field ``_buildable`` admits
        if n_len != p - 1 or not _buildable(p, d):
            raise ParameterError(f"no {tag} builder emits p={p} d={d} "
                                 f"N={n_len}")
        trace_zero = fam.params.get("trace_zero", True)
        if tag == "f1":
            expected = p - 1
            formula = "F = p - 1"
        elif tag == "f2" and trace_zero:
            expected = count_trace_zero_irreducibles(p, d)
            formula = "F = (1/d) * #(trace-zero degree-d elements)"
        elif tag == "f2":
            expected = count_irreducibles(p, d)
            formula = "F = #(monic irreducible degree-d polynomials)"
        else:
            expected = (p**d - p) // (d * p)
            formula = "F = (p^d - p)/(d p)"
        reports.append(BoundReport(
            name="family_size", kind=KIND_EXACT,
            params={"p": p, "d": d, "k": k, "formula": formula},
            theoretical=expected, measured=f_size,
            satisfied=f_size == expected,
            ratio=_ratio(f_size, expected), note=formula))
        if tag == "f2" and trace_zero:
            lead = p ** (d - 1) / d
            corr = Fraction(3, 2) * p ** (d // 2)
            # exact: 2*d*F >= 2*p^(d-1) - 3*d*p^(floor(d/2))
            ok = 2 * d * f_size >= 2 * p ** (d - 1) - 3 * d * p ** (d // 2)
            reports.append(BoundReport(
                name="family_size_leading_term", kind=KIND_EXACT,
                params={"p": p, "d": d, "leading": lead,
                        "correction": float(corr)},
                theoretical=lead - float(corr), measured=f_size,
                satisfied=ok, ratio=_ratio(f_size, lead),
                note="exact count vs leading term p^(d-1)/d with "
                     "correction (3/2) p^floor(d/2)"))

    distinct = len(set(fam.rows))
    reports.append(BoundReport(
        name="rows_distinct", kind=KIND_EXACT,
        params={"F": f_size, "N": n_len},
        theoretical=f_size, measured=distinct,
        satisfied=distinct == f_size, ratio=None,
        note="all rows pairwise distinct"))

    # --- the records the bounds below read: ``verify_plan(fam, 0)`` ---
    required = verify_plan(fam, 0)
    # reversed, so the first record of each (subject, name, order) is read
    by_key = {(m.subject, m.name, m.order): m for m in reversed(measures)}
    found = [by_key.get((dtag if on_dual else tag, name, order))
             for name, on_dual, order in required]
    missing = [f"{name}{f' order {order}' if order else ''} on the "
               f"{'dual ' if on_dual else ''}family"
               for (name, on_dual, order), r in zip(required, found)
               if r is None]
    if missing:
        raise ParameterError(
            "verify_family needs more measures; missing: "
            + "; ".join(missing))
    cval = found[0].value
    duals = [r.value for r in found[1:]]

    # --- capacity bound k^C <= F ---
    reports.append(BoundReport(
        name="fc_capacity", kind=KIND_EXACT,
        params={"k": k, "C": cval},
        theoretical=f_size, measured=k**cval,
        satisfied=k**cval <= f_size,
        ratio=_ratio(k**cval, f_size),
        note="k^C <= F"))

    # --- covering complexity vs dual correlations ---
    max_corr = max(duals, default=0)
    if max_corr > 0 and k == 2:
        bound = fc_lower_bound_from_dual(f_size, max_corr, 2, "binary")
        reports.append(BoundReport(
            name="fc_dual_lower_bound", kind=KIND_EXACT,
            params={"F": f_size, "max_dual_phi": max_corr,
                    "orders": len(duals)},
            theoretical=bound, measured=cval,
            satisfied=cval >= bound,
            ratio=_ratio(cval, bound),
            note="C >= ceil(log2 F - log2 max phi(dual)) - 1"))
    elif max_corr > 0:
        # mixed/single log-base readings; reported, not asserted
        for variant in ("kary_logk", "kary_log2"):
            bound = fc_lower_bound_from_dual(f_size, max_corr, k, variant)
            reports.append(BoundReport(
                name=f"fc_dual_lower_bound_{variant}",
                kind=KIND_ASYMPTOTIC,
                params={"F": f_size, "k": k,
                        "max_dual_gamma": str(max_corr),
                        "orders": len(duals)},
                theoretical=bound, measured=cval,
                satisfied=cval >= bound,
                ratio=_ratio(cval, bound),
                note=f"k-ary variant {variant}; reported, not asserted"))

    # --- scale-constant envelopes for supplied correlation measures ---
    envelopes, known = _envelopes(fam), {"p": p, "d": d}
    for m in measures:
        for name, read, on_dual, bound, listed, note in envelopes:
            if (m.name, m.subject) != (read, dtag if on_dual else tag):
                continue
            params = {key: known[key] for key in listed}
            theo = bound(*params.values(), m.order, c)
            reports.append(BoundReport(
                name=name, kind=KIND_ENVELOPE,
                params={**params, "ell": m.order, "c": c}, theoretical=theo,
                # phi is an integer and shows as one, a pattern deviation
                # as its float
                measured=(m.value if isinstance(m.value, int)
                          else float(m.value)),
                satisfied=float(m.value) <= theo,
                ratio=_ratio(m.value, theo), note=note))

    # --- asymptotic covering-complexity envelope ---
    if tag in _REPORTS:
        _, bound, note, _ = _REPORTS[tag]
        theo = bound(p, d)
        clamped = max(theo, 0.0)
        reports.append(BoundReport(
            name="fc_asymptotic", kind=KIND_ASYMPTOTIC,
            params={"p": p, "d": d, "raw": theo},
            theoretical=clamped, measured=cval,
            satisfied=cval >= clamped,
            ratio=_ratio(cval, clamped), note=note))

    return reports
