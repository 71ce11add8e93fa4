"""Construction and serialization of the sequence families.

A family is F rows of length N over the alphabet {0, ..., k-1}.  Binary
families use k = 2 with symbol 0 standing for +1 and symbol 1 for -1.
The builders: ``family_f1`` (residue-symbol rows of the scalings
i^d * f(x/i) of one irreducible f), ``family_f2`` (those of the monic
irreducibles with zero x^(d-1) coefficient) and ``family_k_symbol``
(order-k character rows of the minimal polynomials of trace-zero
conjugacy representatives).  All share ``_symbol_rows``, which reads
each row from a table of the symbol over F_p^*; no value may be zero.
Rows may repeat at small parameters (``Family.distinct_rows``).
"""

from __future__ import annotations

import math
import re
from itertools import chain

from . import poly as _poly
from .errors import (TYPE_CHECKING, InternalError, ParameterError,
                     ParseError, Record, check_budget)
from .ff import _buildable, char_k, is_prime, legendre
from .poly import (
    Poly,
    conjugacy_representatives,
    is_irreducible,
    minimal_polynomial,
    scale_poly,
)

if TYPE_CHECKING:
    from typing import IO, Union

__all__ = [
    "Family",
    "family_f1",
    "family_f2",
    "family_k_symbol",
    "dual",
    "dual_tag",
    "write_family",
    "read_family",
    "FILE_MAGIC",
]

FILE_MAGIC = "#PRSFAM v1"

_BASE_TAGS = {"f1", "f2", "ksym", "external"}


def _check_tag(tag: str) -> None:
    """A tag is a base tag or the dual of one, so ``dual`` is an
    involution on every family."""
    if tag not in _BASE_TAGS and dual_tag(tag) not in _BASE_TAGS:
        raise ParameterError(f"unknown construction tag {tag!r}")


class Family(Record):
    """Immutable family of sequences over a k-symbol alphabet: prime p,
    degree d, alphabet size k, the rows as tuples of symbols, and the
    construction tag.

    ``params`` carries builder metadata (base polynomial and the like)
    and is excluded from equality and repr; the family file format
    records only the construction tag and a false ``trace_zero``.
    """

    __match_args__ = __slots__ = ("p", "d", "k", "rows", "construction",
                                  "params")
    _defaults = {"construction": "external", "params": dict}
    _uncompared = _unshown = ("params",)

    def __init__(self, *args, **kwargs):
        self._init_shape(*args, **kwargs)
        # C-level passes over the symbols: their types, then their values
        if set(map(type, chain.from_iterable(self.rows))) != {int}:
            raise ParameterError("symbols must be ints")
        symbols = set().union(*self.rows)
        lo, hi = min(symbols), max(symbols)
        if lo < 0 or hi >= self.k:
            raise ParameterError(f"symbol {lo if lo < 0 else hi} out of "
                                 f"range for alphabet size {self.k}")

    def _init_shape(self, *args, **kwargs) -> None:
        """Set the fields, and check all but the symbols: the tag, int
        p, d and k, k >= 1, and a tuple of equal-length nonempty
        tuples."""
        super().__init__(*args, **kwargs)
        _check_tag(self.construction)
        if {type(self.p), type(self.d), type(self.k)} != {int}:
            raise ParameterError("p, d and k must be ints")
        if self.k < 1:
            raise ParameterError(f"alphabet size must be >= 1, got {self.k}")
        rows = self.rows
        if type(rows) is not tuple or set(map(type, rows)) - {tuple}:
            raise ParameterError("rows must be a tuple of tuples")
        if not rows:
            raise ParameterError("a family needs at least one row")
        n = len(rows[0])
        if n < 1:
            raise ParameterError("rows must be nonempty")
        if set(map(len, rows)) != {n}:
            raise ParameterError("rows must all have the same length")

    @property
    def size(self) -> int:
        """Number of rows (the family size F)."""
        return len(self.rows)

    @property
    def length(self) -> int:
        """Common row length N."""
        return len(self.rows[0])

    def pm_rows(self) -> tuple[tuple[int, ...], ...]:
        """Rows as +/-1 values (binary families only; 0 -> +1, 1 -> -1)."""
        if self.k != 2:
            raise ParameterError(
                f"the +/-1 view needs a binary family, alphabet size is {self.k}")
        return tuple(tuple(1 - 2 * s for s in row) for row in self.rows)

    def distinct_rows(self) -> bool:
        """Whether the rows are pairwise distinct.  The supporting
        character-sum argument needs p large against the degree (roughly
        p > (2d-1)^2), and below that range equal rows can genuinely
        occur: over F_7 the trace-zero irreducible cubics x^3+2 and
        x^3+5 give the same residue-symbol row.  So the builders do not
        refuse them, and ``verify`` reports a violation."""
        return len(set(self.rows)) == len(self.rows)


def _family(**fields) -> Family:
    """A family whose symbols are known to be ints in 0..k-1, as the
    builders, ``dual`` and ``read_family`` give them: the ``Family``
    constructor without its two passes over the symbols."""
    fam = Family.__new__(Family)
    fam._init_shape(**fields)
    return fam


def _pm_symbol(p: int):
    """The binary row symbol of a nonzero residue mod p: 0 for a square
    (residue symbol +1), 1 otherwise."""
    return lambda m: 0 if legendre(m, p) == 1 else 1


def _symbol_rows(polys, p: int, symbol) -> tuple[tuple[int, ...], ...]:
    """One row symbol(f(n)), n = 1..p-1, per polynomial f.  p - 1 calls
    of ``symbol`` fill a table, doubled so index v + c reads v + c mod p:
    f(n) = s(n) + c for f's stem s (f less its constant c), and s is
    evaluated once per run of rows sharing it, as f2's do."""
    table = [None] + [symbol(m) for m in range(1, p)]
    table += table
    xs = range(1, p)
    rows = []
    stem = None
    for f in polys:
        c = f.coeffs[0]
        if f.coeffs[1:] != stem:
            stem = f.coeffs[1:]
            vals = Poly((0,) + stem, p).values(xs)
        row = tuple(map(table[c:].__getitem__, vals))
        if None in row:
            raise InternalError(f"{f} vanished at {row.index(None) + 1}; "
                                f"irreducible inputs cannot")
        rows.append(row)
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
                          _poly.DEFAULT_ENUM_BUDGET)
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
    size = (_poly.count_trace_zero_irreducibles if trace_zero
            else _poly.count_irreducibles)(p, d)
    symbols = size * (p - 1)
    budget = check_budget(symbols, budget, f"building {size} rows of "
                          f"{p - 1} symbols, {symbols} in all,",
                          _poly.DEFAULT_ENUM_BUDGET)
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


def dual_tag(tag: str) -> str:
    """The construction tag of the transposed family; unwraps an
    existing dual so that dualizing is an involution on tags."""
    if tag.startswith("dual(") and tag.endswith(")"):
        return tag[5:-1]
    return f"dual({tag})"


def dual(fam: Family) -> Family:
    """Transpose: row n of the dual reads symbol n of every member.
    Applying it twice returns the original family."""
    return _family(p=fam.p, d=fam.d, k=fam.k, rows=tuple(zip(*fam.rows)),
                   construction=dual_tag(fam.construction),
                   params=dict(fam.params))


class _Names(dict):
    """str(s), made once per symbol s."""

    def __missing__(self, s):
        self[s] = name = str(s)
        return name


_HEADER_RE = re.compile(
    r"^#PRSFAM v1 p=(\d+) d=(\d+) k=(\d+) N=(\d+) F=(\d+) construction=(\S+)"
    r"( trace_zero=false)?$", re.ASCII)


def write_family(fam: Family, sink: Union[str, IO[str]]) -> None:
    """Write the text format: one header line, then F rows of N
    space-separated symbols.  LF line endings, UTF-8.  The header ends
    in ``trace_zero=false`` for a family built without f2's trace-zero
    restriction, and records nothing otherwise."""
    header = (f"{FILE_MAGIC} p={fam.p} d={fam.d} k={fam.k} "
              f"N={fam.length} F={fam.size} construction={fam.construction}")
    if not fam.params.get("trace_zero", True):
        header += " trace_zero=false"
    names = _Names()
    lines = [header]
    lines.extend(" ".join(map(names.__getitem__, row)) for row in fam.rows)
    text = "\n".join(lines) + "\n"
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sink.write(text)


def read_family(source: Union[str, IO[str]]) -> Family:
    """Parse a family file; the inverse of ``write_family``, restoring
    ``trace_zero=false`` into ``params``.  Symbols are looked up in a
    table of how ``write_family`` spells them, so their values need no
    check; a row with any other token is checked per token, so the
    family is built with the shape checks only."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty family file", line=1)
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(f"malformed header {lines[0]!r}", line=1)
    try:
        p, d, k, n, f = (int(m.group(i)) for i in range(1, 6))
    except ValueError:  # past the int-to-str digit limit
        raise ParseError("header number too long to read", line=1) from None
    tag = m.group(6)
    try:
        _check_tag(tag)
    except ParameterError as exc:
        raise ParseError(str(exc), line=1) from None
    body = [(idx, ln) for idx, ln in enumerate(lines[1:], start=2)
            if ln.strip()]
    if len(body) != f:
        raise ParseError(
            f"header says F={f} but file has {len(body)} rows", line=1)
    names = {str(s): s for s in range(min(k, 1024))}  # k may be huge
    rows = []
    for idx, ln in body:
        tokens = ln.split()
        row = tuple(map(names.get, tokens))
        named = None not in row
        if not named:
            if not all(tok.isascii() and tok.isdigit() for tok in tokens):
                raise ParseError(f"non-digit symbol in {ln!r}", line=idx)
            try:
                row = tuple(map(int, tokens))
            except ValueError:  # past the int-to-str digit limit
                raise ParseError("symbol too long to read", line=idx) from None
        if len(row) != n:
            raise ParseError(
                f"row has {len(row)} symbols, header says N={n}", line=idx)
        if not named and max(row) >= k:
            s = next(s for s in row if s >= k)
            raise ParseError(f"symbol {s} out of range for alphabet size "
                             f"{k}", line=idx)
        rows.append(row)
    try:
        return _family(p=p, d=d, k=k, rows=tuple(rows), construction=tag,
                       params={"trace_zero": False} if m.group(7) else {})
    except ParameterError as exc:
        raise ParseError(str(exc)) from None
