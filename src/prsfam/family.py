"""The family data model and its file format.

A family is F rows of length N over the alphabet {0, ..., k-1}, with
the prime p, the degree d and a construction tag; binary families use
k = 2, symbol 0 for +1 and 1 for -1.  ``dual`` transposes one, and
``write_family`` / ``read_family`` give its text form.  The measures
read only this module, so a command that reads a family file compiles
no builder (``construct``).
"""

from __future__ import annotations

import re
from itertools import chain

from .errors import TYPE_CHECKING, ParameterError, ParseError, Record

if TYPE_CHECKING:
    from typing import IO, Union

__all__ = ["Family", "dual", "dual_tag", "write_family", "read_family",
           "FILE_MAGIC"]

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
