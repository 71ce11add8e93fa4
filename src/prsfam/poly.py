"""Polynomial algebra over prime fields F_p.

Polynomials are dense, immutable coefficient tuples, constant term
first and without trailing zeros, so equality and hashing are
structural.  Beyond the ring operations: irreducibility, a product
sieve of the monic irreducibles, minimal polynomials and conjugacy
representatives of extension elements, and scaling.  Their counts are
``ff``'s; this module builds on ``ff``, never the reverse.

The extension F_(p^d) is ``_field(p, d)``: its modulus, the
lexicographically smallest monic irreducible of degree d, so
independent runs agree bit for bit, and its Frobenius.  An element,
``ExtElem``, is a coordinate tuple in the basis 1, x, ..., x^(d-1).
The p-th power map of F_p[x]/(f) is F_p-linear, so
``_frobenius_columns`` builds it once per modulus as a d x d matrix and
every later p-th power is one matrix-vector product.  ``_orbit`` is the
one walk of a Frobenius orbit; the trace-zero representatives are found
on the trace's kernel alone.

Functions taking a prime ``p`` trust the caller; ``_field`` and the
builders check it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, islice, product
from operator import mul

from .errors import (DEFAULT_ENUM_BUDGET, TYPE_CHECKING, DomainError,
                     InternalError, ParameterError, Record, check_budget)
# ``mobius`` stays importable here: the acceptance suite imports it.
from .ff import _check_odd_prime, _prime_divisors, mobius

if TYPE_CHECKING:
    from typing import Iterable, Sequence

__all__ = [
    "Poly",
    "poly_gcd",
    "is_irreducible",
    "first_irreducible",
    "enumerate_irreducibles",
    "enumerate_trace_zero_irreducibles",
    "ExtElem",
    "minimal_polynomial",
    "conjugacy_representatives",
    "scale_poly",
]

class Poly:
    """Dense polynomial over F_p; ``coeffs[i]`` multiplies x^i."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Iterable[int], p: int):
        if p < 2:
            raise ParameterError(f"modulus p must be >= 2, got {p}")
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.p = p

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check_same_field(self, other: "Poly") -> None:
        if self.p != other.p:
            raise ParameterError(
                f"mixed coefficient fields F_{self.p} and F_{other.p}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a, self.p)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return Poly(a, self.p)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        if self.is_zero or other.is_zero:
            return Poly((), self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out, self.p)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_same_field(other)
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly((), p), Poly(rem, p)
        inv_lead = pow(other.coeffs[-1], p - 2, p)
        quo = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] % p
            if c:
                q = c * inv_lead % p
                quo[i] = q
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= q * b
        return Poly(quo, p), Poly(rem, p)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.p))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)}, p={self.p})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"{c}{x}")
        return " + ".join(terms)

    def eval(self, n: int) -> int:
        """Horner evaluation at n, reduced mod p."""
        return self.values((n,))[0]

    def values(self, xs: Sequence[int]) -> list[int]:
        """Horner evaluation at every point of xs, reduced mod p: one
        pass over the list per coefficient."""
        p = self.p
        acc = [self.coeffs[-1] if self.coeffs else 0] * len(xs)
        for c in reversed(self.coeffs[:-1]):
            acc = [(a * x + c) % p for a, x in zip(acc, xs)]
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:], self.p)

    def monic(self) -> "Poly":
        """Scale by the inverse of the leading coefficient."""
        if self.is_zero:
            raise DomainError("zero polynomial has no monic form")
        if self.is_monic:
            return self
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return Poly([c * inv for c in self.coeffs], self.p)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    a._check_same_field(b)
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def _mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int],
            p: int) -> list[int]:
    """a * b mod the monic f, on coefficient lists: ``f`` has length
    d + 1, ``a`` and ``b`` have length d, and so does the result."""
    d = len(f) - 1
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(2 * d - 2, d - 1, -1):
        t = prod[i] % p
        if t:
            off = i - d
            for j in range(d):
                prod[off + j] -= t * f[j]
    return [c % p for c in prod[:d]]


def _frobenius_columns(f: Poly) -> tuple[tuple[int, ...], ...]:
    """The d columns (x^i)^p mod f, i = 0..d-1, of the p-power
    Frobenius of F_p[x]/(f) for a monic f of degree d >= 1.

    x^p mod f comes from left-to-right square-and-multiply, where a
    multiplication by x is a shift and one reduction step; column i is
    then column i-1 times x^p, d-2 more products.
    """
    p, fc, d = f.p, f.coeffs, f.degree
    cols = [[1] + [0] * (d - 1)]
    if d >= 2:
        xp = [0, 1] + [0] * (d - 2)
        for bit in bin(p)[3:]:
            xp = _mulmod(xp, xp, fc, p)
            if bit == "1":
                top = xp[-1]
                xp = [(c - top * m) % p for c, m in zip([0] + xp[:-1], fc)]
        cols.append(xp)
        for _ in range(d - 2):
            cols.append(_mulmod(cols[-1], xp, fc, p))
    return tuple(tuple(c) for c in cols)


def _apply_rows(rows: Sequence[Sequence[int]], v: Sequence[int],
                p: int) -> tuple[int, ...]:
    """The matrix with these rows times the coordinate vector v, mod p."""
    return tuple(sum(map(mul, r, v)) % p for r in rows)


def _orbit(rows: Sequence[Sequence[int]], v: Sequence[int],
           p: int) -> list[tuple[int, ...]]:
    """The distinct conjugates v, v^p, v^(p^2), ... of the coordinate
    tuple v, from the Frobenius matrix with these rows: the one walk of
    a Frobenius orbit.  The map is a bijection, so the walk ends when
    it returns to v."""
    v = tuple(v)
    orbit = [v]
    conj = _apply_rows(rows, v, p)
    while conj != v:
        orbit.append(conj)
        conj = _apply_rows(rows, conj, p)
    return orbit


def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test over F_p (Rabin).

    Normalizes to monic form, then checks x^(p^n) = x mod f together
    with gcd(x^(p^(n/q)) - x, f) = 1 for every prime q dividing n.  The
    powers x^(p^t), t = 1..n, are the iterates of the linear Frobenius
    of F_p[x]/(f) on x: one matrix-vector product each, from the
    columns of ``_frobenius_columns``.
    """
    if f.degree < 1:
        raise ParameterError("irreducibility is defined for degree >= 1")
    f = f.monic()
    n = f.degree
    if n == 1:
        return True
    p = f.p
    rows = tuple(zip(*_frobenius_columns(f)))
    # powers[t] = coordinates of x^(p^t) mod f
    powers = [(0, 1) + (0,) * (n - 2)]
    for _ in range(n):
        powers.append(_apply_rows(rows, powers[-1], p))
    if powers[n] != powers[0]:
        return False
    x = Poly((0, 1), p)
    for q in _prime_divisors(n):
        g = poly_gcd(Poly(powers[n // q], p) - x, f)
        if g.degree != 0:
            return False
    return True


def first_irreducible(ranges: Sequence[Iterable[int]], p: int,
                      budget: int | None = None) -> Poly | None:
    """The first monic irreducible x^d + c_(d-1) x^(d-1) + ... + c_0,
    d = len(ranges), with c_(d-1-i) drawn from ranges[i], in
    lexicographic order (highest power first); None when none of the
    candidates, or of the first ``budget`` of them, is irreducible."""
    for rest in islice(product(*ranges), budget):
        f = Poly(rest[::-1] + (1,), p)
        if is_irreducible(f):
            return f
    return None


def enumerate_irreducibles(p: int, d: int, trace_zero: bool = True,
                           budget: int | None = None) -> list[Poly]:
    """All monic irreducible degree-d polynomials over F_p (with zero
    x^(d-1) coefficient under ``trace_zero``), in lexicographic order
    (highest power first), by a product sieve: every g*h with g, h monic
    and deg g = a <= d/2 is marked, and the rest kept.  Under
    ``trace_zero`` h's x^(d-a-1) coefficient is -g_(a-1)."""
    if d < 2:
        raise ParameterError(f"extension degree must be >= 2, got {d}")
    free = d - 1 if trace_zero else d
    candidates = p**free
    check_budget(candidates, budget, "enumeration", DEFAULT_ENUM_BUDGET)
    # a candidate's index is its free coefficients read in base p
    weights = [p**i for i in range(free)]
    keep = bytearray(b"\x01") * candidates
    for a in range(1, d // 2 + 1):
        m = d - a - 1 if trace_zero else d - a  # free coefficients of h
        for low in product(range(p), repeat=a):
            g = low + (1,)
            top = (-low[-1], 1) if trace_zero else (1,)
            fixed = (Poly(g, p) * Poly((0,) * m + top, p)).coeffs
            # sums[i] lists the x^i coefficient of g*h over every h
            sums = [[c] for c in fixed[:free]]
            for j in range(m):
                gj = (0,) * j + g + (0,) * free  # g * x^j
                sums = [[s + t * gj[i] for s in col for t in range(p)]
                        for i, col in enumerate(sums)]
            for idx in map(sum, zip(*([s % p * w for s in col]
                                      for col, w in zip(sums, weights)))):
                keep[idx] = 0
    tail = (0, 1) if trace_zero else (1,)
    return [Poly([n // w % p for w in weights] + list(tail), p)
            for n in compress(range(candidates), keep)]


def enumerate_trace_zero_irreducibles(p: int, d: int,
                                      budget: int | None = None) -> list[Poly]:
    """``enumerate_irreducibles`` with ``trace_zero``."""
    return enumerate_irreducibles(p, d, True, budget)


@lru_cache(maxsize=None)
def _field(p: int, d: int) -> tuple[Poly, tuple[tuple[int, ...], ...]]:
    """F_(p^d) for an odd prime p and a degree d >= 1: its modulus, the
    lexicographically smallest monic irreducible of degree d (comparing
    coefficient tuples highest power first), and the rows of its p-power
    Frobenius, whose column i holds (x^i)^p mod the modulus."""
    _check_odd_prime(p)
    if d < 1:
        raise ParameterError(f"extension degree must be >= 1, got {d}")
    f = first_irreducible([range(p)] * d, p)
    if f is None:
        raise InternalError(
            f"no irreducible polynomial of degree {d} over F_{p}")
    return f, tuple(zip(*_frobenius_columns(f)))


class ExtElem(Record):
    """Element of F_(p^d): the prime p and the coordinate tuple, of
    length d, in the basis of ``_field(p, d)``.  It carries no
    arithmetic; the functions here compute on the coordinate tuple."""

    __match_args__ = __slots__ = ("p", "coeffs")


def minimal_polynomial(beta: ExtElem) -> Poly:
    """Monic polynomial over F_p whose roots are the distinct conjugates
    of beta, read in ``_field(beta.p, d)``, d the length of beta's
    coordinate tuple.

    For beta generating the full extension the degree equals d; subfield
    elements yield their lower-degree minimal polynomial (the degree of
    the result tells which happened).  The product of X - r over the
    orbit is expanded on coordinate tuples; each coefficient must land
    in F_p.
    """
    p, d = beta.p, len(beta.coeffs)
    modulus, rows = _field(p, d)
    zero = (0,) * d
    coeffs = [(1,) + zero[1:]]  # coeffs[i] multiplies X^i
    for r in _orbit(rows, beta.coeffs, p):
        scaled = [_mulmod(c, r, modulus.coeffs, p) for c in coeffs] + [zero]
        coeffs = [tuple((a - b) % p for a, b in zip(u, w))
                  for u, w in zip([zero] + coeffs, scaled)]
    if any(any(c[1:]) for c in coeffs):
        raise InternalError("minimal polynomial coefficient escaped the "
                            "base field")
    return Poly([c[0] for c in coeffs], p)


def conjugacy_representatives(p: int, d: int, trace_zero_only: bool,
                              budget: int | None = None) -> list[ExtElem]:
    """One ``ExtElem`` per conjugate orbit of elements of F_(p^d) of
    degree exactly d, optionally of trace zero: the orbit's
    lexicographically smallest coordinate tuple in the basis of
    ``_field(p, d)``, listed in that order.  They biject with
    the monic irreducible degree-d polynomials (of trace zero under the
    filter) via ``minimal_polynomial``.

    The trace is a nonzero linear form, constant on orbits, so the
    filter scans only its kernel: with j the last coordinate of nonzero
    basis trace, c_j is solved from c_0..c_(j-1) and the other d - 1
    coordinates run in lexicographic order, which inserting c_j keeps.
    A basis vector's trace is d / |orbit| times the sum of its orbit's
    rational coordinates.
    """
    check_budget(p**d, budget, "orbit enumeration", DEFAULT_ENUM_BUDGET)
    rows = _field(p, d)[1]
    basis_traces = []
    for i in range(d):
        orbit = _orbit(rows, (0,) * i + (1,) + (0,) * (d - 1 - i), p)
        basis_traces.append(d // len(orbit) * sum(c[0] for c in orbit) % p)
    if trace_zero_only:
        j = max(i for i, t in enumerate(basis_traces) if t)
        head, scale = basis_traces[:j], pow(-basis_traces[j], -1, p)
        candidates = (rest[:j] + (sum(map(mul, rest, head)) * scale % p,)
                      + rest[j:] for rest in product(range(p), repeat=d - 1))
    else:
        candidates = product(range(p), repeat=d)
    seen: set[tuple[int, ...]] = set()
    reps = []
    for coords in candidates:
        if coords in seen:
            continue
        orbit = _orbit(rows, coords, p)
        seen.update(orbit)
        if len(orbit) == d:
            reps.append(ExtElem(p, coords))
    return reps


def scale_poly(f: Poly, i: int) -> Poly:
    """Substitute x/i and rescale by i^deg(f): each coefficient of
    x^(d-j) picks up a factor i^j.  Preserves monicity and
    irreducibility; scaling by the inverse undoes it."""
    if not f.is_monic:
        raise ParameterError("scaling is defined for monic polynomials")
    p = f.p
    if i % p == 0:
        raise ParameterError("scale factor must be nonzero mod p")
    d = f.degree
    return Poly([c * pow(i, d - m, p) for m, c in enumerate(f.coeffs)], p)
