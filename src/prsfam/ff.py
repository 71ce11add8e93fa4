"""Arithmetic over F_p and its extensions F_{p^d}, plus the
multiplicative characters the sequence constructions evaluate.

Prime-field values are plain integers in [0, p).  Extension elements
carry coordinate tuples in the polynomial basis 1, x, ..., x^(d-1) for a
fixed monic irreducible modulus.  The modulus and the primitive root
used by the order-k character are chosen deterministically, so
independent runs agree bit for bit.

Each field caches its p-power Frobenius as a d x d matrix over F_p
(the map is F_p-linear; see ``poly``).  ``FieldParams`` and
``ExtElem`` only hold values: the arithmetic on coordinate tuples, and
``poly._orbit``, the one walk of a Frobenius orbit, live in ``poly``.

Every value is immutable and every operation is a pure function; values
can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, InternalError, ParameterError, Record
# ``is_irreducible`` is not called here; it stays importable from
# ``ff`` because perfbench's tracer wraps ``ff.is_irreducible`` by name.
from .poly import (Poly, _frobenius_columns, _prime_divisors,
                   first_irreducible, is_irreducible)

__all__ = [
    "is_prime",
    "legendre",
    "primitive_root",
    "char_k",
    "FieldParams",
    "ExtElem",
]


# These bases make Miller-Rabin exact below the limit (Sorenson and
# Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality check: Miller-Rabin with the prime bases
    2..41, proven for n below 3,317,044,064,679,887,385,961,981.  Larger
    n are refused with a ``ParameterError`` rather than answered
    probabilistically.

    Cached: ``legendre`` and ``char_k`` validate their modulus on every
    call, and a build or character sum calls them with one p throughout.
    """
    if n >= _MR_LIMIT:
        raise ParameterError(
            f"primality is only decided below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ParameterError(f"p must be an odd prime >= 3, got {p}")


def _buildable(p: int, d: int) -> bool:
    """Whether a builder emits a family over F_(p^d): p an odd prime,
    d >= 2 and d * log2 p < 1024, so ``verify``'s p^d-sized counts fit
    a float.  The builders refuse, and ``verify`` rejects, the rest."""
    return p >= 3 and is_prime(p) and 2 <= d < 1024 / math.log2(p)


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol of a mod p: 0 at 0, +1 on nonzero
    squares, -1 otherwise.  Computed as a^((p-1)/2) mod p."""
    _check_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@functools.lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the odd prime p."""
    _check_odd_prime(p)
    divisors = _prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in divisors):
            return g
    raise InternalError(f"no primitive root modulo {p}")


@functools.lru_cache(maxsize=None)
def _dlog_table(p: int) -> dict[int, int]:
    """Discrete logarithms base primitive_root(p), tabulated for all of
    F_p^* (desk-scale p keeps this small)."""
    g = primitive_root(p)
    table = {}
    acc = 1
    for t in range(p - 1):
        table[acc] = t
        acc = acc * g % p
    return table


def char_k(m: int, k: int, p: int) -> int:
    """Symbol index of m under the order-k multiplicative character of
    F_p: the discrete log of m (base the smallest primitive root)
    reduced mod k.  Index j stands for the root of unity e^(2*pi*i*j/k).

    Requires k | p-1 and m nonzero mod p.
    """
    _check_odd_prime(p)
    if k < 1 or (p - 1) % k != 0:
        raise ParameterError(f"character order {k} must divide p-1 = {p - 1}")
    m %= p
    if m == 0:
        raise DomainError("order-k character is undefined at 0")
    return _dlog_table(p)[m] % k


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, d: int) -> Poly:
    """Lexicographically smallest monic irreducible of degree d over
    F_p, comparing coefficient tuples highest power first."""
    f = first_irreducible([range(p)] * d, p)
    if f is None:
        raise InternalError(
            f"no irreducible polynomial of degree {d} over F_{p}")
    return f


class FieldParams:
    """The field F_{p^d} for an odd prime p and a degree d >= 1, in the
    polynomial basis of ``_default_modulus(p, d)``.

    ``frobenius_rows`` is the p-power map as a matrix acting on
    coordinate tuples: its column i holds (x^i)^p mod the modulus.
    """

    __slots__ = ("p", "d", "modulus", "frobenius_rows")

    def __init__(self, p: int, d: int):
        _check_odd_prime(p)
        if d < 1:
            raise ParameterError(f"extension degree must be >= 1, got {d}")
        self.p = p
        self.d = d
        self.modulus = _default_modulus(p, d)
        self.frobenius_rows = tuple(zip(*_frobenius_columns(self.modulus)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldParams):
            return NotImplemented
        return (self.p, self.d) == (other.p, other.d)

    def __hash__(self) -> int:
        return hash((self.p, self.d))

    def __repr__(self) -> str:
        return f"FieldParams(p={self.p}, d={self.d})"


class ExtElem(Record):
    """Element of F_{p^d}: its field and its coordinate tuple in the
    power basis.  It carries no arithmetic; ``poly`` computes on the
    coordinate tuples."""

    __match_args__ = __slots__ = ("field", "coeffs")
