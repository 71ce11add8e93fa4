"""Arithmetic over F_p and its extensions F_{p^d}, plus the
multiplicative characters the sequence constructions evaluate.

Prime-field values are plain integers in [0, p).  Extension elements
carry coordinate tuples in the polynomial basis 1, x, ..., x^(d-1) for a
fixed monic irreducible modulus.  The modulus and the primitive root
used by the order-k character are chosen deterministically, so
independent runs agree bit for bit.

Each field caches its p-power Frobenius as a d x d matrix over F_p
(the map is F_p-linear; see ``poly``), so a conjugate costs one
matrix-vector product.  ``ExtElem.conjugates`` is the one walk of the
Frobenius orbit; the trace and the minimal polynomial read it.

Every value is immutable and every operation is a pure function; values
can be shared freely across threads.
"""

from __future__ import annotations

import functools

from .errors import TYPE_CHECKING, DomainError, InternalError, ParameterError
from .poly import (
    Poly,
    _apply_rows,
    _frobenius_columns,
    _mulmod,
    _prime_divisors,
    first_irreducible,
    is_irreducible,
)

if TYPE_CHECKING:
    from typing import Iterable, Union

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
    """Arithmetic context for F_{p^d}: odd prime p, degree d >= 1, and a
    monic irreducible modulus defining the extension.

    ``frobenius_rows`` is the p-power map as a matrix acting on
    coordinate tuples: its column i holds (x^i)^p mod the modulus.
    """

    __slots__ = ("p", "d", "modulus", "_mod_coeffs", "frobenius_rows")

    def __init__(self, p: int, d: int, modulus: Poly | None = None):
        _check_odd_prime(p)
        if d < 1:
            raise ParameterError(f"extension degree must be >= 1, got {d}")
        if modulus is None:
            modulus = _default_modulus(p, d)
        else:
            if modulus.p != p:
                raise ParameterError("modulus is over the wrong prime field")
            if modulus.degree != d or not modulus.is_monic:
                raise ParameterError(
                    f"modulus must be monic of degree {d}, got {modulus}")
            if not is_irreducible(modulus):
                raise ParameterError(f"modulus {modulus} is reducible")
        self.p = p
        self.d = d
        self.modulus = modulus
        self._mod_coeffs = modulus.coeffs
        self.frobenius_rows = tuple(zip(*_frobenius_columns(modulus)))

    def elem(self, value: Union[int, Iterable[int]]) -> "ExtElem":
        """Build an element from an integer (embedded constant) or a
        coordinate sequence of length <= d."""
        if isinstance(value, int):
            coords = (value % self.p,) + (0,) * (self.d - 1)
        else:
            cs = [c % self.p for c in value]
            if len(cs) > self.d:
                raise ParameterError(
                    f"too many coordinates for degree-{self.d} extension")
            coords = tuple(cs) + (0,) * (self.d - len(cs))
        return ExtElem(self, coords)

    @property
    def zero(self) -> "ExtElem":
        return self.elem(0)

    @property
    def one(self) -> "ExtElem":
        return self.elem(1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldParams):
            return NotImplemented
        return (self.p, self.d, self._mod_coeffs) == (
            other.p, other.d, other._mod_coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.d, self._mod_coeffs))

    def __repr__(self) -> str:
        return f"FieldParams(p={self.p}, d={self.d}, modulus={self.modulus})"


class ExtElem:
    """Element of F_{p^d} as a coordinate tuple in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldParams, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check_same(self, other: "ExtElem") -> None:
        if not isinstance(other, ExtElem) or self.field != other.field:
            raise ParameterError("operands belong to different fields")

    def __add__(self, other: "ExtElem") -> "ExtElem":
        self._check_same(other)
        p = self.field.p
        return ExtElem(self.field, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ExtElem") -> "ExtElem":
        self._check_same(other)
        p = self.field.p
        return ExtElem(self.field, tuple(
            (a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "ExtElem") -> "ExtElem":
        self._check_same(other)
        field = self.field
        return ExtElem(field, tuple(_mulmod(
            self.coeffs, other.coeffs, field._mod_coeffs, field.p)))

    def frobenius(self) -> "ExtElem":
        """The p-power map; applying it d times is the identity.

        One product with the field's cached Frobenius matrix, which
        equals the p-th power of self because the map is F_p-linear.
        """
        field = self.field
        return ExtElem(field, _apply_rows(
            field.frobenius_rows, self.coeffs, field.p))

    def conjugates(self) -> list["ExtElem"]:
        """self^(p^t) for t = 0..d-1; an element of degree t repeats
        its t distinct conjugates d/t times."""
        out = [self]
        for _ in range(self.field.d - 1):
            out.append(out[-1].frobenius())
        return out

    def base_value(self, what: str) -> int:
        """The element as an integer of F_p; ``what`` names it in the
        InternalError raised when it lies outside F_p."""
        if any(self.coeffs[1:]):
            raise InternalError(f"{what} escaped the base field")
        return self.coeffs[0]

    def trace(self) -> int:
        """Sum of the d conjugates, landing in F_p."""
        conj = self.conjugates()
        return sum(conj[1:], conj[0]).base_value("trace")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtElem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.field.p, self.field.d))

    def __repr__(self) -> str:
        return f"ExtElem{self.coeffs}"
