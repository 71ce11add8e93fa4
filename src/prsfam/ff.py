"""Arithmetic over F_p and the integers: primality, the Mobius function,
Gauss's counts of the monic irreducibles, and the multiplicative
characters the sequence constructions evaluate.

Values are plain integers in [0, p).  The primitive root used by the
order-k character is chosen deterministically, so independent runs
agree bit for bit.  Polynomials and the extensions F_{p^d} live in
``poly``, which builds on this module and is not imported here, so
``verify`` compiles no polynomial code.

Every operation is a pure function; values can be shared freely across
threads.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, InternalError, ParameterError

__all__ = [
    "is_prime",
    "legendre",
    "primitive_root",
    "char_k",
    "mobius",
    "count_irreducibles",
    "count_trace_zero_irreducibles",
]


def __getattr__(name):
    # poly's ``is_irreducible``, read here only by perfbench's tracer,
    # which wraps ``ff.is_irreducible`` by name
    if name != "is_irreducible":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .poly import is_irreducible

    return is_irreducible


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


def _prime_divisors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    """0 when a square above 1 divides n, else (-1)^(number of primes
    dividing n): n is square-free exactly when it is the product of its
    prime divisors."""
    if n < 1:
        raise ParameterError("mobius is defined for n >= 1")
    primes = _prime_divisors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def count_irreducibles(p: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_p, by
    Gauss's formula (1/d) * sum over t | d of mobius(d/t) * p^t."""
    if d < 1:
        raise ParameterError(f"degree must be >= 1, got {d}")
    return sum(mobius(d // t) * p**t
               for t in range(1, d + 1) if d % t == 0) // d


def count_trace_zero_irreducibles(p: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_p whose
    x^(d-1) coefficient vanishes.

    Counts degree-d field elements with zero trace down to F_p and
    divides by the orbit size d.  For p not dividing d this equals the
    Mobius sum (1/(dp)) * sum over t | d of mobius(t) * p^(d/t); the
    subfield-exact inclusion-exclusion below also stays correct when
    p | d, where that closed form is not even an integer.
    """
    if d < 2:
        raise ParameterError(f"extension degree must be >= 2, got {d}")
    total = 0
    for t in range(1, d + 1):
        if d % t:
            continue
        # Elements of F_{p^t} with zero trace to F_p: all of them when
        # p divides the relative degree d/t, else a fraction 1/p.
        sub = p**t if (d // t) % p == 0 else p ** (t - 1)
        total += mobius(d // t) * sub
    if total % d:
        raise InternalError(f"trace-zero count not divisible by d={d}")
    return total // d


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
