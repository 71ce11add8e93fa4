"""Literal-definition oracles for the correlation measures and for the
field and polynomial kernels of the build path.

Each measure function enumerates every admissible (I, D, M) choice, and
every pattern W or relabeling where the measure has one, recomputes the
window sum afresh, and keeps the maximum with the lexicographically
smallest (I, D, M, W) key.  Nothing is pruned or shared between windows,
so the result is the definition itself; it is only fast enough for
families of a few short rows.

Every correlation function returns ``(value, key)`` where ``key`` is
``None`` for an empty admissible space and otherwise the 0-based
(I, D, M[, W]) tuple.  ``f_complexity`` returns the value and the first
uncovered (positions, pattern) pair, or ``None`` when every level is
covered.  ``sampled`` does the same for the sampled modes:
it replays their seeded draws and evaluates every window of each drawn
(I, D) from the definition.

For k >= 3 the big_gamma functions decide every comparison of window
magnitudes exactly (``_exact_square``) and report the float
``roots.magnitude`` of the winning window's counts for display.

The ``@dataclass(frozen=True)`` twins of the five record classes
(``Family``, ``CorrelationSpec``, ``PatternWitness``, ``MeasureResult``
and ``BoundReport``) are the classes as they were declared before they
became ``prsfam.errors.Record`` subclasses, without ``Family``'s
validation; ``test_records`` checks each class against its twin.

The kernel references at the end use no precomputed map: irreducibility
is trial division by every monic candidate divisor; extension elements
are coordinate tuples, and their product is the ``Poly`` product
reduced mod the field's modulus; a power is repeated multiplication,
conjugates are literal p-th powers, and a shift f(x + s) is the
expanded sum of c_i (x + s)^i.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

from prsfam.ff import FieldParams
from prsfam.poly import Poly
from prsfam.roots import magnitude


def f_complexity(fam):
    """The largest j such that every pattern in {0..k-1}^j is realized
    at every increasing j-tuple of positions by some row.  The first
    failing level j gives j - 1 and, as witness, the first position
    tuple (lex order) with an unrealized pattern and the smallest such
    pattern, both 0-based; N and ``None`` when no level fails."""
    n, k = fam.length, fam.k
    for j in range(1, n + 1):
        for positions in combinations(range(n), j):
            for pattern in product(range(k), repeat=j):
                if not any(all(row[q] == s for q, s in zip(positions, pattern))
                           for row in fam.rows):
                    return j - 1, (positions, pattern)
    return n, None


def _admissible(fam, I, D) -> bool:
    ell = len(I)
    return not any(fam.rows[I[a]] == fam.rows[I[b]] and D[a] == D[b]
                   for a in range(ell) for b in range(a + 1, ell))


def _choices(fam, ell, circ):
    """Every admissible (I, D, M); the zero-shift variants fix D = 0
    and M = N."""
    n, f = fam.length, fam.size
    shift_tuples = ([(0,) * ell] if circ
                    else combinations_with_replacement(range(n), ell))
    for D in shift_tuples:
        for I in product(range(f), repeat=ell):
            if not _admissible(fam, I, D):
                continue
            windows = [n] if circ else range(1, n - D[-1] + 1)
            for m in windows:
                yield I, D, m


def _best(candidates):
    best_v, best_k = None, None
    for v, key in candidates:
        if best_v is None or v > best_v or (v == best_v and key < best_k):
            best_v, best_k = v, key
    return best_v, best_k


def _phi_window(fam, I, D, m):
    total = 0
    for t in range(m):
        term = 1
        for j in range(len(I)):
            term *= 1 - 2 * fam.rows[I[j]][t + D[j]]
        total += term
    return abs(total)


def _gamma_window(fam, I, D, m, w):
    ell = len(I)
    count = sum(1 for t in range(m)
                if all(fam.rows[I[j]][t + D[j]] == w[j] for j in range(ell)))
    return abs(Fraction(count) - Fraction(m, fam.k**ell))


def _cyclotomic(k):
    """Phi_k's integer coefficients, low to high, from the product of
    x - zeta over the primitive k-th roots of unity."""
    poly = [1]
    for j in range(1, k + 1):
        if math.gcd(j, k) == 1:
            root = cmath.exp(2j * cmath.pi * j / k)
            poly = [a - root * b for a, b in zip([0] + poly, poly + [0])]
    return [round(c.real) for c in poly]


@lru_cache(maxsize=None)
def _decimal_cos(j, k):
    """cos(2 pi j / k) to the current Decimal precision: pi by the
    Decimal recipe's series, then the Taylor series of cos."""
    three = Decimal(3)
    last, t, pi, n, na, d, da = 0, three, three, 1, 0, 0, 24
    while pi != last:
        last = pi
        n, na, d, da = n + na, na + 8, d + da, da + 32
        t = t * n / d
        pi += t
    x = 2 * pi * j / k
    last, total, term, i = 0, Decimal(1), Decimal(1), 0
    while total != last:
        last = total
        i += 2
        term = -term * x * x / (i * (i - 1))
        total += term
    return total


@lru_cache(maxsize=None)
def _exact_square(counts):
    """|sum_j counts[j] zeta_k^j|^2 as a key that compares exactly.

    The square is sum_d A_d zeta^d with A_d = sum_i c_i c_(i+d mod k),
    reduced mod Phi_k to its unique coordinates r, which are equal
    exactly when the values are.  The key is (value, r), the value
    evaluated at 100 digits as sum_j r_j cos(2 pi j / k): two distinct
    values in Z[zeta_k] whose coordinates have absolute sum S differ by
    at least S^-(phi(k) - 1), their norm being a nonzero integer, far
    above the evaluation error for the oracle's window sizes."""
    k = len(counts)
    poly = [sum(counts[i] * counts[(i + d) % k] for i in range(k))
            for d in range(k)]
    phi_k = _cyclotomic(k)
    deg = len(phi_k) - 1
    for m in range(k - 1, deg - 1, -1):
        c = poly.pop()
        for i in range(deg):
            poly[m - deg + i] -= c * phi_k[i]
    with localcontext() as ctx:
        ctx.prec = 100
        value = sum((r * _decimal_cos(j, k) for j, r in enumerate(poly)
                     if r), Decimal(0))
    return value, tuple(poly)


def _root_window(fam, I, D, m, phi_):
    """The window's root-sum magnitude from a count vector built afresh,
    as (key, value): the integer |c_0 - c_1| twice for k <= 2, else
    the ``_exact_square`` key and the display float of
    ``roots.magnitude``."""
    k = fam.k
    counts = [0] * k
    for t in range(m):
        idx = sum(phi_[j][fam.rows[I[j]][t + D[j]]] for j in range(len(I)))
        counts[idx % k] += 1
    if k <= 2:
        v = abs(counts[0] - (counts[1] if k == 2 else 0))
        return v, v
    return _exact_square(tuple(counts)), magnitude(counts)


def phi(fam, ell, circ=False):
    """max |sum_{t<M} prod_j e(x_{I_j}[t + D_j])| with e(0)=1, e(1)=-1."""
    def values():
        for I, D, m in _choices(fam, ell, circ):
            yield _phi_window(fam, I, D, m), (I, D, m)

    v, key = _best(values())
    return (0, None) if v is None else (v, key)


def gamma(fam, ell, circ=False):
    """max |#{t < M : x_{I_j}[t + D_j] = W_j for all j} - M/k^ell|."""
    k = fam.k

    def values():
        for I, D, m in _choices(fam, ell, circ):
            for w in product(range(k), repeat=ell):
                yield _gamma_window(fam, I, D, m, w), (I, D, m, w)

    v, key = _best(values())
    return (Fraction(0), None) if v is None else (v, key)


def big_gamma_binary(fam, ell):
    """max |sum_{t<M} (-1)^(sum_j phi_j(x_{I_j}[t + D_j]))| over every
    relabeling phi_j of {0, 1}; for binary families only."""
    maps = list(permutations(range(2)))

    def values():
        for I, D, m in _choices(fam, ell, False):
            for phi_ in product(maps, repeat=ell):
                total = 0
                for t in range(m):
                    idx = sum(phi_[j][fam.rows[I[j]][t + D[j]]]
                              for j in range(ell))
                    total += 1 if idx % 2 == 0 else -1
                yield abs(total), (I, D, m, phi_)

    v, key = _best(values())
    return (0, None) if v is None else (v, key)


def big_gamma(fam, ell):
    """max |sum_{t<M} zeta_k^(sum_j phi_j(x_{I_j}[t + D_j]))| over every
    relabeling phi_j of {0..k-1}, each window's magnitude compared
    exactly by ``_root_window``'s key and reported as its value."""
    maps = list(permutations(range(fam.k)))
    shown = {}

    def values():
        for I, D, m in _choices(fam, ell, False):
            for phi_ in product(maps, repeat=ell):
                exact, shown[I, D, m, phi_] = _root_window(fam, I, D, m, phi_)
                yield exact, (I, D, m, phi_)

    v, key = _best(values())
    if v is None:
        return (0 if fam.k <= 2 else 0.0), None
    return shown[key], key


def sampled(name, fam, ell, seed, samples):
    """The sampled mode of ``name`` ("phi", "gamma" or "big_gamma").

    Replays the seeded draws of the sampled modes: per sample, I from
    ell draws in range(F), then D as ell draws in range(N), sorted; for
    big_gamma, after each admissible (I, D), one relabeling per tuple
    position.  Every window [D_j, D_j + M) of an admissible draw, every
    M from 1 to N - D_ell and, for gamma, every pattern is evaluated
    afresh; the maximum with the smallest (I, D, M[, W]) key wins, for
    big_gamma compared exactly as in ``big_gamma``.
    """
    k, n = fam.k, fam.length
    maps = list(permutations(range(k)))
    rng = random.Random(seed)
    shown = {}

    def values():
        for _ in range(samples):
            I = tuple(rng.randrange(fam.size) for _ in range(ell))
            D = tuple(sorted(rng.randrange(n) for _ in range(ell)))
            if not _admissible(fam, I, D):
                continue
            if name == "big_gamma":
                phi_ = tuple(maps[rng.randrange(len(maps))]
                             for _ in range(ell))
            for m in range(1, n - D[-1] + 1):
                if name == "phi":
                    yield _phi_window(fam, I, D, m), (I, D, m)
                elif name == "gamma":
                    for w in product(range(k), repeat=ell):
                        yield _gamma_window(fam, I, D, m, w), (I, D, m, w)
                else:
                    key = I, D, m, phi_
                    exact, shown[key] = _root_window(fam, I, D, m, phi_)
                    yield exact, key

    v, key = _best(values())
    if v is None:
        return {"phi": 0, "gamma": Fraction(0),
                "big_gamma": 0 if k <= 2 else 0.0}[name], None
    return shown.get(key, v), key


def irreducible_by_divisors(f):
    """f (degree >= 1, any leading coefficient) has no monic divisor of
    degree 1..deg(f)/2."""
    p, n = f.p, f.degree
    for m in range(1, n // 2 + 1):
        for rest in product(range(p), repeat=m):
            if (f % Poly(rest + (1,), p)).is_zero:
                return False
    return True


def field_elements(field):
    """Every element of the field as a coordinate tuple, in order."""
    return list(product(range(field.p), repeat=field.d))


def const(field, c):
    """The coordinate tuple of c in F_p, embedded in the field."""
    return (c % field.p,) + (0,) * (field.d - 1)


def add(field, a, b):
    return tuple((x + y) % field.p for x, y in zip(a, b))


def sub(field, a, b):
    return tuple((x - y) % field.p for x, y in zip(a, b))


def mul(field, a, b):
    """a * b on coordinate tuples: the ``Poly`` product, then the
    remainder mod the field's modulus, padded to d coordinates."""
    r = (Poly(a, field.p) * Poly(b, field.p)) % field.modulus
    return r.coeffs + (0,) * (field.d - len(r.coeffs))


def total(field, elems):
    """The sum of the elements, added one by one to the field's zero."""
    acc = const(field, 0)
    for a in elems:
        acc = add(field, acc, a)
    return acc


def prod(field, elems):
    """The product of the elements, multiplied one by one into the
    field's one."""
    acc = const(field, 1)
    for a in elems:
        acc = mul(field, acc, a)
    return acc


def power(field, a, e):
    """a^e for e >= 0, as e multiplications of the field's one by a."""
    return prod(field, [a] * e)


def conjugates(field, a):
    """The distinct conjugates a, a^p, a^(p^2), ... of a, each the
    literal p-th power of the one before."""
    orbit = [a]
    conj = power(field, a, field.p)
    while conj != a:
        orbit.append(conj)
        conj = power(field, conj, field.p)
    return orbit


def shifted(f, s):
    """f(x + s), expanded as the sum of c_i (x + s)^i."""
    p = f.p
    out, term = Poly((), p), Poly((1,), p)
    for c in f.coeffs:
        out = out + Poly((c,), p) * term
        term = term * Poly((s, 1), p)
    return out


def conjugacy_representatives(p, d, trace_zero_only):
    """Coordinate tuples of the lexicographically first element of each
    conjugate orbit of degree exactly d, in lexicographic order.  The
    orbit is ``conjugates``, and the trace is the sum of its
    elements."""
    field = FieldParams(p, d)
    seen = set()
    reps = []
    for coords in product(range(p), repeat=d):
        if coords in seen:
            continue
        orbit = conjugates(field, coords)
        seen.update(orbit)
        if len(orbit) != d:
            continue
        if trace_zero_only and any(total(field, orbit)):
            continue
        reps.append(coords)
    return reps


# --- dataclass twins of the record classes ---------------------------------


@dataclass(frozen=True)
class Family:
    p: int
    d: int
    k: int
    rows: tuple
    construction: str = "external"
    params: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class CorrelationSpec:
    ell: int
    window: int
    shifts: tuple
    rows: tuple
    pattern: tuple | None = None
    root_maps: tuple | None = None


@dataclass(frozen=True)
class PatternWitness:
    positions: tuple
    pattern: tuple


@dataclass(frozen=True)
class MeasureResult:
    name: str
    order: int
    value: object
    mode: str
    witness: object
    subject: str = "external"
    err_bound: float = 0.0


@dataclass(frozen=True)
class BoundReport:
    name: str
    kind: str
    params: dict = field(compare=False)
    theoretical: object = 0
    measured: object = 0
    satisfied: bool = True
    ratio: float | None = None
    note: str = ""
