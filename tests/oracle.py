"""Literal-definition oracles for the correlation measures and for the
field and polynomial kernels of the build path.

Each measure function enumerates every admissible (I, D, M) choice, and
every pattern W or relabeling where the measure has one, recomputes the
window sum afresh, and keeps the maximum with the lexicographically
smallest (I, D, M, W) key.  Nothing is pruned or shared between windows,
so the result is the definition itself; it is only fast enough for
families of a few short rows.

Every measure function returns ``(value, key)`` where ``key`` is
``None`` for an empty admissible space and otherwise the 0-based
(I, D, M[, W]) tuple.  ``sampled`` does the same for the sampled modes:
it replays their seeded draws and evaluates every window of each drawn
(I, D) from the definition.

The kernel references at the end use no precomputed map: irreducibility
is trial division by every monic candidate divisor, and conjugates are
literal p-th powers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from prsfam.ff import FieldParams
from prsfam.measures import _magnitude, _root_tables
from prsfam.poly import Poly


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


def _root_window(fam, I, D, m, phi_):
    """The window's root-sum magnitude from a count vector built afresh:
    the integer |c_0 - c_1| for k <= 2, else through
    ``measures._magnitude``, so that float values and their ties compare
    exactly as in the search."""
    k = fam.k
    counts = [0] * k
    for t in range(m):
        idx = sum(phi_[j][fam.rows[I[j]][t + D[j]]] for j in range(len(I)))
        counts[idx % k] += 1
    if k <= 2:
        return abs(counts[0] - (counts[1] if k == 2 else 0))
    return _magnitude(counts, *_root_tables(k))


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
    relabeling phi_j of {0..k-1}, each window's magnitude taken by
    ``_root_window``."""
    maps = list(permutations(range(fam.k)))

    def values():
        for I, D, m in _choices(fam, ell, False):
            for phi_ in product(maps, repeat=ell):
                yield _root_window(fam, I, D, m, phi_), (I, D, m, phi_)

    v, key = _best(values())
    if v is None:
        return (0 if fam.k <= 2 else 0.0), None
    return v, key


def sampled(name, fam, ell, seed, samples):
    """The sampled mode of ``name`` ("phi", "gamma" or "big_gamma").

    Replays the seeded draws of the sampled modes: per sample, I from
    ell draws in range(F), then D as ell draws in range(N), sorted; for
    big_gamma, after each admissible (I, D), one relabeling per tuple
    position.  Every window [D_j, D_j + M) of an admissible draw, every
    M from 1 to N - D_ell and, for gamma, every pattern is evaluated
    afresh; the maximum with the smallest (I, D, M[, W]) key wins.
    """
    k, n = fam.k, fam.length
    maps = list(permutations(range(k)))
    rng = random.Random(seed)

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
                    yield _root_window(fam, I, D, m, phi_), (I, D, m, phi_)

    v, key = _best(values())
    if v is None:
        return {"phi": 0, "gamma": Fraction(0),
                "big_gamma": 0 if k <= 2 else 0.0}[name], None
    return v, key


def irreducible_by_divisors(f):
    """f (degree >= 1, any leading coefficient) has no monic divisor of
    degree 1..deg(f)/2."""
    p, n = f.p, f.degree
    for m in range(1, n // 2 + 1):
        for rest in product(range(p), repeat=m):
            if (f % Poly(rest + (1,), p)).is_zero:
                return False
    return True


def conjugacy_representatives(p, d, trace_zero_only):
    """Coordinate tuples of the lexicographically first element of each
    conjugate orbit of degree exactly d, in lexicographic order.  Each
    conjugate is a literal ``** p``, and the trace is the sum of the
    orbit's elements."""
    field = FieldParams(p, d)
    seen = set()
    reps = []
    for coords in product(range(p), repeat=d):
        if coords in seen:
            continue
        alpha = field.elem(coords)
        orbit = [alpha]
        conj = alpha ** p
        while conj != alpha:
            orbit.append(conj)
            conj = conj ** p
        seen.update(c.coeffs for c in orbit)
        if len(orbit) != d:
            continue
        trace = field.zero
        for c in orbit:
            trace = trace + c
        if trace_zero_only and trace != field.zero:
            continue
        reps.append(coords)
    return reps
