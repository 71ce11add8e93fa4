"""Sums of k-th roots of unity for k >= 3: exact comparison of their
magnitudes, their display float (``magnitude``), and the big_gamma
kernels built on it.

A sum z = sum_j c_j zeta_k^j with integer counts c has
|z|^2 = sum_d A_d zeta^d, A_d = sum_i c_i c_(i+d mod k), a real element
of Z[zeta_k] (A_d = A_(k-d)).  Two squares compare as the sign of the
difference of their A vectors, which ``sign`` decides exactly with one
fixed-point evaluation at a precision that the norm of an algebraic
integer proves sufficient.  ``Magnitude`` compares by a float first and
falls back to ``sign`` only when the float cannot decide.

The kernels read a relabeling tuple phi through the index sequence
sum_j phi_j(x_j) mod k of the shifted rows and its complex prefix
points Q[0..L]; the window [s, e) has magnitude |Q[e] - Q[s]|.
Floats stand for exact values within err(L) = (L + 1)^2 * 2^-44: each
root is within 2^-48 of its value and each of the L prefix additions
rounds by at most L * 2^-53, so a coordinate of Q[n] is within
(L + 1)^2 * 2^-48 = err(L)/16 and a magnitude |Q[e] - Q[s]|, with its
rounding, within err(L)/4.  A float gap beyond the errors decides a
comparison, and ``Magnitude`` decides the others.
Ties go to the smallest s, then e, then phi.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, islice, permutations, product, repeat
from operator import mul, sub


@lru_cache(maxsize=None)
def cos_fixed(k: int, bits: int) -> list[int]:
    """2^bits * cos(2 pi j / k) for j < k, each within 2 units: pi by
    Machin's formula, cos by its Taylor series, both in integers with 32
    guard bits that absorb their truncation errors."""
    one = 1 << (bits + 32)

    def atan_inv(x: int) -> int:  # one * atan(1/x)
        total, term, n = 0, one // x, 1
        while term:
            total += term // n if n % 4 == 1 else -(term // n)
            term //= x * x
            n += 2
        return total

    pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    out = []
    for j in range(k):
        x = 2 * pi * min(j, k - j) // k  # the angle, in [0, pi]
        total, term, i = one, one, 0
        while term:
            i += 2
            term = term * x // one * x // one // (i * (i - 1))
            total += -term if i % 4 == 2 else term
        out.append(total >> 32)
    return out


def sign(r: list[int], k: int) -> int:
    """The sign of x = sum_j r_j zeta_k^j for any integer vector r whose
    value x is real, as a symmetric one r_j = r_(k-j) is, reduced mod
    Phi_k or not: one fixed-point evaluation of its real part
    sum_j r_j cos(2 pi j / k) at a precision proven to decide it.

    Let s = sum_j |r_j| and m = phi(k)/2.  x is an algebraic integer,
    so a nonzero x has a norm that is a nonzero integer: the product of
    its phi(k) conjugates sum_j r_j zeta^(a j), gcd(a, k) = 1.  Each
    conjugate is at most s in size, and x itself is two of them
    (a = +-1), so |x|^2 s^(2m - 2) >= 1: a nonzero x has
    |x| >= s^(1 - m).  Each ``cos_fixed`` entry is within 2 units, so
    v = sum_j r_j cos_fixed(k, bits)[j] is within 2s units of 2^bits x.
    At 2^bits > 4 s^m, a nonzero x has |2^bits x| > 4s, so |v| > 2s
    and v has the sign of x, while x = 0 gives |v| <= 2s.  bits is the
    first of 64, 128, 256, ... with 2^bits > 4 s^m."""
    s = sum(map(abs, r))
    m = sum(math.gcd(j, k) == 1 for j in range(k)) // 2
    bits = max(64, 1 << ((4 * s**m).bit_length() - 1).bit_length())
    v = sum(map(mul, r, cos_fixed(k, bits)))
    return (v > 2 * s) - (v < -2 * s)


class Magnitude:
    """|sum_j counts[j] zeta_k^j| for k >= 3, with a float ``f`` within
    ``err`` of it; compares exactly with another one or with an int."""

    __slots__ = ("f", "err", "counts", "_square")

    def __init__(self, f: float, err: float, counts: tuple[int, ...]):
        self.f, self.err, self.counts, self._square = f, err, counts, None

    def square(self) -> list[int]:
        """|z|^2 = sum_d A_d zeta^d as its autocorrelation
        A_d = sum_i c_i c_(i+d mod k), a real element that ``sign``
        reads."""
        if self._square is None:
            c = self.counts
            self._square = [sum(map(mul, c, c[d:] + c[:d]))
                            for d in range(len(c))]
        return self._square

    def compare(self, other) -> int:
        """-1, 0 or 1 as self is below, equal to or above ``other``: by
        the floats when their gap exceeds both errors, else exactly."""
        if not isinstance(other, Magnitude):  # an int n is |n * zeta^0|
            other = Magnitude(float(other), 0.0,
                              (other,) + (0,) * (len(self.counts) - 1))
        gap, slack = self.f - other.f, self.err + other.err
        if abs(gap) > slack:
            return 1 if gap > 0 else -1
        return sign(list(map(sub, self.square(), other.square())),
                    len(self.counts))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __eq__(self, other):
        return self.compare(other) == 0

    __hash__ = None


@lru_cache(maxsize=None)
def _roots(k: int) -> list[complex]:
    return [complex(math.cos(2.0 * math.pi * j / k),
                    math.sin(2.0 * math.pi * j / k)) for j in range(k)]


def magnitude(counts) -> float:
    """|sum_j counts[j] zeta_k^j|, k = len(counts), as a float: the
    display value of a k >= 3 big_gamma window."""
    roots = _roots(len(counts))
    re = 0.0
    im = 0.0
    for j, c in enumerate(counts):
        if c:
            re += c * roots[j].real
            im += c * roots[j].imag
    return math.hypot(re, im)


def _prefix(maps, seqs, size: int):
    """The index sequence of the relabeling tuple ``maps`` over the
    shifted rows ``seqs`` (the shortest has length ``size``), its
    prefix points, and err(size)."""
    k = len(maps[0])
    idx = [sum(t) % k for t in zip(*(map(m.__getitem__, seq)
                                     for m, seq in zip(maps, seqs)))]
    return (idx, list(accumulate(map(_roots(k).__getitem__, idx),
                                 initial=0j)), (size + 1)**2 * 2.0**-44)


def _reach(Q: list, starts: range) -> float:
    """A float r with r + err at least the exact magnitude of every
    window [s, e), s in ``starts``, of the float prefix points Q, err
    being err(L).

    Each coordinate of Q[n] is within err/16 of its exact value.  When
    every window starts at 0, as in a pinned draw, a window is
    Q[e] - Q[0] = Q[e], since Q[0] = 0j exactly, and r is the largest
    |Q[e]|: the exact |Q[e]| is within err/4 of its float.  Otherwise
    r is the diagonal of the float points' bounding box.  Every window
    Q[e] - Q[s] joins two prefix points, so its exact magnitude is at
    most the diagonal of the exact points' box, and that is at most the
    float diagonal plus err."""
    if starts == range(1):
        return max(map(abs, Q))
    xs = [q.real for q in Q]
    ys = [q.imag for q in Q]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def _walk(k, idx, Q, err, starts, floor, best, phi):
    """Offer the windows [s, e), s in ``starts``, of one relabeling
    tuple: a window wins over ``best`` (s, e, phi, value) on a larger
    value or an equal one with a smaller (s, e), and the first must
    reach ``floor``.

    A window whose float is below thr = top.f - top.err - err, top the
    best value or the floor, is strictly below top, so only the others
    are compared.  The tuple is skipped unwalked when
    ``_reach(Q, starts)`` + 2 err is below thr: every window of it is
    then below thr - err < top.f - top.err <= top, so it can neither
    beat nor tie the best value."""
    top = best[3] if best else floor
    thr = 0 if top is None else top.f - top.err - err
    if _reach(Q, starts) + 2 * err < thr:
        return best
    for s in starts:
        lo = s + max(int(thr - err), 1)  # a magnitude is at most M
        vals = list(map(abs, map(sub, Q[lo:], repeat(Q[s]))))
        if not vals or max(vals) < thr:
            continue
        for e, v in enumerate(vals, lo):
            if v < thr:
                continue
            mag = Magnitude(v, err, tuple(map(idx[s:e].count, range(k))))
            if best is None:
                wins = floor is None or mag.compare(floor) >= 0
            else:
                c = mag.compare(best[3])
                wins = c > 0 or (c == 0 and (s, e) < best[:2])
            if wins:
                best = s, e, phi, mag
                thr = max(thr, v - 2 * err)
    return best


def windows_kernel(k: int, ell: int):
    """The exact big_gamma kernel of the lag-prefix engine.  It takes
    only the rotation-class representatives, phi_j(0) = 0 for every j,
    (k-1)!^ell tuples: adding c to phi_j turns every term by zeta^c and
    leaves every magnitude unchanged, and the representative is the
    lex-smallest map of its class, so under exact comparison the
    witness is that of all k!^ell tuples.  ``_walk`` skips a
    representative whose windows all lie clearly below the best value
    so far, and walks the windows of the others.  The
    representatives are the first (k-1)! maps in lex order, those of
    ``itertools.permutations``."""
    reps = list(islice(permutations(range(k)), math.factorial(k - 1)))

    def windows(seqs, size: int, floor, reading: str = "windows"):
        best = None
        for phi in product(range(len(reps)), repeat=ell):
            idx, Q, err = _prefix([reps[c] for c in phi], seqs, size)
            best = _walk(k, idx, Q, err, range(size), floor, best, phi)
        if best is None:
            return None
        s, e, phi, mag = best
        return mag, s, e, tuple(reps[c] for c in phi)

    return windows


def pinned(maps, seqs, size: int, floor, reading: str = "pinned"):
    """The sampled big_gamma kernel for one relabeling tuple: the
    windows [0, e), the earliest of the exact largest, as the "pinned"
    reading of ``measures._search`` asks, skipped by ``_walk`` when its
    largest prefix point lies clearly below the best value."""
    idx, Q, err = _prefix(maps, seqs, size)
    best = _walk(len(maps[0]), idx, Q, err, range(1), floor, None, maps)
    return None if best is None else (best[3], 0, best[1], maps)
