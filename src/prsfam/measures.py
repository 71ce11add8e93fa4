"""Exact and sampled evaluation of the family randomness measures.

Measures: the covering complexity ``f_complexity`` (largest pattern
size realized at every position tuple), the windowed product
correlation ``cross_correlation`` and its zero-shift full-window
restriction ``cross_correlation_circ`` for binary families, and the
k-symbol measures ``gamma``/``gamma_circ`` (pattern-count deviation
from M/k^ell) and ``big_gamma`` (root-of-unity relabelings).

Shift/index admissibility, shared by all correlation measures: shifts
are non-decreasing with the window fitting inside the rows, and two
tuple positions selecting equal row contents must use distinct shifts.
With all shifts zero this forbids repeated and duplicate-content rows.

Lag-prefix engine.  Every exact correlation search runs in
``_lag_search``: it fixes a row tuple I and a lag tuple
T = (0, d2-d1, ..., d_ell-d1), builds one sequence of length
L = N - T[-1] per (I, T), and reads each window (d1, M) as [s, e) with
s = d1, e = d1 + M.  phi and gamma use one prefix array P and read a
window as P[e] - P[s]: phi is max P - min P, O(L) per (I, T), and gamma
tracks Q_W[n] = k^ell * C_W[n] - n, whose extremes lie only at
occurrences of W, at 0 and at L: O(L + k^ell).  The zero-shift variants
are the case T = 0, s = 0, e = N.  ``big_gamma`` for k <= 2 is phi,
since relabeling {0, 1} only flips signs; for k >= 3 it takes one
relabeling tuple per rotation class, skips those whose prefix points
span a box clearly below the best value, walks the windows of the
others, and compares magnitudes exactly (``roots``).  I takes
only the first row with each content, and positions with equal lags
form a block inside which I strictly increases: the lex-smallest tuple
of each class that permuting a block or swapping a row for an equal
one leaves equal.  Those (I, T) are one enumeration, the strictly
increasing ell-tuples of (lag, first row) pairs whose first lag is 0,
walked by their last pair (``_lag_search``).
The search is serial; ``n_jobs`` is accepted and ignored.

Largest window first.  Every window value of a length-L sequence has an
a-priori cap: L for phi, L * max(k^ell - 1, 1) for the scaled gamma
|k^ell * C - M|, and L for a k >= 3 big_gamma magnitude (at most M),
compared exactly.  The search visits T by increasing T[-1], so L never
increases, and stops at the first T whose cap is strictly below the
best value found.  No skipped T can reach that value, every T that
could tie it is still visited, and ties are decided by key, not by
visit order, so values and witnesses are exactly those of the full
search.

Per-tuple cap.  A phi or gamma kernel first bounds every window of its
sequence in one C-level pass, and returns None without walking when the
bound is strictly below the best value so far (the floor).  phi: with a
terms +1 and b terms -1, |P[e] - P[s]| <= max(a, b) = (L + |S|) / 2, S
the whole sum.  gamma: a code that occurs C times gives every window at
most max((k^ell - 1) * C, L), as k^ell * C_w - M <= (k^ell - 1) * C_w
and M - k^ell * C_w <= L.  Both hold for every reading and for k <= 2
big_gamma.  They are at least L/2 and L, so the pass runs only when the
floor exceeds that.  The stop is strict: every tuple that could tie is
walked and offered, so values, witnesses and draw streams are those of
the full walk.

One search.  Every correlation measure runs ``_search``: one budget
check, the empty result when ell > C * N (ell > C at zero shift, C
distinct rows), then the rows and the kernel are built and
``_lag_search`` runs, or in sampled mode each admissible seeded draw
(I, D) of ``_sampled_draws``.  A draw takes each index as
``randrange(n)`` does, calling ``getrandbits(n.bit_length())`` until it
is below n, so the stream is that of ``randrange``, and is admissible
when its ell pairs (row content, shift) are distinct, one set.  A draw
of window length L with cap * L strictly below the best value (the caps
below) is skipped before its rows are sliced; big_gamma draws its
relabeling first.  Every kernel takes (seqs, size, floor, reading) and
reads every window ("windows"), the full window ("full") or, for a
draw, only the windows [0, M) of its shifted rows ("pinned"): phi takes
max |P[e]| over e >= 1 from its prefix array; gamma reads its
occurrence statistics at s = 0, the larger of max Q_W and -min Q_W, in
O(L + k^ell); big_gamma draws one relabeling tuple per draw and walks
its windows from s = 0.

Ties go to the lexicographically smallest (I, D, M, pattern or
relabeling) witness (inside one (I, T): smallest s, then e, then W;
inside one draw: smallest e, then W).  Witnesses use 1-based row
indices and positions.

Every exact search precomputes a loop-count estimate and refuses with a
``BudgetError`` rather than running unbounded.  It counts the steps of
the full search, the sum over T of (I count) * L, times k^ell for
gamma; for k >= 3 big_gamma, (I count) * L(L+1)/2 * (k!)^ell, the
walk of every window and relabeling, which bounds the
(k-1)!^ell * (L + 1 + L(L+1)/2) steps of its rotation-class search.
``_lag_estimate`` gives its closed form, a sum of binomials in N, C and
ell.  Both stops above only remove steps, so the estimate is an upper
bound on the steps taken, usually a loose one.  A sampled search counts
the 2 ell indices of every sample and the work of a pinned draw:
samples * (2 ell + (ell + 1) * N) for phi,
samples * (2 ell + ell * N + min(N, k^ell) + 1) for gamma, and
samples * (3 ell + (ell + 1) * N) for big_gamma, with its ell
relabelings.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, count, islice, product
from operator import add, getitem, mul

from .construct import Family
from .errors import (DEFAULT_BUDGET, TYPE_CHECKING, InternalError,
                     ParameterError, Record, _shown, check_budget)

if TYPE_CHECKING:
    from typing import Optional, Union

    Value = Union[int, Fraction, float]

__all__ = [
    "CorrelationSpec",
    "PatternWitness",
    "MeasureResult",
    "f_complexity",
    "cross_correlation",
    "cross_correlation_circ",
    "gamma",
    "gamma_circ",
    "big_gamma",
    "evaluate_witness",
    "DEFAULT_BUDGET",
]

MODE_EXACT = "exact"
MODE_SAMPLED = "sampled-lower-bound"
MODE_VERIFIED_LB = "verified-lower-bound"


class CorrelationSpec(Record):
    """A correlation witness: order ell, window length M, shifts D, row
    indices I (1-based), and for the k-symbol measures the pattern W or
    the root relabelings (one permutation of 0..k-1 per position), each
    None where it does not apply.  Tuples of ints throughout."""

    __match_args__ = __slots__ = ("ell", "window", "shifts", "rows",
                                  "pattern", "root_maps")
    _defaults = {"pattern": None, "root_maps": None}

    def validate(self, fam: Family) -> None:
        ell, m, d, i = self.ell, self.window, self.shifts, self.rows
        if ell < 1 or len(d) != ell or len(i) != ell:
            raise ParameterError("shift/index tuples must have length ell")
        if any(d[j] > d[j + 1] for j in range(ell - 1)) or d[0] < 0:
            raise ParameterError("shifts must satisfy 0 <= d_1 <= ... <= d_ell")
        if m < 1 or m + d[-1] > fam.length:
            raise ParameterError("window must satisfy 1 <= M and M + d_ell <= N")
        if not all(1 <= idx <= fam.size for idx in i):
            raise ParameterError("row indices must lie in 1..F")
        if len(set(zip([fam.rows[idx - 1] for idx in i], d))) != ell:
            raise ParameterError("equal rows must carry distinct shifts")
        symbols = range(fam.k)
        if self.pattern is not None and (
                len(self.pattern) != ell
                or not all(w in symbols for w in self.pattern)):
            raise ParameterError("pattern must be ell symbols in 0..k-1")
        if self.root_maps is not None and (
                len(self.root_maps) != ell
                or any(sorted(m) != list(symbols) for m in self.root_maps)):
            raise ParameterError(
                "one root relabeling of 0..k-1 per tuple position")


class PatternWitness(Record):
    """An uncovered specification: positions (1-based, increasing) and
    the symbol pattern no family row realizes there, as int tuples."""

    __match_args__ = __slots__ = ("positions", "pattern")


class MeasureResult(Record):
    """A measure value with its certificate: the measure's name, its
    order (0 for ``f_complexity``), the value (an int, Fraction or
    float), the mode, the witness (a ``CorrelationSpec``,
    ``PatternWitness`` or None), the subject's construction tag, and
    ``err_bound``.

    ``witness`` re-evaluates to ``value`` exactly (``evaluate_witness``);
    it is ``None`` when the value comes from an a-priori cap or an empty
    admissible space.  ``mode`` is "exact" or "sampled-lower-bound".
    The third mode, "verified-lower-bound", labels the certified level
    that ``measure`` reports when ``f_complexity`` runs out of budget
    (``BudgetError.verified_lower_bound``); no search returns it.
    ``err_bound`` is the floating-point slack of the reported magnitude
    (zero whenever the value is exact integer/rational arithmetic); the
    searches decide every comparison exactly, so it describes only the
    displayed float.
    """

    __match_args__ = __slots__ = ("name", "order", "value", "mode",
                                  "witness", "subject", "err_bound")
    _defaults = {"subject": "external", "err_bound": 0.0}


class _Best:
    """Deterministic max-tracker: highest value wins, ties go to the
    lexicographically smallest key, whatever the order of the offers."""

    __slots__ = ("value", "key")

    def __init__(self):
        self.value = None
        self.key = None

    def offer(self, value, key) -> None:
        if (self.value is None or value > self.value
                or (value == self.value and key < self.key)):
            self.value = value
            self.key = key


def _first_rows(fam: Family) -> list[int]:
    """Per row, the index of the first row with its contents."""
    first: dict[tuple[int, ...], int] = {}
    return [first.setdefault(row, i) for i, row in enumerate(fam.rows)]


def _empty(fam: Family, ell: int, circ: bool) -> bool:
    """Whether no (I, D) is admissible: the ell positions need distinct
    (row content, shift) pairs, C * N of them (C at zero shift), C the
    number of distinct rows."""
    return ell > len(set(fam.rows)) * (1 if circ else fam.length)


def _require(ell: int, mode: str = MODE_EXACT, samples: int = 1) -> None:
    # an order and a sample count are ints >= 1, and a bool is not one
    sampled = mode == MODE_SAMPLED
    for name, n in (("order", ell), ("sample count", samples))[:1 + sampled]:
        if type(n) is not int or n < 1:
            raise ParameterError(
                f"{name} must be an integer >= 1, got {_shown(n)}")
    if not sampled and mode != MODE_EXACT:
        raise ParameterError(f"unknown mode {mode!r}")


def _result(fam: Family, name: str, ell: int, mode: str, best: _Best,
            zero: Value, scale: Optional[int] = None, field: str = "",
            err: float = 0.0) -> MeasureResult:
    """The result of a search whose best key is (I, D, M, extra): the
    value, as ``Fraction(value, scale)`` when a scale is given, and the
    witness, with ``extra`` as its ``field``; ``zero`` when the
    admissible space is empty."""
    if best.value is None:
        return MeasureResult(name, ell, zero, mode, None,
                             subject=fam.construction, err_bound=err)
    I, D, m, extra = best.key
    witness = CorrelationSpec(ell=ell, window=m, shifts=D,
                              rows=tuple(i + 1 for i in I),
                              **({field: extra} if field else {}))
    value = best.value if scale is None else Fraction(best.value, scale)
    return MeasureResult(name, ell, value, mode, witness,
                         subject=fam.construction, err_bound=err)


# ---------------------------------------------------------------------------
# covering complexity


def f_complexity(fam: Family, budget: Optional[int] = None) -> MeasureResult:
    """Largest j such that every symbol pattern at every increasing
    j-tuple of positions is realized by some row.

    Ascends j from 1 and stops at the first failing level, returning
    j-1 with the uncovered (positions, pattern) pair as witness.  The
    patterns are read from the C distinct rows, which realize at most C
    of the k^j, so any level past floor(log_k C) fails at its very
    first position tuple: the full scans are capped a priori by that
    bound and the final certificate costs one projection.  When every
    level up to N passes (witness None) the value is N.  Exceeding the
    budget raises a ``BudgetError`` whose ``verified_lower_bound`` holds
    the last fully certified level.
    """
    n, k, rows = fam.length, fam.k, set(fam.rows)
    c = len(rows)
    budget = check_budget(0, budget, "f_complexity")  # resolves it
    if k == 1:
        return MeasureResult("f_complexity", 0, n, MODE_EXACT, None,
                             subject=fam.construction)
    spent = 0
    for j in range(1, n + 1):
        full_scan = k**j <= c
        spent += (math.comb(n, j) if full_scan else 1) * (c * j + k**j)
        check_budget(spent, budget, f"certifying level {j}",
                     verified_lower_bound=j - 1)
        for positions in combinations(range(n), j):
            realized = {tuple(row[q] for q in positions) for row in rows}
            if len(realized) == k**j:
                continue
            for pat in product(range(k), repeat=j):
                if pat not in realized:
                    witness = PatternWitness(
                        positions=tuple(q + 1 for q in positions), pattern=pat)
                    return MeasureResult("f_complexity", 0, j - 1, MODE_EXACT,
                                         witness, subject=fam.construction)
    return MeasureResult("f_complexity", 0, n, MODE_EXACT, None,
                         subject=fam.construction)


# ---------------------------------------------------------------------------
# lag-prefix search engine


def _combine(op, seqs):
    """Termwise ``op`` over the sequences, as long as the shortest."""
    it = seqs[0]
    for seq in seqs[1:]:
        it = map(op, it, seq)
    return it


def _lag_estimate(fam: Family, ell: int, circ: bool,
                  windows: bool = False) -> int:
    """Sequence steps of a lag search: sum over T of (row tuples for T)
    * L, or * L(L+1)/2 when every window is walked.

    The T with r distinct lags 0 = u_1 < ... < u_r < N (only r = 1 when
    ``circ``) have L = N - u_r, which sums to C(N, r) over them, and
    L(L+1)/2 to C(N+1, r+1).  Blocks of b_1 + ... + b_r = ell tied lags
    take prod C(C, b_i) row tuples, C distinct rows, which sums over the
    b_i to [x^ell] ((1 + x)^C - 1)^r = sum_i (-1)^(r-i) C(r, i) C(C i, ell),
    0 when ell > C r.
    """
    n, w, c = fam.length, int(windows), len(set(fam.rows))
    return sum(math.comb(n + w, r + w)
               * sum((-1)**(r - i) * math.comb(r, i) * math.comb(c * i, ell)
                     for i in range(r + 1))
               for r in range(1, (1 if circ else min(ell, n)) + 1))


def _lag_search(fam: Family, rows_at, ell: int, circ: bool, kernel,
                cap: int) -> _Best:
    """Maximize ``kernel`` over the canonical admissible (I, T) pairs:
    each row the first with its contents, strictly increasing inside a
    block of tied lags.

    ``rows_at[j]`` holds the rows as read at tuple position j.  The
    kernel gets the shifted rows of one (I, T), L, the best value so far
    and "windows" ("full" when ``circ``), and returns None below that
    value, else (value, s, e, extra) for its best window [s, e): the key
    (I, s + T, e - s, extra).  It may return None before its walk when
    its per-tuple cap is strictly below that value; a tuple whose cap
    ties it is walked and offered.

    No other I holds the lex-smallest maximal key: replacing each row by
    the first with its contents, then sorting each tied-lag block (its
    pattern or relabelings with it), reads the same sequences, so keeps
    the value, and gives a componentwise no larger tuple, then a lex no
    larger one, smaller unless I was canonical.  Equal contents at one
    lag are inadmissible, so a block is a b-subset of the first rows.

    One enumeration walks them.  With C first rows, pair q = t * C + x
    reads row ``firsts[x]`` at lag t, so q orders the pairs by (lag,
    row).  A canonical (I, T) is exactly a strictly increasing ell-tuple
    of pairs whose first pair has lag 0 (q < C): its lags do not
    decrease, tied lags take increasing rows, and distinct pairs hold
    distinct (contents, lag), so it is admissible; conversely a
    canonical (I, T) lists its pairs in increasing q.  Each tuple is a
    head, an (ell-1)-subset of range(b), and its last pair b.  A head
    with least pair below C comes, in the lex order of
    ``combinations(range(b), ell - 1)``, before every head inside
    [C, b), C(b - C, ell - 1) of them, so the lag-0 heads are the first
    C(b, ell - 1) - C(b - C, ell - 1) (all of them when b < C).  With
    ell = 1 the one pair is the first, so only lag 0 is walked.

    ``cap * L`` bounds every window value of a length-L sequence.  The
    last lags u = T[-1] are visited in increasing order, so L = N - u
    never increases, and the search stops at the first u with
    cap * L < best value: no later tuple can reach that value, let alone
    beat it.  The stop is strict, so every tie is still offered to
    ``_Best``, which keeps the lex-smallest key whatever the visit
    order; values and witnesses are those of the full search.
    """
    ids = _first_rows(fam)
    firsts = [i for i, f in enumerate(ids) if i == f]
    n, c = fam.length, len(firsts)
    reading = "full" if circ else "windows"
    lags = range(1 if circ or ell == 1 else n)
    pairs = range(c * len(lags))
    # position 0 reads lag 0 only
    shifted = [[rows_at[j][firsts[q % c]][q // c:]
                for q in (pairs[:c] if j == 0 else pairs)]
               for j in range(ell)]
    best = _Best()
    for u in lags:
        size = n - u
        if best.value is not None and cap * size < best.value:
            break
        for b in pairs[u * c:(u + 1) * c]:
            heads = combinations(range(b), ell - 1)
            if b >= c:
                heads = islice(heads, math.comb(b, ell - 1)
                               - math.comb(b - c, ell - 1))
            last = shifted[-1][b]
            for head in heads:
                found = kernel([*map(getitem, shifted, head), last], size,
                               best.value, reading)
                if found is not None:
                    value, s, e, extra = found
                    pick = head + (b,)
                    best.offer(value, (tuple(firsts[q % c] for q in pick),
                                       tuple(s + q // c for q in pick),
                                       e - s, extra))
    return best


def _indices(rng: random.Random, n: int):
    """Endless seeded indices in range(n), each drawn as
    ``rng.randrange(n)`` draws it: getrandbits(n.bit_length()), again
    while it is n or more, so the words taken are exactly those of
    ``randrange``.  Lazy: a word is taken only when an index is asked for."""
    return filter(n.__gt__, iter(partial(rng.getrandbits, n.bit_length()),
                                 None))


def _sampled_draws(fam: Family, ell: int, rng: random.Random, samples: int):
    """The sampled modes' seeded draws: (I, D, L) for each admissible
    draw, the window starting at D[0].  Per sample, I is ell indices
    below F and D the sorted ell indices below N that follow it; the
    draw is admissible when its ell (row content, shift) pairs are
    distinct.  Lazy, so a caller may draw more from ``rng`` between
    items without changing the sequence."""
    n, ids = fam.length, _first_rows(fam)
    rows, shifts = _indices(rng, fam.size), _indices(rng, n)
    for _ in range(samples):
        I = tuple(islice(rows, ell))
        D = tuple(sorted(islice(shifts, ell)))
        if len(set(zip(map(ids.__getitem__, I), D))) == ell:
            yield I, D, n - D[-1]


def _search(fam: Family, rows_at, ell: int, mode: str, make_kernel,
            cap: int, estimate: int, budget: Optional[int], what: str,
            rng: Optional[random.Random] = None, samples: int = 0,
            circ: bool = False) -> _Best:
    """Every correlation search: the budget check of ``estimate``, the
    empty result when no (I, D) is admissible, then the rows as read at
    each tuple position j, ``rows_at(j)``, and the kernel are built, so
    a refusal builds nothing, and ``_lag_search`` runs, or in sampled
    mode the "pinned" reading of a kernel over ``_sampled_draws``.

    A draw (I, D, L) reads only the windows [0, M) of its shifted rows
    ``rows_at(j)[I[j]][D[j]:]``.  The kernel returns None below the best
    value so far, else (value, 0, e, extra) for its best window [0, e),
    ties going to the earliest e: the key (I, D, e, extra).  A kernel is
    made per draw (big_gamma's draws its relabeling), then a draw with
    ``cap * L`` strictly below the best value is skipped unsliced; ties
    are still read, so values, witnesses and the stream are unchanged.
    """
    kind = "sampled" if mode == MODE_SAMPLED else "exact"
    check_budget(estimate, budget, f"{kind} order-{_shown(ell)} {what}")
    best = _Best()
    if _empty(fam, ell, circ):  # so no sampled draw is admissible either
        return best
    rows_at = list(map(rows_at, range(ell)))
    if mode == MODE_EXACT:
        return _lag_search(fam, rows_at, ell, circ, make_kernel(), cap)
    for I, D, size in _sampled_draws(fam, ell, rng, samples):
        kernel = make_kernel()
        if best.value is not None and cap * size < best.value:
            continue
        found = kernel([rows[i][d:d + size]
                        for rows, i, d in zip(rows_at, I, D)], size,
                       best.value, "pinned")
        if found is not None:
            value, _, e, extra = found
            best.offer(value, (I, D, e, extra))
    return best


# ---------------------------------------------------------------------------
# binary product correlation


def _phi_kernel(seqs, size: int, floor, reading: str):
    """The prefix array P of the product of the shifted rows.  Every
    window: |P[e] - P[s]| peaks at max P - min P, s the earlier of the
    two first extremes, e the other; "pinned": max |P[e]|, e >= 1, at
    the earliest e; "full": |P[L]|.  It returns None before its walk
    when the per-tuple cap (L + |S|) / 2, S = P[L], is strictly below
    ``floor``, taken only when 2 * floor > L: the cap is at least L/2."""
    terms = _combine(mul, seqs)
    if floor is not None and 2 * floor > size:
        terms = list(terms)
        if size + abs(sum(terms)) < 2 * floor:
            return None
    if reading == "windows":
        P = list(accumulate(terms, initial=0))
        hi, lo = max(P), min(P)
        if floor is not None and hi - lo < floor:
            return None
        a, b = P.index(hi), P.index(lo)
        return hi - lo, min(a, b), max(a, b), ()
    if reading == "full":
        value, e = abs(sum(terms)), size
    else:
        P = [abs(v) for v in accumulate(terms)]  # |P[1..L]|
        value = max(P)
        e = P.index(value) + 1
    if floor is not None and value < floor:
        return None
    return value, 0, e, ()


def cross_correlation(fam: Family, ell: int, mode: str = MODE_EXACT, *,
                      budget: Optional[int] = None, seed: int = 0,
                      samples: int = 1000, n_jobs: int = 1) -> MeasureResult:
    """Maximum absolute windowed product-sum over all admissible
    (window, shifts, rows) choices of a binary family.

    Exact mode runs the lag-prefix search.  Sampled mode reports a lower
    bound of the maximum: per seeded draw (I, D) the pinned reading of
    ``_phi_kernel`` reads the prefix array of the shifted rows' product
    from 0, max |P[e]| at the earliest e, and the best draw wins.
    """
    _require(ell, mode, samples)
    estimate = (_lag_estimate(fam, ell, False) if mode == MODE_EXACT
                # a sample draws 2 ell indices; a pinned draw combines ell
                # rows of length <= N, then reads their prefix array
                else samples * (2 * ell + (ell + 1) * fam.length))
    pm = fam.pm_rows()
    best = _search(fam, lambda j: pm, ell, mode, lambda: _phi_kernel,
                   1, estimate, budget, "correlation",
                   random.Random(seed), samples)
    return _result(fam, "phi", ell, mode, best, 0)


def cross_correlation_circ(fam: Family, ell: int, *,
                           budget: Optional[int] = None,
                           n_jobs: int = 1) -> MeasureResult:
    """The correlation restricted to the full window and all shifts
    zero, maximized over row tuples only.  The shared admissibility rule
    then requires pairwise distinct row contents, so this is always a
    restriction of the unrestricted maximum."""
    _require(ell)
    pm = fam.pm_rows()
    best = _search(fam, lambda j: pm, ell, MODE_EXACT,
                   lambda: _phi_kernel, 1, _lag_estimate(fam, ell, True),
                   budget, "zero-shift correlation", circ=True)
    return _result(fam, "phi_circ", ell, MODE_EXACT, best, 0)


# ---------------------------------------------------------------------------
# k-symbol pattern-count measure


def _pattern(code: int, k: int, ell: int) -> tuple[int, ...]:
    return tuple((code // k**(ell - 1 - j)) % k for j in range(ell))


def _occurrences(codes, kl: int) -> dict[int, list]:
    """The gamma walk: per code, [C, max A, its t, min A, its t].

    Q_W[n] = kl * C_W[n] - n falls by 1 per step and rises by kl - 1 at
    each occurrence of W, so its maxima sit at 0 or just after an
    occurrence and its minima at an occurrence or at L.  With
    A_j = kl * j - t_j for the j-th occurrence t_j:
    max Q = max(0, max A + kl - 1), min Q = min(min A, kl * C - L)."""
    stats: dict[int, list] = {}
    for t, c in enumerate(codes):
        st = stats.get(c)
        if st is None:
            stats[c] = [1, -t, t, -t, t]
            continue
        a = kl * st[0] - t
        st[0] += 1
        if a > st[1]:
            st[1], st[2] = a, t
        elif a < st[3]:
            st[3], st[4] = a, t
    return stats


def _gamma_kernel(k: int, ell: int):
    """The kernel over pattern codes sum_j W_j k^(ell-1-j), whose order
    is the lex order of the patterns; the shifted rows arrive
    pre-scaled.  One pass gathers each code's occurrence statistics,
    read for every window [s, e), for the windows [0, e) of a sampled
    draw ("pinned"), or for the full window [0, L) ("full")."""
    kl = k**ell

    def kernel(seqs, size: int, floor, reading: str):
        codes = _combine(add, seqs)
        if floor is not None and floor > size:
            # the per-tuple cap max((kl - 1) * C, L), C the largest count
            # of a code; it is at least L, so it is taken only when floor > L
            codes = list(codes)
            if max((kl - 1) * max(Counter(codes).values()), size) < floor:
                return None
        stats = _occurrences(codes, kl)
        best = None  # (-value, s, e, code)
        if len(stats) < kl:  # an absent pattern: Q falls from 0 to -L
            best = (-size, 0, size, next(c for c in count() if c not in stats))
        for c, (occ, amax, tmax, amin, tmin) in stats.items():
            hi, s_hi = (amax + kl - 1, tmax + 1) if amax + kl > 1 else (0, 0)
            end = kl * occ - size
            lo, s_lo = (amin, tmin) if amin <= end else (end, size)
            if reading == "windows":
                neg, s, e = lo - hi, min(s_hi, s_lo), max(s_hi, s_lo)
            elif reading == "pinned":  # |Q[e] - Q[0]| peaks at max or min Q
                s = 0
                neg, e = min((-hi, s_hi), (lo, s_lo))
            else:
                neg, s, e = -abs(end), 0, size
            if e == s:  # k = 1: Q is constant and every window ties
                e += 1
            cand = (neg, s, e, c)
            if best is None or cand < best:
                best = cand
        if floor is not None and -best[0] < floor:
            return None
        return -best[0], best[1], best[2], _pattern(best[3], k, ell)

    return kernel


def _gamma(fam: Family, name: str, ell: int, mode: str,
           budget: Optional[int], seed: int = 0, samples: int = 0,
           circ: bool = False) -> MeasureResult:
    """gamma, or gamma_circ when ``circ``: the rows pre-scaled for the
    kernel, its value cap and the estimate of the search."""
    k, kl, n = fam.k, fam.k**ell, fam.length
    # a sample draws 2 ell indices; a pinned draw combines ell rows of
    # length <= N, then reads the statistics of at most min(N, k^ell)
    # codes and one absent one
    estimate = (samples * (2 * ell + ell * n + min(n, kl) + 1)
                if mode == MODE_SAMPLED
                else _lag_estimate(fam, ell, circ) * kl)
    what = f"{'zero-shift ' if circ else ''}pattern deviation"
    kernel = _gamma_kernel(k, ell)
    # |k^ell * C - M| <= (k^ell - 1) * M above and <= M below, with M <= L
    best = _search(fam, lambda j: [tuple(s * k**(ell - 1 - j) for s in row)
                                   for row in fam.rows],
                   ell, mode, lambda: kernel, max(kl - 1, 1), estimate,
                   budget, what, random.Random(seed), samples, circ)
    return _result(fam, name, ell, mode, best, Fraction(0), kl, "pattern")


def gamma(fam: Family, ell: int, mode: str = MODE_EXACT, *,
          budget: Optional[int] = None, seed: int = 0, samples: int = 1000,
          n_jobs: int = 1) -> MeasureResult:
    """Maximum deviation |count of a pattern in a window - M/k^ell| over
    all admissible (pattern, window, shifts, rows) choices.  The value
    is an exact rational with denominator dividing k^ell.

    Sampled mode reports a lower bound: per seeded draw (I, D) the
    windows kernel, pinned at s = 0, reads its occurrence statistics as
    max |Q_W[e]| over e >= 1 at the earliest e, then the smallest W, in
    O(L + k^ell), and the best draw wins.
    """
    _require(ell, mode, samples)
    return _gamma(fam, "gamma", ell, mode, budget, seed, samples)


def gamma_circ(fam: Family, ell: int, *, budget: Optional[int] = None,
               n_jobs: int = 1) -> MeasureResult:
    """Pattern-count deviation restricted to the full window and all
    shifts zero, maximized over row tuples and patterns."""
    _require(ell)
    return _gamma(fam, "gamma_circ", ell, MODE_EXACT, budget, circ=True)


# ---------------------------------------------------------------------------
# k-symbol root-of-unity measure


def _permutation(k: int, index: int) -> tuple[int, ...]:
    """The ``index``-th permutation of range(k) in the lexicographic
    order of ``itertools.permutations``: ``index`` in factorial base."""
    digits = []
    for r in range(1, k + 1):
        index, digit = divmod(index, r)
        digits.append(digit)
    pool = list(range(k))
    return tuple(map(pool.pop, reversed(digits)))


def _signed_kernel(maps, seqs, size: int, floor, reading: str):
    """big_gamma for k <= 2: ``_phi_kernel`` of the +/-1 rows, as
    relabeling {0, 1} only flips signs, with ``maps`` as witness."""
    found = _phi_kernel(seqs, size, floor, reading)
    return None if found is None else found[:3] + (maps,)


def _relabel_kernels(k: int, ell: int, mode: str, rng: random.Random):
    """The big_gamma kernels, one per ``next``, built from the first on,
    so a refusal builds nothing.  An exact search takes one:
    ``roots.windows_kernel``, or for k <= 2 the signed kernel with the
    identity.  A sampled search takes one per admissible draw, which
    draws its relabeling tuple, one of all k! maps per position, by its
    index: ``roots.pinned`` of it, or for k <= 2 the signed kernel."""
    if k >= 3:
        from . import roots  # only k >= 3 runs compile it (peak memory)
    if mode == MODE_EXACT:
        yield (roots.windows_kernel(k, ell) if k >= 3
               else partial(_signed_kernel, (tuple(range(k)),) * ell))
        return
    read = roots.pinned if k >= 3 else _signed_kernel
    indices = _indices(rng, math.factorial(k))
    while True:
        yield partial(read, tuple(_permutation(k, i)
                                  for i in islice(indices, ell)))


def big_gamma(fam: Family, ell: int, mode: str = MODE_EXACT, *,
              budget: Optional[int] = None, seed: int = 0,
              samples: int = 1000, n_jobs: int = 1) -> MeasureResult:
    """Maximum absolute windowed sum of products of k-th roots of
    unity, over all bijective symbol relabelings per tuple position and
    all admissible (window, shifts, rows) choices.

    Products of roots reduce to index sums mod k, so a window is an
    integer count vector c and its magnitude |sum_j c_j zeta_k^j|.  For
    k <= 2 every root is +/-1 (for k = 1 every term is 1), the value is
    an integer, and exact mode runs the phi search.  For k >= 3 exact
    mode runs the lag-prefix engine over the rotation-class
    representatives phi_j(0) = 0, (k-1)!^ell relabeling tuples, each
    skipped when the bounding box of its prefix points is clearly below
    the best value so far.  Every comparison of magnitudes, of
    windows, against the best so far and against the value cap, is
    exact: a float decides only beyond its proven error, otherwise the
    integer coordinates of |z|^2 mod Phi_k do (``roots.Magnitude``).  All
    members of a class tie exactly, and the representative is the
    lex-smallest, so the witness is that of the search over all k!^ell
    tuples.  The reported value is the float magnitude of the winning
    window's counts, for display; ``err_bound`` bounds the error of
    that float.  Sampled mode reports a lower bound: per seeded draw
    (I, D) it draws one relabeling per tuple position among all k!, the
    pinned kernel reads the windows [0, e) of that relabeling's index
    sequence (for k <= 2 the pinned phi kernel), keeping the earliest
    exact largest, and the best draw wins.
    """
    _require(ell, mode, samples)
    n, k = fam.length, fam.k
    if mode == MODE_SAMPLED:
        # the sampled phi estimate and the ell relabeling indices of a
        # draw; a pinned k >= 3 draw also combines ell rows, then walks
        # its prefix points
        estimate = samples * (3 * ell + (ell + 1) * n)
    elif k <= 2:
        estimate = _lag_estimate(fam, ell, False)
    else:
        estimate = (_lag_estimate(fam, ell, False, windows=True)
                    * math.factorial(k)**ell)
    # for k <= 2 every root is +/-1, for k = 1 every term is 1
    rows = (fam.rows if k >= 3 else fam.pm_rows() if k == 2
            else ((1,) * n,) * fam.size)
    rng = random.Random(seed)  # the sampled draws and their relabelings
    # an exact magnitude is at most M <= L
    kernels = _relabel_kernels(k, ell, mode, rng)
    best = _search(fam, lambda j: rows, ell, mode, lambda: next(kernels), 1,
                   estimate, budget, "root-relabeling correlation", rng,
                   samples)
    if k <= 2:
        return _result(fam, "big_gamma", ell, mode, best, 0,
                       field="root_maps")
    from . import roots  # see _relabel_kernels
    if best.value is not None:
        best.value = roots.magnitude(best.value.counts)
    return _result(fam, "big_gamma", ell, mode, best, 0.0, field="root_maps",
                   err=ell * n * 2.0**-50)


# ---------------------------------------------------------------------------
# independent witness re-evaluation


def evaluate_witness(fam: Family, result: MeasureResult) -> Value:
    """Recompute the value certified by a result's witness with a
    literal, unoptimized pass; the certificate-soundness oracle.

    For correlation measures this evaluates the witnessed window sum,
    count deviation, or root-sum magnitude directly from the stated
    (M, D, I, pattern) tuple.  For the covering complexity it checks
    that no row realizes the uncovered specification (value = pattern
    size - 1).  Without a witness, the covering complexity is N only for
    k = 1 or all k^N rows, and a correlation is 0 only when sampled or
    when ell > C * N (ell > C at zero shift), C distinct rows; other
    such records, and an order not the witness's, raise
    ``ParameterError``.
    """
    w = result.witness
    if result.name == "f_complexity":
        if w is None:
            if fam.k > 1 and len(set(fam.rows)) != fam.k**fam.length:
                raise ParameterError("the record needs its uncovered pattern")
            return fam.length
        if len(w.positions) != len(w.pattern):
            raise InternalError("witness positions/pattern lengths differ")
        if list(w.positions) != sorted(set(w.positions)):
            raise InternalError("witness positions must strictly increase")
        if not all(1 <= q <= fam.length for q in w.positions):
            raise InternalError("witness positions out of range")
        if not all(s in range(fam.k) for s in w.pattern):
            raise ParameterError("pattern must be symbols in 0..k-1")
        for row in fam.rows:
            if all(row[q - 1] == s for q, s in zip(w.positions, w.pattern)):
                raise InternalError(
                    "witness specification is realized; certificate is unsound")
        return len(w.positions) - 1

    if w is None:
        if result.mode != MODE_SAMPLED and not _empty(
                fam, result.order, result.name.endswith("_circ")):
            raise ParameterError("the record needs its witness: its "
                                 "admissible space is not empty")
        return 0
    if w.ell != result.order:
        raise ParameterError("the witness is of another order")
    w.validate(fam)
    ell, m = w.ell, w.window
    sel = [fam.rows[i - 1] for i in w.rows]

    if result.name in ("phi", "phi_circ"):
        pm = fam.pm_rows()  # refuses a family that is not binary
        total = 0
        for n_ in range(m):
            term = 1
            for j in range(ell):
                term *= pm[w.rows[j] - 1][n_ + w.shifts[j]]
            total += term
        return abs(total)

    if result.name in ("gamma", "gamma_circ"):
        if w.pattern is None:
            raise ParameterError("a pattern deviation witness needs W")
        count = 0
        for n_ in range(m):
            if all(sel[j][n_ + w.shifts[j]] == w.pattern[j]
                   for j in range(ell)):
                count += 1
        kl = fam.k**ell
        return abs(Fraction(count) - Fraction(m, kl))

    if result.name == "big_gamma":
        if w.root_maps is None:
            raise ParameterError("a root-relabeling witness needs its maps")
        k = fam.k
        counts = [0] * k
        for n_ in range(m):
            idx = sum(w.root_maps[j][sel[j][n_ + w.shifts[j]]]
                      for j in range(ell))
            counts[idx % k] += 1
        if k <= 2:
            return abs(counts[0] - (counts[1] if k == 2 else 0))
        from . import roots  # see _relabel_kernels
        return roots.magnitude(counts)

    raise ParameterError(f"unknown measure name {result.name!r}")
