import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsfam.construct import family_f1, family_f2, family_k_symbol
from prsfam.errors import BudgetError, ParameterError, check_budget
from prsfam.family import Family
from prsfam import measures, poly, roots
from prsfam.measures import (
    MODE_EXACT,
    MODE_SAMPLED,
    CorrelationSpec,
    MeasureResult,
    PatternWitness,
    big_gamma,
    cross_correlation,
    cross_correlation_circ,
    evaluate_witness,
    f_complexity,
    gamma,
    gamma_circ,
)

import oracle
from _util import copied_cases, count_gamma_caps, random_family, replace


def fam_pm(rows_pm, k=2):
    enc = tuple(tuple(0 if v == 1 else 1 for v in r) for r in rows_pm)
    return Family(p=3, d=1, k=k, rows=enc)


# --- covering complexity -----------------------------------------------------


def test_fc_single_row_is_zero():
    r = f_complexity(fam_pm([(1, 1, 1, 1)]))
    assert r.value == 0
    assert r.witness == PatternWitness(positions=(1,), pattern=(1,))


def test_fc_full_binary_square():
    fam = fam_pm([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    r = f_complexity(fam)
    assert r.value == 2 and r.witness is None
    assert evaluate_witness(fam, r) == 2


def test_fc_two_rows_example():
    fam = fam_pm([(1, 1), (-1, -1)])
    r = f_complexity(fam)
    assert r.value == 1
    # +1 at position 1 and -1 at position 2 is uncovered
    assert r.witness == PatternWitness(positions=(1, 2), pattern=(0, 1))
    assert evaluate_witness(fam, r) == 1


def test_fc_kary():
    fam = Family(p=3, d=1, k=3, rows=tuple(product(range(3), repeat=2)))
    assert f_complexity(fam).value == 2
    one_sym = Family(p=3, d=1, k=1, rows=((0, 0, 0),))
    assert f_complexity(one_sym).value == 3


def test_fc_budget_reports_partial():
    fam = family_f1(13, 5)
    with pytest.raises(BudgetError) as exc:
        f_complexity(fam, budget=10)
    assert exc.value.verified_lower_bound == 0
    assert "level 1" in str(exc.value)


# --- product correlation -----------------------------------------------------


def test_phi_all_ones_order1():
    r = cross_correlation(fam_pm([(1, 1, 1, 1)]), 1)
    assert r.value == 4
    assert r.witness == CorrelationSpec(ell=1, window=4, shifts=(0,),
                                        rows=(1,))


def test_phi_all_ones_order2_forces_distinct_shifts():
    r = cross_correlation(fam_pm([(1, 1, 1, 1)]), 2)
    assert r.value == 3
    assert r.witness.shifts == (0, 1) and r.witness.window == 3


def test_phi_alternating_row():
    assert cross_correlation(fam_pm([(1, -1, 1, -1)]), 1).value == 1


@pytest.mark.parametrize("call, shown", [
    (lambda: cross_correlation(family_f2(13, 2), 0), "order"),
    (lambda: cross_correlation(family_f2(13, 2), 1.0), "order"),
    (lambda: cross_correlation(family_f2(13, 2), True), "order"),
    (lambda: gamma_circ(family_f2(13, 2), True), "order"),
    (lambda: big_gamma(family_f2(13, 2), False), "order"),
    (lambda: gamma(family_f2(13, 2), 1, MODE_SAMPLED, samples=0),
     "sample count"),
    (lambda: gamma(family_f2(13, 2), 1, MODE_SAMPLED, samples=True),
     "sample count"),
    (lambda: cross_correlation(family_f2(13, 2), 1, MODE_SAMPLED,
                               samples=2.0), "sample count"),
], ids=["order-0", "order-float", "order-true", "circ-order-true",
        "order-false", "samples-0", "samples-true", "samples-float"])
def test_order_and_sample_count_must_be_ints(call, shown):
    # a bool is refused as any other non-int is, as Family refuses one
    with pytest.raises(ParameterError,
                       match=f"^{shown} must be an integer >= 1, got "):
        call()


def test_phi_rejects_nonbinary():
    fam = Family(p=3, d=1, k=3, rows=((0, 1, 2),))
    with pytest.raises(ParameterError):
        cross_correlation(fam, 1)


def test_phi_duplicate_content_rows_need_distinct_shifts():
    # two identical rows: zero-shift pairs are inadmissible even though
    # the indices differ
    fam = fam_pm([(1, 1, 1), (1, 1, 1)])
    r = cross_correlation(fam, 2)
    assert r.value == 2  # best admissible: shifts (0, 1), M = 2
    assert r.witness.shifts == (0, 1)


def test_phi_circ_restriction():
    fam = fam_pm([(1, 1), (1, -1)])
    r = cross_correlation_circ(fam, 2)
    # self-pairs carry equal (zero) shifts on equal rows: inadmissible;
    # the mixed pair sums to zero
    assert r.value == 0
    assert r.witness.rows == (1, 2)
    assert cross_correlation_circ(fam, 1).value == 2  # max |row sum|


def test_phi_circ_at_most_phi():
    rng = random.Random(10)
    for _ in range(25):
        fam = random_family(rng, max_f=4, max_n=8)
        for ell in (1, 2):
            c = cross_correlation_circ(fam, ell).value
            full = cross_correlation(fam, ell).value
            assert c <= full


def test_phi_empty_admissible_space():
    # single row of length 1 admits no order-2 choice at all
    fam = fam_pm([(1,)])
    r = cross_correlation(fam, 2)
    assert r.value == 0 and r.witness is None


def _assert_floor_contract(kernel, seqs, size: int, cap: int):
    """Under a floor up to its value a kernel answers as with no floor;
    under a higher floor, up to and past the per-tuple cap, it answers
    None."""
    found = kernel(seqs, size, None)
    assert found[0] <= cap
    for floor in range(found[0] + 1):
        assert kernel(seqs, size, floor) == found
    for floor in range(found[0] + 1, cap + 2):
        assert kernel(seqs, size, floor) is None


def _phi_cap(terms) -> int:
    # with a terms +1 and b terms -1 no window sum exceeds max(a, b)
    return max(terms.count(1), terms.count(-1))


def _gamma_cap(k: int, ell: int, rows) -> int:
    # a pattern seen C times in all: at most max((k^ell - 1) * C, L)
    patterns = list(zip(*rows))
    return max((k**ell - 1) * max(Counter(patterns).values()), len(patterns))


def _check_phi_reading(reading: str) -> None:
    """One reading of the phi kernel against its definition: the
    largest |sum| over its windows [s, e), then the smallest s, then e;
    and the floor contract under the per-tuple cap.  The cases include
    L = 1, constant rows (as k = 1 big_gamma reads them), duplicate rows
    and orders up to 3."""
    from prsfam.measures import _phi_kernel
    rng = random.Random(12)
    cases = [[(1,)], [(-1,), (1,)],  # L = 1
             [(1,) * 5], [(1,) * 4] * 3,  # constant rows, k = 1 big_gamma
             [(1, -1, 1, -1, 1)] * 2,  # duplicate rows
             [(-1, 1, -1, -1, 1, -1)] * 2]
    while len(cases) < 80:
        fam = random_family(rng, max_f=3, max_n=7)
        pmr = fam.pm_rows()
        n = fam.length
        ell = rng.randint(1, 3)
        I = tuple(rng.randrange(fam.size) for _ in range(ell))
        D = tuple(sorted(rng.randrange(n) for _ in range(ell)))
        # skip inadmissible draws
        bad = any(fam.rows[I[a]] == fam.rows[I[b]] and D[a] == D[b]
                  for a in range(ell) for b in range(a + 1, ell))
        if not bad:
            cases.append([pmr[I[j]][D[j]:n - D[-1] + D[j]]
                          for j in range(ell)])
    for slices in cases:
        size = len(slices[0])
        terms = [math.prod(col) for col in zip(*slices)]
        spans = {"windows": [(s, e) for s in range(size)
                             for e in range(s + 1, size + 1)],
                 "pinned": [(0, e) for e in range(1, size + 1)],
                 "full": [(0, size)]}[reading]
        naive = None  # the first (s, e) in order with the largest value
        for s, e in spans:
            if naive is None or abs(sum(terms[s:e])) > naive[0]:
                naive = (abs(sum(terms[s:e])), s, e, ())
        kernel = partial(_phi_kernel, reading=reading)
        assert kernel(slices, size, None) == naive
        _assert_floor_contract(kernel, slices, size, _phi_cap(terms))


@pytest.mark.parametrize("reading", ["windows", "pinned", "full"])
def test_phi_kernel_readings_against_naive(reading):
    _check_phi_reading(reading)


def _check_gamma_reading(reading: str) -> None:
    """One reading of the gamma kernel against its definition: the
    largest |k^ell * C_W - M| over its windows [s, e), then the smallest
    s, then e, then W; and the floor contract under the per-tuple cap.
    The cases include L = 1, k = 1, constant and duplicate rows."""
    from prsfam.measures import _gamma_kernel
    rng = random.Random(21)
    cases = [(2, 1, [(0, 0, 1, 1, 1, 1)]),  # max Q ties minus min Q
             (3, 1, [(2,)]), (3, 2, [(1,), (0,)]), (1, 2, [(0, 0, 0)] * 2),
             (2, 2, [(1, 1, 1, 1)] * 2), (3, 1, [(0, 0, 0, 0, 0)]),
             (3, 2, [(0, 2, 1, 2, 0)] * 2), (4, 3, [(3,) * 6] * 3),
             # code 0 at its distinct-count bound C = L - 2 + 1, where the
             # value 2 * C ties the cap
             (3, 1, [(0, 0, 0, 1)])]
    for _ in range(300):
        k, ell, n = rng.randint(1, 4), rng.randint(1, 2), rng.randint(1, 8)
        cases.append((k, ell, [tuple(rng.randrange(k) for _ in range(n))
                               for _ in range(ell)]))
    for k, ell, rows in cases:
        n, kl = len(rows[0]), k**ell
        spans = {"windows": [(s, e) for s in range(n)
                             for e in range(s + 1, n + 1)],
                 "pinned": [(0, e) for e in range(1, n + 1)],
                 "full": [(0, n)]}[reading]
        naive = None  # the first (s, e, W) in order with the largest value
        for s, e in spans:
            for w in product(range(k), repeat=ell):
                count = sum(1 for t in range(s, e)
                            if all(r[t] == w[j] for j, r in enumerate(rows)))
                if naive is None or abs(kl * count - (e - s)) > naive[0]:
                    naive = (abs(kl * count - (e - s)), s, e, w)
        scaled = [tuple(x * k**(ell - 1 - j) for x in r)
                  for j, r in enumerate(rows)]
        kernel = partial(_gamma_kernel(k, ell), reading=reading)
        assert kernel(scaled, n, None) == naive
        _assert_floor_contract(kernel, scaled, n, _gamma_cap(k, ell, rows))


def test_gamma_pinned_kernel_against_naive():
    # the sampled reading of the gamma kernel: windows [0, e) only
    _check_gamma_reading("pinned")


@pytest.mark.parametrize("reading", ["windows", "full"])
def test_gamma_kernel_readings_against_naive(reading):
    _check_gamma_reading(reading)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 3), ell=st.integers(1, 3), data=st.data())
def test_literal_maxima_never_exceed_the_per_tuple_caps(k, ell, data):
    n = data.draw(st.integers(1, 8), label="L")
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * n),
                              min_size=ell, max_size=ell), label="rows")
    kl = k**ell
    spans = [(s, e) for s in range(n) for e in range(s + 1, n + 1)]

    def deviation(s, e, w):
        count = sum(1 for t in range(s, e)
                    if all(r[t] == w[j] for j, r in enumerate(rows)))
        return abs(kl * count - (e - s))

    literal = max(deviation(s, e, w) for s, e in spans
                  for w in product(range(k), repeat=ell))
    assert literal <= _gamma_cap(k, ell, rows)
    terms = [math.prod(1 - 2 * (x % 2) for x in col) for col in zip(*rows)]
    assert (max(abs(sum(terms[s:e])) for s, e in spans)
            <= _phi_cap(terms))


def test_per_tuple_cap_skips_walks(monkeypatch):
    # the per-tuple caps stop most kernel calls before their walk: the
    # phi walk is its prefix sum, the gamma walk its occurrence pass
    from prsfam.family import dual
    seen = {"phi": 0, "gamma": 0, "accumulate": 0, "_occurrences": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)
        return call

    make_gamma = measures._gamma_kernel
    monkeypatch.setattr(measures, "_phi_kernel",
                        counted("phi", measures._phi_kernel))
    monkeypatch.setattr(measures, "_gamma_kernel",
                        lambda k, ell: counted("gamma", make_gamma(k, ell)))
    monkeypatch.setattr(measures, "accumulate",
                        counted("accumulate", itertools.accumulate))
    monkeypatch.setattr(measures, "_occurrences",
                        counted("_occurrences", measures._occurrences))
    r = cross_correlation(dual(family_f1(13, 5)), 3)
    assert r.value == 12
    assert seen["phi"] > 100  # 220 kernel calls, 20 of them walk
    assert seen["accumulate"] < seen["phi"] // 3
    r = gamma(dual(family_k_symbol(13, 2, 3)), 2)
    assert r.value == Fraction(8, 3)
    assert seen["gamma"] > 100  # 123 kernel calls, 28 of them walk
    assert seen["_occurrences"] < seen["gamma"] // 3


def test_gamma_distinct_code_count_decides_most_caps(monkeypatch):
    # a code seen C times leaves L - C positions to the other codes, so
    # C <= L - distinct + 1: most gamma calls whose floor is above L are
    # refused by that bound before any code is counted
    seen = count_gamma_caps(monkeypatch)
    assert gamma(family_k_symbol(13, 2, 3), 2).value == Fraction(40, 9)
    assert seen["checked"] > 250  # of 267 kernel calls
    assert seen["counted"] < seen["checked"] // 3


# --- pattern deviation -------------------------------------------------------


def test_gamma_constant_row():
    r = gamma(fam_pm([(1, 1, 1, 1)]), 1)
    assert r.value == Fraction(2)
    assert r.witness.pattern == (0,) and r.witness.window == 4


def test_gamma_alternating_row():
    r = gamma(fam_pm([(1, -1, 1, -1)]), 1)
    assert r.value == Fraction(1, 2)
    assert r.witness.window == 1


def test_gamma_uniform_cover_is_zero():
    fam = Family(p=3, d=1, k=2, rows=((0,), (1,)))
    # order 1, duplicate-free: windows are single entries; counts are
    # 0 or 1 against M/2 = 1/2
    assert gamma(fam, 1).value == Fraction(1, 2)
    # a family covering both symbols at every window of even length
    fam2 = Family(p=3, d=1, k=2, rows=((0, 1), (1, 0)))
    assert gamma_circ(fam2, 1).value == Fraction(0)


def test_gamma_circ_restriction_and_example():
    fam = fam_pm([(1, 1, 1, 1)])
    assert gamma_circ(fam, 1).value == Fraction(2)
    rng = random.Random(13)
    for _ in range(20):
        fam = random_family(rng, max_f=4, max_n=8, k=3)
        for ell in (1, 2):
            assert gamma_circ(fam, ell).value <= gamma(fam, ell).value


def _gamma_literal(fam, ell):
    """Literal recomputation straight from the definition: for every
    admissible (D, I), every window M and every pattern W, count
    matches afresh."""
    n, f, k = fam.length, fam.size, fam.k
    kl = k**ell
    best = Fraction(0)
    for I in product(range(f), repeat=ell):
        for D in combinations_with_replacement(range(n), ell):
            if any(fam.rows[I[a]] == fam.rows[I[b]] and D[a] == D[b]
                   for a in range(ell) for b in range(a + 1, ell)):
                continue
            for m in range(1, n - D[-1] + 1):
                for w in product(range(k), repeat=ell):
                    count = sum(
                        1 for t in range(m)
                        if all(fam.rows[I[j]][t + D[j]] == w[j]
                               for j in range(ell)))
                    dev = abs(Fraction(count) - Fraction(m, kl))
                    if dev > best:
                        best = dev
    return best


def test_gamma_matches_literal_recomputation():
    rng = random.Random(14)
    for _ in range(15):
        k = rng.choice([2, 3])
        fam = random_family(rng, max_f=3, max_n=6, k=k)
        ell = rng.randint(1, 2)
        assert gamma(fam, ell).value == _gamma_literal(fam, ell)


# --- root-of-unity relabelings ----------------------------------------------


def test_big_gamma_binary_equals_phi():
    rng = random.Random(15)
    for _ in range(20):
        fam = random_family(rng, max_f=4, max_n=8)
        ell = rng.randint(1, 2)
        assert big_gamma(fam, ell).value == cross_correlation(fam, ell).value


def test_big_gamma_single_symbol_alphabet():
    fam = Family(p=3, d=1, k=1, rows=((0, 0, 0),))
    assert big_gamma(fam, 1).value == 3  # every value is the unit root


def test_big_gamma_three_symbols():
    fam = Family(p=7, d=1, k=3, rows=((0, 1, 2),))
    r = big_gamma(fam, 1)
    assert abs(r.value - 1.0) <= r.err_bound
    assert r.err_bound > 0


def test_big_gamma_err_bound_zero_for_binary():
    assert big_gamma(fam_pm([(1, -1)]), 1).err_bound == 0.0


def _cyclic_power(base, n):
    """base^n in Z[x]/(x^k - 1), k = len(base)."""
    k = len(base)
    out = [1] + [0] * (k - 1)
    for _ in range(n):
        out = [sum(out[i] * base[(j - i) % k] for i in range(k))
               for j in range(k)]
    return out


@pytest.mark.parametrize("k, unit", [
    (5, [-1, 1, 0, 0, 1]),       # zeta + zeta^4 - 1 = -0.38...
    (7, [0, 0, 1, 0, 0, 1, 0]),  # zeta^2 + zeta^5 = -0.44...
])
def test_sign_of_small_units(k, unit):
    # the powers of a real unit below 1 in absolute value shrink while
    # their coordinates grow: at k = 7, u^80 is about 1e-28 with
    # coordinates near 1e20, so the generic path doubles to 256 bits
    for n in range(0, 81, 5):
        r = roots.coordinates(_cyclic_power(unit, n))
        assert roots.sign(r, k) == (-1)**n


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_cos_fixed_within_two_units(bits):
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 100
        for k in range(3, 13):
            table = roots.cos_fixed(k, bits)
            for j in range(k):
                exact = oracle._decimal_cos(j, k) * 2**bits
                assert abs(Decimal(table[j]) - exact) <= 2


def test_magnitude_compares_exactly_where_floats_cannot():
    # an error bound this wide leaves every comparison to the exact path
    rng = random.Random(23)
    for k in range(3, 10):
        for _ in range(60):
            a, b = (tuple(rng.randrange(4) for _ in range(k))
                    for _ in range(2))
            ma, mb = (roots.Magnitude(0.0, 1e9, c) for c in (a, b))
            ka, kb = oracle._exact_square(a), oracle._exact_square(b)
            assert ma.compare(mb) == (ka > kb) - (ka < kb)
            # a rotation and a reflection of the counts keep |z|
            for c in (a[1:] + a[:1], a[:1] + a[:0:-1]):
                assert ma == roots.Magnitude(0.0, 1e9, c)
    m = roots.Magnitude(0.0, 1e9, (3, 0, 0, 0, 0))
    assert m == 3 and 2 < m < 4 and not 3 < m


def test_box_diagonal_bounds_every_window():
    # the prefix points of random walks on the k-th roots, with long
    # straight runs and returns, and of walks in one direction, whose
    # farthest pair spans the box: the float diagonal plus err(L) is at
    # least the exact magnitude of every window, and the largest float
    # |Q[e]| plus err(L) that of every window [0, e) a pinned draw reads
    from decimal import Decimal
    rng = random.Random(31)
    for k in range(3, 9):
        walks = [[c] * n for c in range(k) for n in (1, 7, 12)]
        for _ in range(40):
            steps = [rng.randrange(k) for _ in range(rng.randint(1, 12))]
            walks.append([c for c in steps for _ in range(rng.randint(1, 4))])
        for steps in walks:
            L = len(steps)
            idx, Q, err = roots._prefix([tuple(range(k))], [steps], L)
            bound = Decimal(roots._reach(Q, range(L)) + err)**2
            pinned = Decimal(roots._reach(Q, range(1)) + err)**2
            for s, e in itertools.combinations(range(L + 1), 2):
                counts = tuple(map(steps[s:e].count, range(k)))
                assert oracle._exact_square(counts)[0] <= bound
                if s == 0:
                    assert oracle._exact_square(counts)[0] <= pinned


def test_box_skips_most_walks(monkeypatch):
    # a walk calls repeat once per start, so a call of _walk that makes
    # none returned before its first window
    skipped, starts = [], []
    real_walk, real_repeat = roots._walk, roots.repeat

    def repeat(*args):
        starts.append(None)
        return real_repeat(*args)

    def walk(*args):
        before = len(starts)
        best = real_walk(*args)
        skipped.append(len(starts) == before)
        return best

    monkeypatch.setattr(roots, "repeat", repeat)
    monkeypatch.setattr(roots, "_walk", walk)
    big_gamma(family_k_symbol(31, 2, 5), 1)
    assert len(skipped) == 360 and sum(skipped) > len(skipped) // 2


@pytest.mark.parametrize("p, d, k, ell", [(31, 2, 5, 1), (13, 2, 3, 2)])
def test_box_skip_changes_nothing(p, d, k, ell, monkeypatch):
    # with the skip off every tuple is walked: the same value and witness
    fam = family_k_symbol(p, d, k)
    modes = [{}, {"mode": MODE_SAMPLED, "samples": 300, "seed": 3}]
    kept = [big_gamma(fam, ell, **kw) for kw in modes]
    monkeypatch.setattr(roots, "_reach", lambda Q, starts: math.inf)
    for kw, r in zip(modes, kept):
        walked = big_gamma(fam, ell, **kw)
        assert (walked.value, walked.witness) == (r.value, r.witness)


def test_box_skip_keeps_a_tie():
    # one row of symbol 0: every representative walks the real axis, so
    # the box diagonal is the window [0, 6) itself, and it ties a floor of
    # exactly 6, which both kernels must return
    row, maps = (0,) * 6, ((0, 1, 2),)
    floor = roots.Magnitude(6.0, 0.0, (6, 0, 0))
    for got in (roots.windows_kernel(3, 1)([row], 6, floor),
                roots.pinned(maps, [row], 6, floor)):
        assert got is not None and got[0] == 6 and got[1:] == (0, 6, maps)


# --- sampled mode ------------------------------------------------------------


def test_sampled_never_exceeds_exact():
    rng = random.Random(16)
    for i in range(15):
        fam = random_family(rng, max_f=4, max_n=8)
        ell = rng.randint(1, 2)
        exact = cross_correlation(fam, ell).value
        sampled = cross_correlation(fam, ell, mode=MODE_SAMPLED,
                                    seed=i, samples=40)
        assert sampled.mode == MODE_SAMPLED
        assert sampled.value <= exact
        if sampled.witness is not None:
            assert evaluate_witness(fam, sampled) == sampled.value


def test_sampled_gamma_and_big_gamma():
    rng = random.Random(17)
    for i in range(8):
        fam = random_family(rng, max_f=3, max_n=7, k=3)
        assert gamma(fam, 1, mode=MODE_SAMPLED, seed=i, samples=30).value \
            <= gamma(fam, 1).value
        s = big_gamma(fam, 1, mode=MODE_SAMPLED, seed=i, samples=30)
        assert s.value <= big_gamma(fam, 1).value + 1e-12


@pytest.mark.parametrize("measure", [cross_correlation, gamma, big_gamma])
def test_sampled_measures_take_mode_positionally(measure):
    fam = family_f2(5, 2)
    r = measure(fam, 1, MODE_SAMPLED, seed=3, samples=50)
    assert r.mode == MODE_SAMPLED
    assert r == measure(fam, 1, mode=MODE_SAMPLED, seed=3, samples=50)


def test_sampled_is_seed_deterministic():
    fam = family_f2(11, 2)
    a = cross_correlation(fam, 2, mode=MODE_SAMPLED, seed=5, samples=100)
    b = cross_correlation(fam, 2, mode=MODE_SAMPLED, seed=5, samples=100)
    assert a == b


# --- budgets -----------------------------------------------------------------


def test_budget_refusal_names_estimate():
    fam = family_f1(13, 5)
    with pytest.raises(BudgetError) as exc:
        cross_correlation(fam, 3, budget=1000)
    assert exc.value.estimate > 1000
    assert "budget" in str(exc.value)
    with pytest.raises(BudgetError):
        gamma(family_k_symbol(13, 2, 3), 3, budget=1000)
    with pytest.raises(BudgetError):
        big_gamma(family_k_symbol(13, 2, 3), 2, budget=1000)


def test_budget_refusal_past_the_int_digit_limit():
    # (1100!)^2 relabelings: an estimate of about 5,740 digits, which str()
    # refuses; the message gives its power of two, the error the exact int
    fam = Family(p=5, d=2, k=1100, rows=((1099, 0, 5), (1, 2, 3)))
    with pytest.raises(BudgetError) as exc:
        big_gamma(fam, 2)
    estimate = exc.value.estimate
    assert type(estimate) is int and estimate > 10**5000
    assert str(exc.value) == (
        "exact order-2 root-relabeling correlation needs an estimated "
        f"2^{estimate.bit_length() - 1} or more loop steps, "
        "budget is 1000000000")
    # a budget past the limit is given as a power of two too
    with pytest.raises(BudgetError) as exc:
        check_budget(10**5000, 10**4999, "the search")
    assert str(exc.value) == ("the search needs an estimated 2^16609 or more "
                              "loop steps, budget is 2^16606 or more")
    assert exc.value.budget == 10**4999


def test_refusal_shows_a_long_number_as_a_power_of_two():
    # 1100! relabelings: a 2,870-digit estimate, which str() can print but
    # no one reads; past 30 digits the message gives its power of two, and
    # the error keeps the exact int
    fam = Family(p=5, d=2, k=1100, rows=((1099, 0, 5), (1, 2, 3)))
    with pytest.raises(BudgetError) as exc:
        big_gamma(fam, 1, budget=0)
    assert exc.value.estimate == 2 * 6 * math.factorial(1100)
    assert str(exc.value) == (
        "exact order-1 root-relabeling correlation needs an estimated "
        "2^9536 or more loop steps, budget is 0")
    # 30 digits are shown in full, an estimate and a budget alike
    with pytest.raises(BudgetError, match=(
            f"estimated {10**30 - 1} loop steps, budget is {10**29}$")):
        check_budget(10**30 - 1, 10**29, "the search")
    with pytest.raises(BudgetError, match=(
            r"estimated 2\^102 or more loop steps, budget is 2\^99 or more$")):
        check_budget(10**31, 10**30, "the search")
    with pytest.raises(ParameterError, match=r"got -2\^99 or less$"):
        cross_correlation(family_f2(13, 2), -10**30)


@pytest.mark.parametrize("call, message", [
    (lambda: check_budget(0, -10**5000, "x"), "budget must be >= 0"),
    (lambda: cross_correlation(family_f2(13, 2), -10**5000),
     "order must be an integer >= 1"),
    (lambda: gamma(family_f2(13, 2), 1, mode=MODE_SAMPLED,
                   samples=-10**5000), "sample count must be an integer >= 1"),
], ids=["budget", "order", "samples"])
def test_negative_int_past_the_digit_limit_is_refused(call, message):
    # str() refuses such an int; the message gives the power of two that
    # its magnitude reaches
    with pytest.raises(ParameterError) as exc:
        call()
    assert str(exc.value) == f"{message}, got -2^16609 or less"


def test_order_past_the_digit_limit_is_empty():
    # past the admissible space, as at order 73, the search is empty; its
    # description, which names the order, is built without str()
    fam = family_f2(13, 2)
    r, r73 = cross_correlation(fam, 10**5000), cross_correlation(fam, 73)
    assert r.order == 10**5000
    assert (r.value, r.witness) == (r73.value, r73.witness) == (0, None)
    with pytest.raises(BudgetError,
                       match=r"^sampled order-2\^16609 or more correlation "):
        cross_correlation(fam, 10**5000, MODE_SAMPLED)


@pytest.mark.parametrize("call", [
    lambda b: f_complexity(family_f2(5, 2), budget=b),
    lambda b: cross_correlation(family_f2(5, 2), 1, budget=b),
    lambda b: cross_correlation(family_f2(5, 2), 1, MODE_SAMPLED, budget=b),
    lambda b: cross_correlation_circ(family_f2(5, 2), 1, budget=b),
    lambda b: gamma(family_f2(5, 2), 1, budget=b),
    lambda b: gamma(family_f2(5, 2), 1, MODE_SAMPLED, budget=b),
    lambda b: gamma_circ(family_f2(5, 2), 1, budget=b),
    lambda b: big_gamma(family_k_symbol(7, 2, 3), 1, budget=b),
    lambda b: big_gamma(family_f2(5, 2), 1, MODE_SAMPLED, budget=b),
    lambda b: family_f1(11, 5, budget=b),
    lambda b: family_f2(5, 2, budget=b),
    lambda b: family_k_symbol(7, 2, 3, budget=b),
    lambda b: poly.enumerate_irreducibles(5, 2, budget=b),
    lambda b: poly.conjugacy_representatives(5, 2, True, budget=b),
], ids=["fc", "phi", "phi-sampled", "phi0", "gamma", "gamma-sampled",
        "gamma0", "biggamma", "biggamma-sampled", "f1", "f2", "ksym",
        "enumerate_irreducibles", "conjugacy_representatives"])
def test_negative_budget_is_refused_and_zero_is_a_budget(call):
    with pytest.raises(ParameterError, match="budget must be >= 0, got -5"):
        call(-5)
    with pytest.raises(BudgetError) as exc:
        call(0)
    assert exc.value.estimate > 0 and exc.value.budget == 0


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_SAMPLED])
def test_big_gamma_refuses_before_building_its_kernel(mode, monkeypatch):
    # k = 11: one list of all k! = 39,916,800 relabelings would take GBs
    def built(*args):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(measures, "_permutation", built)
    monkeypatch.setattr(roots, "windows_kernel", built)
    fam = family_k_symbol(23, 2, 11)
    with pytest.raises(BudgetError) as exc:
        big_gamma(fam, 1, mode, budget=0)
    # sampled: per sample 2 ell indices and ell relabelings, and the
    # pinned read of ell rows of length N = 22
    assert exc.value.estimate == (1000 * (3 + 2 * 22)
                                  if mode == MODE_SAMPLED else 111088454400)


def test_sampled_big_gamma_lists_no_relabelings(monkeypatch):
    # each draw decodes its index, so k = 11 lists none of the k! maps
    def listed(*args):
        raise AssertionError("listed the relabelings")

    for module in (measures, roots, itertools):
        monkeypatch.setattr(module, "permutations", listed, raising=False)
    r = big_gamma(family_k_symbol(23, 2, 11), 1, MODE_SAMPLED, samples=50)
    assert r.mode == MODE_SAMPLED and r.witness is not None


def test_permutation_decoder_is_lex_order():
    for k in range(1, 7):
        listed = list(itertools.permutations(range(k)))
        assert [measures._permutation(k, i)
                for i in range(len(listed))] == listed


@pytest.mark.parametrize("k", [50, 1100])
def test_permutation_decoder_matches_factorial_base(k):
    # the literal decode: digit r of ``index`` is index // r! mod (r + 1)
    rng = random.Random(k)
    for index in [0, math.factorial(k) - 1] + [
            rng.randrange(math.factorial(k)) for _ in range(3)]:
        pool = list(range(k))
        literal = tuple(pool.pop(index // math.factorial(r) % (r + 1))
                        for r in range(k - 1, -1, -1))
        assert measures._permutation(k, index) == literal


def test_default_budget_covers_reference_sizes():
    # ell <= 3, N <= 32, F <= 12 must pass the estimate check
    import math
    from prsfam.measures import DEFAULT_BUDGET
    est = math.comb(32 - 1 + 3, 3) * 12**3 * 32
    assert est <= DEFAULT_BUDGET


# --- witness soundness and determinism --------------------------------------


def test_witness_soundness_across_measures():
    rng = random.Random(18)
    for _ in range(12):
        fam = random_family(rng, max_f=4, max_n=8)
        for res in (f_complexity(fam),
                    cross_correlation(fam, 2),
                    cross_correlation_circ(fam, 1),
                    gamma(fam, 2),
                    gamma_circ(fam, 1),
                    big_gamma(fam, 2)):
            assert evaluate_witness(fam, res) == res.value
    for _ in range(6):
        fam = random_family(rng, max_f=3, max_n=6, k=3)
        for res in (gamma(fam, 2), gamma_circ(fam, 2), big_gamma(fam, 1)):
            assert evaluate_witness(fam, res) == res.value


def test_results_identical_across_jobs():
    fam = family_f1(11, 5)
    for ell in (1, 2):
        seq = cross_correlation(fam, ell, n_jobs=1)
        par = cross_correlation(fam, ell, n_jobs=4)
        assert seq == par
    ks = family_k_symbol(13, 2, 3)
    assert gamma(ks, 2, n_jobs=1) == gamma(ks, 2, n_jobs=4)
    assert gamma_circ(ks, 2, n_jobs=1) == gamma_circ(ks, 2, n_jobs=4)
    assert big_gamma(ks, 1, n_jobs=1) == big_gamma(ks, 1, n_jobs=4)
    assert cross_correlation_circ(fam, 2, n_jobs=1) == \
        cross_correlation_circ(fam, 2, n_jobs=4)


# --- capacity bound across constructions -------------------------------------


def test_capacity_bound_on_constructed_families():
    fams = [family_f2(p, d) for p, d in
            [(3, 2), (5, 2), (7, 2), (5, 3), (11, 2), (13, 2)]]
    fams += [family_f1(11, 5), family_f1(13, 5)]
    fams += [family_k_symbol(7, 2, 3), family_k_symbol(5, 3, 2),
             family_k_symbol(11, 2, 5), family_k_symbol(13, 2, 3)]
    for fam in fams:
        c = f_complexity(fam).value
        assert fam.k**c <= fam.size


def test_evaluate_witness_refuses_a_witness_that_does_not_fit():
    fam = family_k_symbol(7, 2, 3)
    g, bg = gamma(fam, 1), big_gamma(fam, 1)
    spec = CorrelationSpec(ell=1, window=4, shifts=(0,), rows=(1,))
    bad = [MeasureResult("phi", 1, 4, MODE_EXACT, spec),  # no +/-1 view
           replace(g, witness=replace(g.witness, pattern=None)),
           replace(g, witness=replace(g.witness, pattern=(3,))),
           replace(bg, witness=replace(bg.witness, root_maps=None)),
           replace(bg, witness=replace(bg.witness, root_maps=((0, 0, 0),))),
           replace(bg, witness=replace(bg.witness, root_maps=((0, 1),)))]
    assert evaluate_witness(fam, g) == g.value
    assert evaluate_witness(fam, bg) == bg.value
    for result in bad:
        with pytest.raises(ParameterError):
            evaluate_witness(fam, result)


@pytest.mark.parametrize("symbol", [7, -1])
def test_evaluate_witness_refuses_an_uncovered_pattern_outside_the_alphabet(
        symbol):
    # no row holds a symbol outside 0..k-1, so such a pattern would
    # certify C = 0 on f2(13,2), whose f-complexity is 1
    fam = family_f2(13, 2)
    fc = f_complexity(fam)
    assert fc.value == 1 and evaluate_witness(fam, fc) == 1
    forged = MeasureResult("f_complexity", 0, 0, MODE_EXACT,
                           PatternWitness((1,), (symbol,)), subject="f2")
    with pytest.raises(ParameterError):
        evaluate_witness(fam, forged)


def test_evaluate_witness_takes_no_witness_only_for_a_full_certificate():
    fam = family_f2(13, 2)  # f-complexity 1; phi of order 1 is 12
    phi = cross_correlation(fam, 1)
    bad = [MeasureResult("f_complexity", 0, 12, MODE_EXACT, None),
           MeasureResult("phi", 1, 999, MODE_EXACT, None),
           MeasureResult("gamma_circ", 6, 0, MODE_EXACT, None),
           replace(phi, order=2)]  # the witness is of order 1
    for result in bad:
        with pytest.raises(ParameterError):
            evaluate_witness(fam, result)
    assert evaluate_witness(fam, phi) == phi.value
    # a sampled record with no admissible draw certifies only 0
    assert evaluate_witness(fam, replace(phi, value=5, witness=None,
                                         mode=MODE_SAMPLED)) == 0
    # empty admissible spaces: ell > C * N, and ell > C at zero shift
    one = Family(p=3, d=1, k=2, rows=((0,),))
    for result in (cross_correlation(one, 2), gamma(one, 2),
                   big_gamma(one, 2)):
        assert result.witness is None and evaluate_witness(one, result) == 0
    assert evaluate_witness(fam, gamma_circ(fam, 7)) == 0  # C = 6
    full = Family(p=3, d=1, k=2, rows=((0, 0), (0, 1), (1, 0), (1, 1)))
    assert evaluate_witness(full, f_complexity(full)) == 2


def test_witness_validate_rejects_malformed_specs():
    fam = fam_pm([(1, 1, 1, 1)])
    with pytest.raises(ParameterError):
        CorrelationSpec(ell=2, window=4, shifts=(0, 1),
                        rows=(1, 1)).validate(fam)  # window too long
    with pytest.raises(ParameterError):
        CorrelationSpec(ell=2, window=2, shifts=(1, 0),
                        rows=(1, 1)).validate(fam)  # shifts decrease
    with pytest.raises(ParameterError):
        CorrelationSpec(ell=2, window=2, shifts=(0, 0),
                        rows=(1, 1)).validate(fam)  # equal rows, equal shifts
    with pytest.raises(ParameterError):
        CorrelationSpec(ell=1, window=2, shifts=(0,),
                        rows=(2,)).validate(fam)  # row index out of range


# --- lag-search work estimates ----------------------------------------------


def _estimate(measure, fam, ell):
    try:
        measure(fam, ell, budget=0)
    except BudgetError as exc:
        return exc.estimate
    return 0  # nothing to search: the zero budget was enough


def _canonical(fam, ell, circ, copies=False):
    """The (I, T) pairs the lag search walks, by literal enumeration:
    every lag tuple T, every admissible row tuple I (rows strictly
    increasing inside a block of tied lags, equal contents only on
    distinct lags, each row the first with its contents).  With
    ``copies``, I may also take the later copies of a repeated row, as
    the search did before it skipped them."""
    n, f = fam.length, fam.size
    rows = (range(f) if copies else
            sorted({fam.rows.index(row) for row in fam.rows}))
    lags = ([(0,) * ell] if circ else
            [(0,) + r
             for r in combinations_with_replacement(range(n), ell - 1)])
    for T in lags:
        for I in product(rows, repeat=ell):
            tied = [(a, b) for a in range(ell) for b in range(a + 1, ell)
                    if T[a] == T[b]]
            if all(I[a] < I[b] and fam.rows[I[a]] != fam.rows[I[b]]
                   for a, b in tied):
                yield I, T


def _lag_work(fam, ell, circ, steps=lambda L: L, copies=False):
    """Sequence steps of the lag search, ``steps(L)`` for each (I, T) of
    ``_canonical`` with L = N - T[-1]."""
    return sum(steps(fam.length - T[-1])
               for _, T in _canonical(fam, ell, circ, copies))


def test_lag_estimates_bound_literal_work():
    # each estimate bounds the work of the search, which walks the first
    # row with each content only, and is at most the work of walking
    # every copy, which the estimates counted before: none of them grew
    rng = random.Random(19)
    fams = [random_family(rng, max_f=5, max_n=7, k=k, min_n=1)
            for k in (2, 2, 2, 3, 4) for _ in range(3)]
    fams.append(fam_pm([(1, 1, 1), (1, 1, 1), (1, -1, 1)]))
    for fam in fams:
        for ell in (1, 2, 3):
            def work(circ, scale=1, steps=lambda L: L):
                return [_lag_work(fam, ell, circ, steps, copies) * scale
                        for copies in (False, True)]
            kl = fam.k**ell
            checks = [(gamma, work(False, kl)), (gamma_circ, work(True, kl))]
            if fam.k == 2:
                checks += [(cross_correlation, work(False)),
                           (cross_correlation_circ, work(True)),
                           (big_gamma, work(False))]
            else:
                checks.append((big_gamma, work(
                    False, math.factorial(fam.k)**ell,
                    lambda L: L * (L + 1) // 2)))
                # the rotation-class kernel: per (I, T) and representative,
                # a box pass over the L + 1 prefix points, then at most
                # the L(L+1)/2 windows
                kernel = _lag_work(fam, ell, circ=False,
                                   steps=lambda L: L + 1 + L * (L + 1) // 2)
                assert (kernel * math.factorial(fam.k - 1)**ell
                        <= _estimate(big_gamma, fam, ell))
            for measure, (walked, every_copy) in checks:
                assert walked <= _estimate(measure, fam, ell) <= every_copy


def test_kernel_work_within_estimate(monkeypatch):
    # on the families test_oracle checks with repeated rows: each kernel
    # call is handed one (I, T) of length L; summed over the calls, L per
    # call (k^ell * L for gamma, and for k >= 3 big_gamma
    # (k-1)!^ell * (L + 1 + L(L+1)/2), a box pass and the windows of
    # each rotation-class representative) is at most the budget=0 estimate
    sizes = []

    def counted(kernel):
        def call(seqs, size, *rest):
            sizes.append(size)
            return kernel(seqs, size, *rest)
        return call

    monkeypatch.setattr(measures, "_phi_kernel",
                        counted(measures._phi_kernel))
    for module, name in ((measures, "_gamma_kernel"),
                         (roots, "windows_kernel")):
        monkeypatch.setattr(module, name, lambda k, ell, make=getattr(
            module, name): counted(make(k, ell)))
    for fam, ell in copied_cases(31):
        k, kl = fam.k, fam.k**ell
        runs = [(gamma, lambda L: kl * L), (gamma_circ, lambda L: kl * L)]
        if k == 2:
            runs += [(cross_correlation, lambda L: L),
                     (cross_correlation_circ, lambda L: L),
                     (big_gamma, lambda L: L)]
        else:
            runs.append((big_gamma, lambda L: math.factorial(k - 1)**ell
                         * (L + 1 + L * (L + 1) // 2)))
        for measure, steps in runs:
            sizes.clear()
            measure(fam, ell)
            estimate = _estimate(measure, fam, ell)
            # the first lag tuple is always walked, so a kernel is called
            # exactly when some tuple is admissible
            assert bool(sizes) == (estimate > 0)
            assert sum(map(steps, sizes)) <= estimate


def test_walk_visits_each_canonical_tuple_once(monkeypatch):
    # a kernel that always returns a value is called, and its key offered,
    # once for each (I, T) of the literal rule, with the rows of I shifted
    # by T, whatever the repeated or constant rows, F = 1, N = 1, ell > C
    offers, real = [], measures._Best.offer
    monkeypatch.setattr(measures._Best, "offer", lambda best, value, key: (
        offers.append(key), real(best, value, key)))
    rng = random.Random(41)
    fams = [random_family(rng, max_f=5, max_n=5, k=k, min_n=1)
            for k in (1, 2, 2, 3) for _ in range(4)]
    fams += [Family(p=3, d=1, k=2, rows=((0, 1, 1), (0, 1, 1), (1, 0, 1))),
             Family(p=3, d=1, k=3, rows=((2, 2, 2, 2), (0, 0, 0, 0))),
             Family(p=3, d=1, k=2, rows=((0, 1, 1, 0),)),
             Family(p=3, d=1, k=3, rows=((1,), (2,), (1,)))]
    for fam in fams:
        for ell, circ in product((1, 2, 3, 4), (False, True)):
            calls = []

            def kernel(seqs, size, floor, reading):
                calls.append((seqs, size, reading))
                return 0, 0, size, ()

            offers.clear()
            measures._lag_search(fam, [fam.rows] * ell, ell, circ, kernel, 1)
            walked = [(I, D) for I, D, _, _ in offers]
            assert sorted(walked) == sorted(_canonical(fam, ell, circ))
            assert len(set(walked)) == len(walked)
            for (I, D), (seqs, size, reading) in zip(walked, calls):
                assert size == fam.length - D[-1]
                assert seqs == [fam.rows[i][d:] for i, d in zip(I, D)]
                assert reading == ("full" if circ else "windows")


def test_sampled_gamma_estimate_bounds_literal_work():
    # every sample draws 2 ell indices, admissible or not; a pinned phi
    # draw combines ell rows of length L and reads L prefix sums, a gamma
    # draw reads the statistics of each distinct code and looks for one
    # absent pattern, and a big_gamma draw also draws ell relabelings
    rng = random.Random(29)
    for k in (1, 2, 2, 3, 4, 5):
        for _ in range(4):
            fam = random_family(rng, max_f=4, max_n=9, k=k, min_n=1)
            for ell in (1, 2, 3, 6):
                seed, samples = rng.randrange(10**6), rng.randint(1, 40)
                work = {"phi": 0, "gamma": 0, "big_gamma": 0}
                for I, D, size in measures._sampled_draws(
                        fam, ell, random.Random(seed), samples):
                    codes = {tuple(fam.rows[i][d + t] for i, d in zip(I, D))
                             for t in range(size)}
                    work["phi"] += (ell + 1) * size
                    work["gamma"] += ell * size + len(codes) + 1
                    work["big_gamma"] += ell + (ell + 1) * size
                measured = {"gamma": gamma, "big_gamma": big_gamma}
                if k == 2:
                    measured["phi"] = cross_correlation
                for name, measure in measured.items():
                    with pytest.raises(BudgetError) as exc:
                        measure(fam, ell, mode=MODE_SAMPLED, seed=seed,
                                samples=samples, budget=0)
                    assert (samples * 2 * ell + work[name]
                            <= exc.value.estimate)


@pytest.mark.parametrize("size, length", list(product(
    (1, 2, 3, 15, 16, 17, 30, 31, 32), repeat=2)))
def test_sampled_draws_are_the_randrange_stream(size, length):
    # per sample, ell randrange(F) draws then ell randrange(N) draws,
    # sorted; an item is yielded only after its own draws are taken
    rng = random.Random(size * 100 + length)
    fam = Family(p=3, d=1, k=2, rows=tuple(
        tuple(rng.randrange(2) for _ in range(length)) for _ in range(size)))
    for ell in (1, 2, 3, 4):
        seed, samples = rng.randrange(10**6), 25
        drawn = random.Random(seed)
        draws = measures._sampled_draws(fam, ell, drawn, samples)
        replay = random.Random(seed)
        for _ in range(samples):
            I = tuple(replay.randrange(size) for _ in range(ell))
            D = tuple(sorted(replay.randrange(length) for _ in range(ell)))
            if oracle._admissible(fam, I, D):
                assert next(draws) == (I, D, length - D[-1])
                assert drawn.getstate() == replay.getstate()
        assert next(draws, None) is None
        assert drawn.getstate() == replay.getstate()


def _sampled_skip_cases():
    rng = random.Random(41)
    return ([(family_f2(13, 2), 3), (family_f2(13, 2), 2)]
            + [(random_family(rng, max_f=6, max_n=10, k=2, min_f=3,
                              min_n=6), 2) for _ in range(2)]
            + [(random_family(rng, max_f=6, max_n=10, k=3, min_f=3,
                              min_n=6), 1) for _ in range(2)])


@pytest.mark.parametrize("name", ["phi", "gamma", "big_gamma"])
def test_sampled_value_cap_skip_changes_nothing(name, monkeypatch):
    # with hundreds of draws the best value settles, and a draw whose
    # window length L gives cap * L below it is skipped unread; big_gamma
    # still draws that draw's relabeling, so later draws are unchanged
    measure, field = {"phi": (cross_correlation, None),
                      "gamma": (gamma, "pattern"),
                      "big_gamma": (big_gamma, "root_maps")}[name]
    real_phi, real_gamma = measures._phi_kernel, measures._gamma_kernel
    real_permutation = measures._permutation
    read, relabeled = [], []

    def phi_kernel(*args):
        read.append(None)
        return real_phi(*args)

    def gamma_kernel(*args):
        kernel = real_gamma(*args)
        return lambda *a: (read.append(None), kernel(*a))[1]

    def permutation(*args):
        relabeled.append(None)
        return real_permutation(*args)

    monkeypatch.setattr(measures, "_phi_kernel", phi_kernel)
    monkeypatch.setattr(measures, "_gamma_kernel", gamma_kernel)
    monkeypatch.setattr(measures, "_permutation", permutation)
    for (fam, ell), samples in zip(_sampled_skip_cases(),
                                   (3000, 500, 1500, 800, 1000, 600)):
        if fam.k != 2 and name != "gamma":
            continue
        read.clear()
        relabeled.clear()
        r = measure(fam, ell, mode=MODE_SAMPLED, seed=samples, samples=samples)
        admissible = sum(1 for _ in measures._sampled_draws(
            fam, ell, random.Random(samples), samples))
        if name == "big_gamma":  # its relabelings take from the same stream
            admissible = len(relabeled) // ell
        assert len(read) < admissible
        v, key = oracle.sampled(name, fam, ell, samples, samples)
        assert r.value == v
        I, D, m = key[:3]
        assert r.witness == CorrelationSpec(
            ell=ell, window=m, shifts=D, rows=tuple(i + 1 for i in I),
            **({field: key[-1]} if field else {}))


def test_refusal_names_the_mode():
    fam = family_k_symbol(13, 2, 3)
    for measure in (gamma, big_gamma):
        for mode, prefix in ((MODE_SAMPLED, "sampled order-2 "),
                             (MODE_EXACT, "exact order-2 ")):
            with pytest.raises(BudgetError) as exc:
                measure(fam, 2, mode=mode, budget=10)
            assert str(exc.value).startswith(prefix)
    with pytest.raises(BudgetError) as exc:
        cross_correlation(family_f2(11, 2), 6, mode=MODE_SAMPLED, budget=10)
    assert str(exc.value).startswith("sampled order-6 correlation needs")


def test_dual_f1_17_5_order4_fits_default_budget():
    from prsfam.family import dual
    from prsfam.measures import DEFAULT_BUDGET
    est = _estimate(cross_correlation, dual(family_f1(17, 5)), 4)
    assert 0 < est <= DEFAULT_BUDGET


def test_lag_search_stops_on_value_cap(monkeypatch):
    # dual f1(13,5) at order 3: the full search calls the phi kernel
    # 112,684 times; largest window first, almost every lag tuple has a
    # window shorter than the value already found.
    from prsfam import measures, roots
    from prsfam.family import dual
    real = measures._phi_kernel
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(measures, "_phi_kernel", counted)
    r = cross_correlation(dual(family_f1(13, 5)), 3)
    assert len(calls) < 5000
    assert r.value == 12
    assert r.witness == CorrelationSpec(ell=3, window=12, shifts=(0, 0, 0),
                                        rows=(1, 3, 9))
