"""Acceptance suite: one test per criterion, each printing a PASS line
(visible with ``pytest -s``).  All comparisons are exact unless a
criterion states an explicit envelope constant or growth factor.

Run: pytest tests/test_acceptance.py -v -s
"""

import io
import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from prsfam.bounds import fc_lower_bound_from_dual, weil_check
from prsfam.cli import emit_report
from prsfam.construct import family_f1, family_f2, family_k_symbol
from prsfam.family import Family, dual
from prsfam.measures import (
    MeasureResult,
    big_gamma,
    cross_correlation,
    evaluate_witness,
    f_complexity,
    gamma,
)
from prsfam.poly import (
    Poly,
    conjugacy_representatives,
    minimal_polynomial,
    mobius,
    poly_gcd,
)

from _util import random_family

PD_RANGE = [(3, 2), (5, 2), (7, 2), (5, 3), (7, 3), (11, 2), (13, 2)]

# valid alphabet per (p, d): largest k >= 2 with k | p-1 and
# gcd(k, (p^d-1)/(p-1)) = 1; pairs without one are skipped
KSYM_CASES = [(7, 2, 3), (5, 3, 2), (7, 3, 2), (11, 2, 5), (13, 2, 3)]

_soundness_pool: list[tuple[Family, MeasureResult]] = []


def _track(fam, result):
    """Collect results for the criterion-9 witness soundness sweep."""
    _soundness_pool.append((fam, result))
    return result


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


# --- 1: family sizes ---------------------------------------------------------


def test_criterion_1_family_sizes():
    start = time.monotonic()
    for p, d in PD_RANGE:
        expected = sum(mobius(t) * p ** (d // t)
                       for t in range(1, d + 1) if d % t == 0) // (d * p)
        assert family_f2(p, d).size == expected, (p, d)
    for p, d, k in KSYM_CASES:
        assert family_k_symbol(p, d, k).size == (p**d - p) // (d * p)
    for p in (11, 13):
        assert family_f1(p, 5).size == p - 1
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(1, f"family-size identities exact ({elapsed:.2f}s)")


# --- 2: distinctness ---------------------------------------------------------


CRITERION_1_BUILDS = (
    [(f"f2({p},{d})", lambda p=p, d=d: family_f2(p, d)) for p, d in PD_RANGE]
    + [(f"ksym({p},{d},{k})", lambda p=p, d=d, k=k: family_k_symbol(p, d, k))
       for p, d, k in KSYM_CASES]
    + [(f"f1({p},5)", lambda p=p: family_f1(p, 5)) for p in (11, 13)])


def _criterion_families():
    return [build() for _, build in CRITERION_1_BUILDS]


@pytest.mark.parametrize("label,build", CRITERION_1_BUILDS,
                         ids=[lbl for lbl, _ in CRITERION_1_BUILDS])
def test_criterion_2_distinct_rows(label, build):
    # Known genuine counterexample: at (p, d) = (7, 3) the trace-zero
    # irreducible cubics x^3+2 and x^3+5 produce the same row (their
    # values differ by square factors pointwise), so this criterion
    # fails there; the supporting character-sum argument needs p large
    # against d.  See README, "Known red acceptance instances".
    start = time.monotonic()
    fam = build()
    assert fam.distinct_rows(), (
        f"{label}: duplicate rows (criterion counterexample)")
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(2, f"{label} rows pairwise distinct ({elapsed:.2f}s)")


# --- 3: capacity bound k^C <= F ---------------------------------------------


def test_criterion_3_capacity_bound():
    start = time.monotonic()
    checked = 0
    for fam in _criterion_families():
        if fam.size > 10 or fam.length > 12:
            continue
        res = _track(fam, f_complexity(fam))
        assert fam.k ** res.value <= fam.size, fam.construction
        checked += 1
    assert checked >= 8
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(3, f"k^C <= F on {checked} families ({elapsed:.2f}s)")


# --- 4: covering complexity vs dual correlations ------------------------------


def _dual_bound_pipeline(fam, n_jobs=1):
    """Exact C and exact dual correlations up to floor(log2 F); returns
    (C result, correlation results, lower bound)."""
    dl = dual(fam)
    c_res = f_complexity(fam)
    imax = 0
    while 2 ** (imax + 1) <= fam.size:
        imax += 1
    imax = max(imax, 1)
    phis = [cross_correlation(dl, i, n_jobs=n_jobs)
            for i in range(1, imax + 1)]
    bound = fc_lower_bound_from_dual(
        fam.size, max(r.value for r in phis), 2, "binary")
    return c_res, phis, bound


CRITERION_4_FAMILIES = [
    lambda: family_f2(5, 3),
    lambda: family_f2(7, 2),
    lambda: family_f1(11, 5),
]


def test_criterion_4_dual_correlation_bound():
    start = time.monotonic()
    for build in CRITERION_4_FAMILIES:
        fam = build()
        c_res, phis, bound = _dual_bound_pipeline(fam)
        _track(fam, c_res)
        for r in phis:
            _track(dual(fam), r)
        assert c_res.value >= bound, (fam.construction, c_res.value, bound)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(4, f"C >= ceil(log2 F - log2 max dual phi) - 1 exact "
               f"({elapsed:.2f}s)")


# --- 5: complete character sums ----------------------------------------------


def test_criterion_5_weil_suite():
    start = time.monotonic()
    rng = random.Random(2024)
    primes = [5, 7, 11, 13, 101]
    checked = 0
    while checked < 200:
        p = primes[rng.randrange(len(primes))]
        deg = rng.randint(1, 6)
        h = Poly([rng.randrange(p) for _ in range(deg)]
                 + [rng.randrange(1, p)], p)
        if poly_gcd(h, h.derivative()).degree != 0:
            continue
        report = weil_check(h, p)
        assert report.satisfied, (h, p)
        checked += 1
    hand = weil_check(Poly((1, 0, 1), 5), 5)
    assert hand.measured == 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(5, f"200 seeded square-free sums within (deg-1)sqrt(p) "
               f"({elapsed:.2f}s)")


# --- 6: upper-bound envelopes and growth rate ---------------------------------


def test_criterion_6_envelopes():
    start = time.monotonic()
    ratios = {}
    for p in (11, 13):
        fam = family_f1(p, 5)
        res = _track(fam, cross_correlation(fam, 2))
        envelope = 10.0 * 5 * 2 * math.sqrt(p) * math.log(p)
        assert float(res.value) <= envelope, (p, res.value, envelope)
        ratios[p] = float(res.value) / (5 * 2 * math.sqrt(p) * math.log(p))
    assert ratios[13] <= 2 * ratios[11], ratios
    ks = family_k_symbol(13, 2, 3)
    gres = _track(ks, gamma(ks, 2))
    genv = 10.0 * 2 * math.sqrt(13) * math.log(13)
    assert float(gres.value) <= genv
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _report(6, f"order-2 measures below c=10 envelopes; growth ratio "
               f"{ratios[13] / ratios[11]:.3f} <= 2 ({elapsed:.2f}s)")


# --- 7: binary equivalences ---------------------------------------------------


def test_criterion_7_binary_equivalences():
    start = time.monotonic()
    rng = random.Random(7777)
    for i in range(100):
        fam = random_family(rng, max_f=6, max_n=12, min_f=2, min_n=4)
        ell = 1 + (i % 2)
        g_res = _track(fam, big_gamma(fam, ell))
        p_res = _track(fam, cross_correlation(fam, ell))
        assert g_res.value == p_res.value, (i, ell)
    for p, d in ((5, 3), (13, 2)):
        ksym = family_k_symbol(p, d, 2, require_coprime=False)
        f2 = family_f2(p, d)
        from prsfam.poly import enumerate_trace_zero_irreducibles
        by_poly = dict(zip(enumerate_trace_zero_irreducibles(p, d), f2.rows))
        reps = conjugacy_representatives(p, d, trace_zero_only=True)
        assert len(reps) == ksym.size == f2.size
        for beta, row in zip(reps, ksym.rows):
            assert row == by_poly[minimal_polynomial(beta)]
        assert sorted(ksym.rows) == sorted(f2.rows)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(7, f"root-relabeling measure equals product correlation on "
               f"100 binary families; order-2 character family matches "
               f"the residue family ({elapsed:.2f}s)")


# --- 8: incremental vs literal pattern deviation ------------------------------


def _gamma_literal(fam, ell):
    """Straight from the definition: for every admissible (D, I), every
    window length M and every pattern W, recount matches from scratch."""
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
                    count = 0
                    for t in range(m):
                        if all(fam.rows[I[j]][t + D[j]] == w[j]
                               for j in range(ell)):
                            count += 1
                    dev = abs(Fraction(count) - Fraction(m, kl))
                    if dev > best:
                        best = dev
    return best


def test_criterion_8_gamma_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(8888)
    for i in range(100):
        k = rng.choice([2, 3])
        fam = random_family(rng, max_f=4, max_n=10, k=k, min_f=2, min_n=4)
        ell = 1 + (i % 2)
        res = _track(fam, gamma(fam, ell))
        assert res.value == _gamma_literal(fam, ell), (i, k, ell)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(8, f"incremental pattern deviation equals literal recount on "
               f"100 families ({elapsed:.2f}s)")


# --- 9: witness soundness ------------------------------------------------------


def test_criterion_9_witness_soundness():
    # re-evaluate every witness produced by criteria 3-8
    assert len(_soundness_pool) >= 200
    start = time.monotonic()
    for fam, res in _soundness_pool:
        assert evaluate_witness(fam, res) == res.value, res
    elapsed = time.monotonic() - start
    _report(9, f"{len(_soundness_pool)} witnesses re-evaluated exactly "
               f"({elapsed:.2f}s)")


# --- 10: determinism across thread counts -------------------------------------


def _criterion_4_report_bytes(n_jobs: int) -> bytes:
    results = []
    for build in CRITERION_4_FAMILIES:
        fam = build()
        c_res, phis, bound = _dual_bound_pipeline(fam, n_jobs=n_jobs)
        results.append(c_res)
        results.extend(phis)
    buf = io.StringIO()
    emit_report(results, "json", buf)
    return buf.getvalue().encode()


def test_criterion_10_thread_determinism():
    start = time.monotonic()
    single = _criterion_4_report_bytes(1)
    eight = _criterion_4_report_bytes(8)
    assert single == eight
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _report(10, f"1-thread and 8-thread reports byte-identical "
                f"({elapsed:.2f}s)")
