"""Differential tests of the build-path kernels against literal
definitions: the linear Frobenius (irreducibility test, conjugates,
orbit representatives), the product mod the modulus, the product
sieve of the irreducibles, the f1 base search and the cached primality
check behind the characters."""

import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import oracle
from prsfam.construct import _find_base_poly
from prsfam.errors import BudgetError, ParameterError
from prsfam.ff import FieldParams, char_k, legendre
from prsfam.poly import (
    Poly,
    _apply_rows,
    _mulmod,
    _orbit,
    conjugacy_representatives,
    count_trace_zero_irreducibles,
    enumerate_irreducibles,
    enumerate_trace_zero_irreducibles,
    is_irreducible,
)

REPO = Path(__file__).resolve().parent.parent

FIELD_GRID = [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (5, 4),
              (7, 2), (7, 3), (11, 2), (11, 3)]


@pytest.mark.parametrize("p,d", FIELD_GRID)
@pytest.mark.parametrize("trace_zero_only", [True, False])
def test_conjugacy_representatives_match_pow_oracle(p, d, trace_zero_only):
    reps = conjugacy_representatives(p, d, trace_zero_only=trace_zero_only)
    assert [b.coeffs for b in reps] == \
        oracle.conjugacy_representatives(p, d, trace_zero_only)


@pytest.mark.parametrize("p,max_d", [(2, 5), (3, 5), (5, 4), (7, 3)])
def test_irreducible_matches_divisor_oracle(p, max_d):
    rng = random.Random(p)
    for d in range(1, max_d + 1):
        for rest in product(range(p), repeat=d):
            f = Poly(rest + (1,), p)
            expected = oracle.irreducible_by_divisors(f)
            assert is_irreducible(f) == expected, f
            if p > 2:
                s = rng.randrange(2, p)
                scaled = Poly([c * s for c in f.coeffs], p)
                assert is_irreducible(scaled) == expected, scaled


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("trace_zero", [True, False])
def test_sieve_matches_divisor_oracle(p, d, trace_zero):
    # every candidate in lexicographic order (highest power first),
    # kept when it has no monic divisor of degree 1..d/2; p | d occurs
    # at (2, 2), (2, 4), (3, 3) and (5, 5)
    tail = (0, 1) if trace_zero else (1,)
    expected = [f for f in (Poly(tuple(reversed(rest)) + tail, p)
                            for rest in product(range(p),
                                                repeat=d + 1 - len(tail)))
                if oracle.irreducible_by_divisors(f)]
    assert enumerate_irreducibles(p, d, trace_zero) == expected


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (13, 1), (3, 2), (7, 2),
                                 (5, 3), (31, 3), (3, 5), (13, 4)])
def test_frobenius_is_pth_power(p, d):
    fld = FieldParams(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(40):
        a = tuple(rng.randrange(p) for _ in range(d))
        assert _apply_rows(fld.frobenius_rows, a, p) == \
            oracle.power(fld, a, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_mulmod_matches_poly_product(p, d):
    # any monic modulus, irreducible or not; zero vectors included
    rng = random.Random(p * 10 + d)
    zero = (0,) * d
    for _ in range(60):
        f = Poly([rng.randrange(p) for _ in range(d)] + [1], p)
        a, b = (tuple(rng.randrange(p) for _ in range(d)) for _ in range(2))
        for x, y in ((a, b), (zero, b), (a, zero), (zero, zero)):
            r = ((Poly(x, p) * Poly(y, p)) % f).coeffs
            assert _mulmod(x, y, f.coeffs, p) == list(r) + [0] * (d - len(r))


@pytest.mark.parametrize("p,d", FIELD_GRID + [(3, 1), (13, 1), (3, 6)])
def test_orbit_matches_literal_conjugates(p, d):
    fld = FieldParams(p, d)
    elems = oracle.field_elements(fld)
    if len(elems) > 400:
        elems = random.Random(p * 100 + d).sample(elems, 400)
    for a in elems:
        assert _orbit(fld.frobenius_rows, a, p) == oracle.conjugates(fld, a)


# p in 3..13 with d in 2..4 is covered in test_poly.py; these add p = 2,
# p dividing d and degree 5.
@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 5), (3, 6), (5, 5)])
def test_count_matches_enumeration_length(p, d):
    assert count_trace_zero_irreducibles(p, d) == \
        len(enumerate_trace_zero_irreducibles(p, d))


def _base_by_filter(p, d):
    """First admissible tuple (nonzero x^(d-2), x^(d-3) coefficients)
    giving an irreducible, by filtering every tuple, with its 1-based
    position among the admissible ones."""
    tried = 0
    for rest in product(range(p), repeat=d - 1):
        if rest[0] == 0 or rest[1] == 0:
            continue
        tried += 1
        f = Poly(tuple(reversed(rest)) + (0, 1), p)
        if is_irreducible(f):
            return f, tried
    return None, tried


@pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7, 11, 13)
                                 for d in (5, 6, 7) if p ** (d - 2) <= 10**5])
def test_find_base_poly_matches_filter_and_budget(p, d):
    base, tried = _base_by_filter(p, d)
    assert base is not None
    assert _find_base_poly(p, d, budget=tried) == base
    with pytest.raises(BudgetError):
        _find_base_poly(p, d, budget=tried - 1)


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 91])
def test_characters_reject_bad_modulus_on_every_call(p):
    legendre(1, 7)
    for _ in range(3):
        with pytest.raises(ParameterError):
            legendre(1, p)
        with pytest.raises(ParameterError):
            char_k(1, 1, p)


def test_traced_gen_job_runs(tmp_path):
    """perfbench/tracer.py wraps package functions by name; a traced
    ksym build must still run and write its spans."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "tracer.py"), str(spans),
         "gen-ksym", "gen", "--construction", "ksym", "--p", "7", "--d", "2",
         "--k", "3", "--out", str(tmp_path / "k.fam")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    leaves = {leaf[1] for leaf in doc["leaves"]}
    assert {"poly.minimal_polynomial", "ff.char_k"} <= leaves
    assert doc["counts"]["poly.orbit_reps"] == (7**2 - 7) // (2 * 7)
