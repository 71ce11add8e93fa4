import random
from itertools import product

import pytest

import oracle
from prsfam.errors import DomainError, ParameterError
from prsfam.ff import char_k, is_prime, legendre, primitive_root
from prsfam.poly import (ExtElem, Poly, _apply_rows, _field, _mulmod, _orbit,
                         conjugacy_representatives, is_irreducible,
                         minimal_polynomial)

PRIMES_TO_101 = [p for p in range(3, 102) if is_prime(p)]

SMALL_FIELDS = [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (3, 1), (13, 1)]


def test_is_prime():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)
    assert is_prime(101)
    assert not is_prime(1)
    assert not is_prime(91)  # 7 * 13


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    for n in range(10**5):
        assert is_prime(n) == _trial_division(n), n


@pytest.mark.parametrize("n", [
    2047,                        # strong pseudoprime to base 2
    3215031751,                  # to bases 2, 3, 5, 7
    3825123056546413051,         # to bases 2..23
    318665857834031151167461,    # to bases 2..37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_inputs():
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    assert not is_prime(1_000_000_007 * 998_244_353)
    # Past the proven range of the fixed bases nothing is decided.
    with pytest.raises(ParameterError):
        is_prime(3_317_044_064_679_887_385_961_981)
    with pytest.raises(ParameterError):
        legendre(2, 2**89 - 1)


# --- residue symbol ---------------------------------------------------------


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_legendre_against_square_enumeration(p):
    squares = {n * n % p for n in range(1, p)}
    for a in range(p):
        expected = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre(a, p) == expected


def test_legendre_multiplicative():
    for p in (7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        legendre(1, 9)
    with pytest.raises(ParameterError):
        legendre(1, 2)


# --- extension field ---------------------------------------------------------


def test_default_modulus_is_deterministic_and_valid():
    for p, d in SMALL_FIELDS:
        modulus = _field(p, d)[0]
        assert modulus.is_monic and modulus.degree == d
        assert is_irreducible(modulus)
    assert _field(3, 2)[0] == Poly((1, 0, 1), 3)


@pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1),
                                  (5, 2), (5, 3), (7, 2), (7, 3), (13, 3)])
def test_default_modulus_is_first_irreducible_by_divisors(p, d):
    # candidates in lexicographic order, highest power first
    candidates = (Poly(rest[::-1] + (1,), p)
                  for rest in product(range(p), repeat=d))
    assert _field(p, d)[0] == next(
        filter(oracle.irreducible_by_divisors, candidates))


def test_field_params_validation():
    with pytest.raises(ParameterError,
                       match="p must be an odd prime >= 3, got 9"):
        conjugacy_representatives(9, 2, True)
    with pytest.raises(ParameterError,
                       match="extension degree must be >= 1, got 0"):
        minimal_polynomial(ExtElem(7, ()))


def test_ext_mul_reduction_example():
    modulus = _field(3, 2)[0]  # x^2 + 1
    assert _mulmod((0, 1), (0, 1), modulus.coeffs, 3) == [2, 0]  # x^2 = -1


# --- frobenius / trace / norm ----------------------------------------------


def _trace(fld, a):
    """The trace of a, the sum of its d conjugates, as the minimal
    polynomial gives it: d/t times minus its X^(t-1) coefficient."""
    mp = minimal_polynomial(ExtElem(fld.p, a))
    return -(fld.d // mp.degree) * mp.coeffs[-2] % fld.p


def test_frobenius_example_and_order():
    f9, rows = oracle.make_field(3, 2), _field(3, 2)[1]
    assert _apply_rows(rows, (0, 1), 3) == (0, 2)  # x^3 = -x
    for a in oracle.field_elements(f9):
        conj = a
        for _ in range(f9.d):
            conj = _apply_rows(rows, conj, 3)
        assert conj == a
        assert f9.d % len(_orbit(rows, a, 3)) == 0


def test_frobenius_fixes_base_field():
    fld = oracle.make_field(5, 3)
    for c in range(5):
        a = oracle.const(fld, c)
        assert _orbit(_field(5, 3)[1], a, 5) == [a]


def test_trace_examples():
    f9 = oracle.make_field(3, 2)
    assert _trace(f9, (0, 1)) == 0  # x + x^3 = 0
    for p, d in SMALL_FIELDS:
        fld = oracle.make_field(p, d)
        for c in range(p):
            assert _trace(fld, oracle.const(fld, c)) == d * c % p
    fld = oracle.make_field(5, 3)
    rng = random.Random(1)
    for _ in range(20):
        a = tuple(rng.randrange(5) for _ in range(3))
        assert _trace(fld, _apply_rows(_field(5, 3)[1], a, 5)) == \
            _trace(fld, a)


def test_trace_norm_match_minimal_polynomial_coefficients():
    # x^(d-1) coefficient is -trace, constant term is (-1)^d * norm,
    # trace and norm being the sum and product of the literal conjugates
    for p, d in [(3, 2), (5, 2), (5, 3), (7, 2)]:
        fld = oracle.make_field(p, d)
        for a in oracle.field_elements(fld):
            conj = oracle.conjugates(fld, a)
            if len(conj) != d:
                continue
            mp = minimal_polynomial(ExtElem(fld.p, a))
            assert oracle.const(fld, -mp.coeffs[d - 1]) == \
                oracle.total(fld, conj)
            assert oracle.const(fld, (-1) ** d * mp.coeffs[0]) == \
                oracle.prod(fld, conj)


@pytest.mark.parametrize("p, d", [(3, 4), (3, 6), (5, 4)])
def test_degree_trace_norm_on_proper_subfields(p, d):
    # an element of degree t < d repeats its t literal conjugates d/t
    # times: its trace sums all d, its minimal polynomial has degree t
    # and, as constant term, (-1)^t times the product of the t
    fld = oracle.make_field(p, d)
    degrees = set()
    for a in oracle.field_elements(fld):
        conj = oracle.conjugates(fld, a)
        t = len(conj)
        if t == d:
            continue
        degrees.add(t)
        assert oracle.const(fld, _trace(fld, a)) == \
            oracle.total(fld, conj * (d // t))
        mp = minimal_polynomial(ExtElem(fld.p, a))
        assert mp.degree == t
        assert oracle.const(fld, (-1) ** t * mp.coeffs[0]) == \
            oracle.prod(fld, conj)
    assert degrees == {t for t in range(1, d) if d % t == 0}


# --- norm and quadratic character of the extension -------------------------


def _norm(fld, a):
    """N(a), the product of the d conjugates from ``poly._orbit`` by
    ``poly._mulmod``, as an integer of F_p."""
    orbit = _orbit(_field(fld.p, fld.d)[1], a, fld.p)
    acc = oracle.const(fld, 1)
    for c in orbit * (fld.d // len(orbit)):
        acc = _mulmod(acc, c, fld.modulus.coeffs, fld.p)
    assert not any(acc[1:])
    return acc[0]


def _quad_char(fld, a):
    """The quadratic character of F_{p^d}: the residue symbol of N(a)."""
    return legendre(_norm(fld, a), fld.p)


def test_norm_examples():
    f9 = oracle.make_field(3, 2)
    assert _norm(f9, (0, 1)) == 1  # x * x^3 = -x^2 = 1
    for p, d in SMALL_FIELDS:
        fld = oracle.make_field(p, d)
        for c in range(p):
            assert _norm(fld, oracle.const(fld, c)) == pow(c, d, p)
    fld = oracle.make_field(5, 3)
    rng = random.Random(2)
    for _ in range(20):
        a = tuple(rng.randrange(5) for _ in range(3))
        b = tuple(rng.randrange(5) for _ in range(3))
        assert _norm(fld, oracle.mul(fld, a, b)) == \
            _norm(fld, a) * _norm(fld, b) % 5


def test_norm_is_conjugate_power():
    # the Frobenius-matrix conjugates multiply to a^((p^d - 1)/(p - 1)),
    # the power taken by literal multiplication
    fld = oracle.make_field(7, 2)
    e = (7**2 - 1) // (7 - 1)
    for a in oracle.field_elements(fld):
        if not any(a):
            continue
        assert oracle.const(fld, _norm(fld, a)) == oracle.power(fld, a, e)


def test_quad_char_examples():
    f9 = oracle.make_field(3, 2)
    assert _quad_char(f9, (0, 0)) == 0
    assert _quad_char(f9, (0, 1)) == 1  # norm 1
    rng = random.Random(3)
    fld = oracle.make_field(7, 2)
    for _ in range(30):
        g = tuple(rng.randrange(7) for _ in range(2))
        if any(g):
            assert _quad_char(fld, oracle.mul(fld, g, g)) == 1
    # the residue symbol of a minimal polynomial's value at n is the
    # character of n - a: mp_a(n) is the product of n - a^(p^t)
    for p, d in [(7, 2), (5, 3)]:
        fld = oracle.make_field(p, d)
        for a in oracle.field_elements(fld):
            if len(oracle.conjugates(fld, a)) != d:
                continue
            mp = minimal_polynomial(ExtElem(fld.p, a))
            for n in range(p):
                assert legendre(mp.eval(n), p) == _quad_char(
                    fld, oracle.sub(fld, oracle.const(fld, n), a))


@pytest.mark.parametrize("p,d", [(3, 2), (3, 4), (3, 6), (5, 2), (5, 4),
                                 (7, 2), (7, 3), (11, 2), (13, 2), (31, 1),
                                 (3, 3), (5, 3)])
def test_quad_char_square_count(p, d):
    # exactly (p^d - 1)/2 nonzero elements have character +1
    fld = oracle.make_field(p, d)
    plus = sum(1 for a in oracle.field_elements(fld)
               if _quad_char(fld, a) == 1)
    assert plus == (p**d - 1) // 2


def test_quad_char_multiplicative():
    fld = oracle.make_field(5, 2)
    elems = [a for a in oracle.field_elements(fld) if any(a)]
    for a in elems:
        for b in elems:
            assert _quad_char(fld, oracle.mul(fld, a, b)) == \
                _quad_char(fld, a) * _quad_char(fld, b)


# --- order-k character -------------------------------------------------------


def test_primitive_root_smallest():
    assert primitive_root(7) == 3
    for p in (5, 11, 13, 23):
        g = primitive_root(p)
        assert len({pow(g, t, p) for t in range(p - 1)}) == p - 1
        for h in range(2, g):
            assert len({pow(h, t, p) for t in range(p - 1)}) < p - 1


def test_char_k_identity_maps_to_zero():
    for p, k in [(5, 2), (5, 4), (7, 3), (13, 3), (13, 4)]:
        assert char_k(1, k, p) == 0


def test_char_k_order_two_is_residue_symbol():
    for m in range(1, 5):
        expected = 0 if legendre(m, 5) == 1 else 1
        assert char_k(m, 2, 5) == expected


def test_char_k_example_mod_seven():
    # base 3: 3^2 = 2, so index 2, and 2 mod 3 = 2
    assert char_k(2, 3, 7) == 2


def test_char_k_multiplicative_on_indices():
    for p, k in [(7, 3), (13, 3), (13, 4), (11, 5)]:
        for a in range(1, p):
            for b in range(1, p):
                assert char_k(a * b % p, k, p) == \
                    (char_k(a, k, p) + char_k(b, k, p)) % k


def test_char_k_errors():
    with pytest.raises(DomainError):
        char_k(0, 2, 5)
    with pytest.raises(ParameterError):
        char_k(2, 3, 5)  # 3 does not divide 4
