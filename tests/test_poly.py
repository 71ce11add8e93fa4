import random
from itertools import product

import pytest

import oracle
from prsfam.errors import (BudgetError, DomainError, InternalError,
                           ParameterError)
from prsfam import poly
from prsfam.poly import (
    ExtElem,
    Poly,
    conjugacy_representatives,
    count_irreducibles,
    count_trace_zero_irreducibles,
    enumerate_irreducibles,
    enumerate_trace_zero_irreducibles,
    is_irreducible,
    minimal_polynomial,
    mobius,
    poly_gcd,
    scale_poly,
)


# --- representation and ring operations -------------------------------------


def test_canonical_form():
    assert Poly((1, 2, 0, 0), 5).coeffs == (1, 2)
    assert Poly((), 5).coeffs == ()
    assert Poly((5, 10), 5).is_zero
    assert Poly((1, 0, 1), 3).degree == 2
    assert Poly((2, 1), 3).is_monic
    assert not Poly((1, 2), 3).is_monic


def test_ring_operations():
    p = 5
    a = Poly((1, 2, 3), p)
    b = Poly((4, 1), p)
    assert a + b == Poly((0, 3, 3), p)
    assert a - b == Poly((2, 1, 3), p)
    assert (a * b).eval(2) == a.eval(2) * b.eval(2) % p
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    with pytest.raises(DomainError):
        divmod(a, Poly((), p))


def test_eval_examples():
    assert Poly((1, 0, 1), 3).eval(2) == 2  # 5 mod 3
    assert Poly((4, 2, 7), 11).eval(0) == 4  # constant term
    assert Poly((1, 0, 1), 3).eval(1) == 2


def test_values_match_literal_sum():
    rng = random.Random(5)
    for p in (2, 3, 7, 101):
        xs = [rng.randrange(-2 * p, 2 * p) for _ in range(20)] + list(range(p))
        for d in range(-1, 6):
            f = Poly([rng.randrange(p) for _ in range(d + 1)], p)
            expected = [sum(c * x**i for i, c in enumerate(f.coeffs)) % p
                        for x in xs]
            assert f.values(xs) == expected
            assert [f.eval(x) for x in xs] == expected


def test_shifted():
    # the literal expansion of f(x + s) that the Weil-bound tests use
    rng = random.Random(0)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        f = Poly([rng.randrange(p) for _ in range(rng.randint(1, 6))], p)
        s = rng.randrange(p)
        g = oracle.shifted(f, s)
        for n in range(p):
            assert g.eval(n) == f.eval((n + s) % p)


def test_gcd():
    p = 7
    f = Poly((1, 0, 1), p) * Poly((2, 1), p)
    g = Poly((1, 0, 1), p) * Poly((3, 1), p)
    assert poly_gcd(f, g) == Poly((1, 0, 1), p)
    assert poly_gcd(f, Poly((1,), p)).degree == 0


# --- irreducibility ----------------------------------------------------------


def test_irreducible_examples():
    assert is_irreducible(Poly((1, 0, 1), 3))       # x^2 + 1 over F_3
    assert not is_irreducible(Poly((2, 0, 1), 3))   # (x-1)(x+1)
    assert not is_irreducible(Poly((1, 0, 1), 5))   # 2^2 = -1 mod 5
    with pytest.raises(ParameterError):
        is_irreducible(Poly((3,), 5))


def _irreducible_by_trial_division(f: Poly) -> bool:
    p = f.p
    f = f.monic()
    for deg in range(1, f.degree // 2 + 1):
        for rest in product(range(p), repeat=deg):
            g = Poly(rest + (1,), p)
            if (f % g).is_zero:
                return False
    return True


@pytest.mark.parametrize("p", [3, 5, 7])
def test_irreducibility_matches_trial_division(p):
    rng = random.Random(p)
    for d in range(2, 5):
        # all monic polynomials for small spaces, random sample otherwise
        space = p**d
        if space <= 400:
            candidates = [Poly(rest + (1,), p)
                          for rest in product(range(p), repeat=d)]
        else:
            candidates = [Poly([rng.randrange(p) for _ in range(d)] + [1], p)
                          for _ in range(200)]
        for f in candidates:
            assert is_irreducible(f) == _irreducible_by_trial_division(f)


# --- counting and enumeration ------------------------------------------------


def test_mobius():
    assert [mobius(n) for n in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mobius_matches_its_defining_sum():
    # mu(1) = 1 and, for n > 1, the sum of mu(t) over t | n is 0
    n_max = 10**4
    mu = [0, 1] + [0] * (n_max - 2)
    for n in range(1, n_max):
        for m in range(2 * n, n_max, n):
            mu[m] -= mu[n]
    assert [mobius(n) for n in range(1, n_max)] == mu[1:]


@pytest.mark.parametrize("p, d", [(3, 2), (3, 3), (3, 4), (3, 6), (5, 2),
                                  (5, 3), (5, 4), (7, 2), (7, 3), (13, 2)])
def test_gauss_count_matches_enumeration(p, d):
    assert count_irreducibles(p, d) == len(enumerate_irreducibles(p, d, False))


def test_gauss_count_degree_one_and_refusal():
    assert count_irreducibles(7, 1) == 7
    with pytest.raises(ParameterError):
        count_irreducibles(7, 0)


def test_count_examples():
    assert count_trace_zero_irreducibles(3, 2) == 1
    assert count_trace_zero_irreducibles(7, 2) == 3
    assert count_trace_zero_irreducibles(5, 3) == 8  # (125 - 5)/15


def test_count_closed_form_for_prime_degree():
    for p in (3, 5, 7, 11, 13):
        for d in (2, 3):
            if p == d:
                continue
            assert count_trace_zero_irreducibles(p, d) == \
                (p**d - p) // (d * p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_count_matches_enumeration(p, d):
    assert count_trace_zero_irreducibles(p, d) == \
        len(enumerate_trace_zero_irreducibles(p, d))


def test_count_when_p_divides_d():
    # direct enumeration is the oracle; the naive Mobius sum is not an
    # integer here (24/9 for p = d = 3)
    assert count_trace_zero_irreducibles(3, 3) == 2
    assert len(enumerate_trace_zero_irreducibles(3, 3)) == 2


def test_enumeration_examples():
    assert enumerate_trace_zero_irreducibles(3, 2) == [Poly((1, 0, 1), 3)]
    assert enumerate_trace_zero_irreducibles(7, 2) == [
        Poly((1, 0, 1), 7), Poly((2, 0, 1), 7), Poly((4, 0, 1), 7)]
    lst = enumerate_trace_zero_irreducibles(5, 3)
    assert len(lst) == 8
    assert lst == sorted(lst, key=lambda f: tuple(reversed(f.coeffs)))
    for f in lst:
        assert f.is_monic and f.degree == 3 and f.coeffs[2] == 0
        assert is_irreducible(f)


def test_enumeration_budget():
    with pytest.raises(BudgetError) as exc:
        enumerate_trace_zero_irreducibles(101, 5, budget=1000)
    assert "budget" in str(exc.value)
    assert exc.value.estimate == 101**4
    with pytest.raises(BudgetError) as exc:
        enumerate_irreducibles(101, 4, trace_zero=False, budget=1000)
    assert exc.value.estimate == 101**4


# --- minimal polynomials and representatives ---------------------------------


def test_minimal_polynomial_examples():
    assert minimal_polynomial(ExtElem(3, (0, 1))) == Poly((1, 0, 1), 3)
    for c in range(7):
        assert minimal_polynomial(ExtElem(7, (c, 0, 0))) == Poly((-c, 1), 7)


def test_minimal_polynomial_vieta():
    # the constant term is (-1)^t times the product of the t distinct
    # literal conjugates
    rng = random.Random(11)
    fld = oracle.make_field(5, 3)
    for _ in range(25):
        b = tuple(rng.randrange(5) for _ in range(3))
        conj = oracle.conjugates(fld, b)
        t = len(conj)
        mp = minimal_polynomial(ExtElem(5, b))
        assert mp.degree == t
        assert oracle.const(fld, (-1) ** t * mp.coeffs[0]) == \
            oracle.prod(fld, conj)


def test_minimal_polynomial_refuses_a_coefficient_outside_the_base_field(
        monkeypatch):
    # a field whose "Frobenius" is the identity: the orbit of x is {x},
    # and X - x does not lie over F_3
    monkeypatch.setattr(poly, "_field", lambda p, d: (
        Poly((1, 0, 1), 3), ((1, 0), (0, 1))))
    with pytest.raises(InternalError):
        minimal_polynomial(ExtElem(3, (0, 1)))
    assert minimal_polynomial(ExtElem(3, (2, 0))) == Poly((1, 1), 3)


def test_conjugacy_representatives_examples():
    reps = conjugacy_representatives(3, 2, trace_zero_only=True)
    assert len(reps) == 1
    assert minimal_polynomial(reps[0]) == Poly((1, 0, 1), 3)
    assert len(conjugacy_representatives(5, 3, trace_zero_only=True)) == 8


@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
def test_representatives_biject_with_polynomials(p, d):
    reps = conjugacy_representatives(p, d, trace_zero_only=True)
    polys = sorted(minimal_polynomial(b).coeffs for b in reps)
    expected = sorted(f.coeffs for f in enumerate_trace_zero_irreducibles(p, d))
    assert polys == expected
    # without the filter: one class per monic irreducible of degree d
    all_reps = conjugacy_representatives(p, d, trace_zero_only=False)
    total = sum(mobius(t) * p ** (d // t)
                for t in range(1, d + 1) if d % t == 0) // d
    assert len(all_reps) == total


def test_representatives_are_orbit_minima():
    for b in conjugacy_representatives(5, 2, trace_zero_only=False):
        assert b.p == 5 and b.coeffs == min(
            oracle.conjugates(oracle.make_field(5, 2), b.coeffs))


def test_representatives_budget():
    with pytest.raises(BudgetError):
        conjugacy_representatives(101, 4, trace_zero_only=True, budget=10**6)


# --- coefficient scaling -----------------------------------------------------


def test_scale_identity():
    f = Poly((1, 0, 1), 5)
    assert scale_poly(f, 1) == f


def test_scale_example():
    assert scale_poly(Poly((1, 0, 1), 5), 2) == Poly((4, 0, 1), 5)


def test_scale_against_symbolic_oracle():
    # oracle: expand i^d f(x/i) over the rationals, reduce mod p
    # (sympy, frozen): 2^5 * f(x/2) = x^5 + 4x^3 + 8x^2 + 32
    f = Poly((1, 0, 1, 1, 0, 1), 11)  # x^5 + x^3 + x^2 + 1
    assert scale_poly(f, 2) == Poly((32, 0, 8, 4, 0, 1), 11)


def test_scale_group_action():
    rng = random.Random(5)
    for p in (5, 7, 11):
        for _ in range(20):
            d = rng.randint(1, 6)
            f = Poly([rng.randrange(p) for _ in range(d)] + [1], p)
            i = rng.randrange(1, p)
            inv = pow(i, p - 2, p)
            assert scale_poly(scale_poly(f, i), inv) == f
            assert scale_poly(f, i).is_monic


def test_scale_preserves_irreducibility():
    f = Poly((4, 0, 1, 1, 0, 1), 11)
    assert is_irreducible(f)
    for i in range(1, 11):
        assert is_irreducible(scale_poly(f, i))


def test_scale_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        scale_poly(Poly((1, 0, 1), 5), 0)
    with pytest.raises(ParameterError):
        scale_poly(Poly((1, 0, 2), 5), 2)  # not monic


# --- square-free products ----------------------------------------------------


def test_scaled_shifted_products_are_squarefree():
    # the distinctness argument for the scaled family: products of
    # scaled copies at distinct (scale, shift) pairs stay square-free
    base = Poly((4, 0, 1, 1, 0, 1), 11)
    assert is_irreducible(base)
    rng = random.Random(6)
    for _ in range(25):
        pairs = set()
        while len(pairs) < 3:
            pairs.add((rng.randrange(1, 11), rng.randrange(11)))
        h = Poly((1,), 11)
        for i, s in sorted(pairs):
            h = h * oracle.shifted(scale_poly(base, i), s)
        assert poly_gcd(h, h.derivative()).degree == 0
