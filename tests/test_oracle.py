"""Differential tests: exact measures, ``f_complexity`` included,
against the literal-definition oracle in ``oracle.py``, value and
witness, at one and two jobs and on families that repeat rows; and
the sampled modes against the oracle's replay of their draws."""

from math import comb, factorial

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from _util import copied_cases, replace
from prsfam.construct import Family, family_k_symbol
from prsfam.measures import (
    MODE_EXACT,
    MODE_SAMPLED,
    CorrelationSpec,
    big_gamma,
    cross_correlation,
    PatternWitness,
    cross_correlation_circ,
    evaluate_witness,
    f_complexity,
    gamma,
    gamma_circ,
)

# Oracle work per example, in inner-loop steps; keeps the module fast.
_ORACLE_CAP = 60_000

_settings = settings(derandomize=True, database=None, max_examples=60,
                     deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cases(draw, binary: bool, per_window: str = "one", k_min: int = 2,
          k_max: int = 5):
    """A family and an order: k in k_min..k_max (2 when binary), F <= 5,
    N <= 8, ell in 1..3, with ell, F and then N cut so the oracle stays
    within _ORACLE_CAP.  Row 0 may be made constant and the last row a
    copy of row 0."""
    k = 2 if binary else draw(st.integers(k_min, k_max))

    def cost(n, ell, f):
        mult = {"one": 1, "patterns": k**ell, "maps": 2**ell,
                "relabelings": factorial(k)**ell}[per_window]
        return comb(n + ell - 1, ell) * f**ell * n * n * ell * mult

    ell = draw(st.integers(1, max(e for e in (1, 2, 3)
                                  if e == 1 or cost(1, e, 1) <= _ORACLE_CAP)))
    f = draw(st.integers(1, max(g for g in range(1, 6)
                                if g == 1 or cost(1, ell, g) <= _ORACLE_CAP)))

    n_max = max([1] + [n for n in range(1, 9)
                       if cost(n, ell, f) <= _ORACLE_CAP])
    n = draw(st.integers(1, n_max))
    row = st.tuples(*[st.integers(0, k - 1)] * n)
    rows = draw(st.lists(row, min_size=f, max_size=f))
    if draw(st.booleans()):
        rows[0] = (draw(st.integers(0, k - 1)),) * n
    if f >= 2 and draw(st.booleans()):
        rows[-1] = rows[0]
    return Family(p=3, d=1, k=k, rows=tuple(rows)), ell


def _spec(fam, ell, key, circ=False, field=None):
    if key is None:
        return None
    if circ:
        I, D, m = key[0], (0,) * ell, fam.length
    else:
        I, D, m = key[:3]
    extra = {field: key[-1]} if field else {}
    return CorrelationSpec(ell=ell, window=m, shifts=D,
                           rows=tuple(i + 1 for i in I), **extra)


def _check(measure, fam, ell, expected_value, expected_witness):
    for n_jobs in (1, 2):
        r = measure(fam, ell, n_jobs=n_jobs)
        assert r.mode == MODE_EXACT
        assert r.value == expected_value
        assert type(r.value) is type(expected_value)
        assert r.witness == expected_witness


_EDGE_BINARY = [
    (Family(p=3, d=1, k=2, rows=((0,),)), 1),                 # F = N = 1
    (Family(p=3, d=1, k=2, rows=((1,),)), 2),                 # empty space
    (Family(p=3, d=1, k=2, rows=((0, 0, 0, 0),)), 3),         # F = 1
    (Family(p=3, d=1, k=2, rows=((0, 1, 1), (0, 1, 1))), 2),  # duplicates
    (Family(p=3, d=1, k=2, rows=((1,), (0,), (1,))), 2),      # N = 1
]


def _examples(cases_):
    def wrap(test):
        for case in cases_:
            test = example(case=case)(test)
        return test
    return wrap


@_settings
@given(case=cases(binary=True))
@_examples(_EDGE_BINARY)
def test_phi_matches_oracle(case):
    fam, ell = case
    v, key = oracle.phi(fam, ell)
    _check(cross_correlation, fam, ell, v, _spec(fam, ell, key))


@_settings
@given(case=cases(binary=True))
@_examples(_EDGE_BINARY)
def test_phi_circ_matches_oracle(case):
    fam, ell = case
    v, key = oracle.phi(fam, ell, circ=True)
    _check(cross_correlation_circ, fam, ell, v,
           _spec(fam, ell, key, circ=True))


@_settings
@given(case=cases(binary=False, per_window="patterns"))
@_examples(_EDGE_BINARY + [
    (Family(p=3, d=1, k=5, rows=((4, 4, 4),)), 1),
    (Family(p=3, d=1, k=3, rows=((0, 2), (1, 1), (0, 2))), 2),
    (Family(p=3, d=1, k=1, rows=((0, 0, 0), (0, 0, 0))), 2),  # k = 1
])
def test_gamma_matches_oracle(case):
    fam, ell = case
    v, key = oracle.gamma(fam, ell)
    _check(gamma, fam, ell, v, _spec(fam, ell, key, field="pattern"))


@_settings
@given(case=cases(binary=False, per_window="patterns"))
@_examples(_EDGE_BINARY + [
    (Family(p=3, d=1, k=4, rows=((3,), (0,), (3,))), 2),
])
def test_gamma_circ_matches_oracle(case):
    fam, ell = case
    v, key = oracle.gamma(fam, ell, circ=True)
    _check(gamma_circ, fam, ell, v,
           _spec(fam, ell, key, circ=True, field="pattern"))


@_settings
@given(case=cases(binary=True, per_window="maps"))
@_examples(_EDGE_BINARY)
def test_binary_big_gamma_matches_oracle(case):
    fam, ell = case
    v, key = oracle.big_gamma_binary(fam, ell)
    _check(big_gamma, fam, ell, v, _spec(fam, ell, key, field="root_maps"))


@settings(_settings, max_examples=120)
@given(case=cases(binary=False, per_window="relabelings", k_min=1))
@_examples(_EDGE_BINARY + [
    (Family(p=3, d=1, k=1, rows=((0, 0, 0),)), 1),            # k = 1
    (Family(p=3, d=1, k=1, rows=((0, 0), (0, 0))), 2),        # k = 1 twice
    (Family(p=3, d=1, k=3, rows=((2,),)), 1),                 # F = N = 1
    (Family(p=3, d=1, k=3, rows=((1,), (2,), (1,))), 2),      # N = 1
    (Family(p=3, d=1, k=4, rows=((3, 3, 3, 3),)), 2),         # constant row
    (Family(p=3, d=1, k=3, rows=((0, 2, 1), (0, 2, 1))), 2),  # duplicates
    (Family(p=3, d=1, k=5, rows=((4, 0), (4, 4), (1, 3))), 1),
    (Family(p=3, d=1, k=4, rows=((0, 3, 1), (2, 2, 0))), 2),
])
def test_big_gamma_matches_oracle(case):
    fam, ell = case
    v, key = oracle.big_gamma(fam, ell)
    _check(big_gamma, fam, ell, v, _spec(fam, ell, key, field="root_maps"))


@st.composite
def families(draw):
    """A family with k in 1..5, F <= 9, N <= 8; row 0 may be made
    constant and the last row a copy of row 0."""
    k, f, n = draw(st.integers(1, 5)), draw(st.integers(1, 9)), \
        draw(st.integers(1, 8))
    rows = draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * n),
                         min_size=f, max_size=f))
    if draw(st.booleans()):
        rows[0] = (draw(st.integers(0, k - 1)),) * n
    if f >= 2 and draw(st.booleans()):
        rows[-1] = rows[0]
    return Family(p=3, d=1, k=k, rows=tuple(rows))


@settings(_settings, max_examples=150)
@given(fam=families())
@example(fam=Family(p=3, d=1, k=2, rows=((0,),)))                # F = N = 1
@example(fam=Family(p=3, d=1, k=2, rows=((0,), (1,))))           # N = 1
@example(fam=Family(p=3, d=1, k=1, rows=((0, 0, 0), (0, 0, 0))))  # k = 1
@example(fam=Family(p=3, d=1, k=3, rows=((2, 2, 2, 2),)))         # F = 1
@example(fam=Family(p=3, d=1, k=2,
                    rows=((0, 0), (0, 1), (1, 0), (1, 1), (0, 1))))
def test_f_complexity_matches_oracle(fam):
    _check_f_complexity(fam)


def _check_f_complexity(fam):
    v, key = oracle.f_complexity(fam)
    r = f_complexity(fam)
    assert r.value == v and type(r.value) is int
    if key is None:
        assert r.witness is None
    else:
        positions, pattern = key
        assert r.witness == PatternWitness(
            positions=tuple(q + 1 for q in positions), pattern=pattern)
    assert evaluate_witness(fam, r) == v


@settings(_settings, max_examples=15)
@given(case=cases(binary=False, per_window="relabelings", k_min=7, k_max=7))
@_examples([
    (Family(p=3, d=1, k=7, rows=((6, 0, 3, 6),)), 1),
    (Family(p=3, d=1, k=7, rows=((1, 5, 2), (4, 4, 0))), 1),
    (Family(p=3, d=1, k=7, rows=((2, 2, 2), (2, 2, 2))), 1),  # duplicates
])
def test_big_gamma_generic_alphabet_matches_oracle(case):
    # k = 7 takes the generic exact path: equality on the coordinates mod
    # Phi_7, order at growing precision
    fam, ell = case
    v, key = oracle.big_gamma(fam, ell)
    _check(big_gamma, fam, ell, v, _spec(fam, ell, key, field="root_maps"))


@settings(_settings, max_examples=40)
@given(case=cases(binary=False, per_window="relabelings", k_min=3, k_max=6),
       data=st.data())
def test_big_gamma_invariant_under_symbol_bijection(case, data):
    # one bijection of Z_k applied to every symbol only reorders the
    # relabelings, so the exact |z|^2 of the maximum stays
    fam, ell = case
    sigma = data.draw(st.permutations(range(fam.k)))
    moved = Family(p=3, d=1, k=fam.k, rows=tuple(
        tuple(sigma[x] for x in row) for row in fam.rows))
    a, b = big_gamma(fam, ell), big_gamma(moved, ell)
    assert (a.witness is None) == (b.witness is None)
    if a.witness is not None:
        assert _exact_key(fam, a.witness) == _exact_key(moved, b.witness)


def test_big_gamma_float_tie_goes_to_normalised_witness():
    # ksym(31,3,5) at order 1: two relabelings of one window give exactly
    # equal magnitudes whose floats differ in the last bit; the float
    # kernel took (1,0,2,4,3) for its larger float, the exact one takes
    # the lex-smallest, the rotation representative's conjugate
    fam = family_k_symbol(31, 3, 5)
    r = big_gamma(fam, 1)
    assert r.witness == CorrelationSpec(ell=1, window=29, shifts=(0,),
                                        rows=(104,),
                                        root_maps=((0, 1, 4, 2, 3),))
    assert repr(r.value) == "15.548236902780607"
    old = replace(r.witness, root_maps=((1, 0, 2, 4, 3),))
    assert _exact_key(fam, old) == _exact_key(fam, r.witness)


_EDGE_TERNARY = [
    (Family(p=3, d=1, k=3, rows=((2,),)), 1),                 # F = N = 1
    (Family(p=3, d=1, k=3, rows=((1, 1, 1, 1),)), 2),         # F = 1
    (Family(p=3, d=1, k=3, rows=((0, 0, 0), (2, 1, 0))), 2),  # constant row
    (Family(p=3, d=1, k=3, rows=((0, 2, 1), (0, 2, 1))), 2),  # duplicates
    (Family(p=3, d=1, k=3, rows=((1,), (2,), (1,))), 2),      # N = 1
]


_COPIED = copied_cases(31)


def _oracle_cost(fam, ell, per_window):
    n = fam.length
    return comb(n + ell - 1, ell) * fam.size**ell * n * n * ell * per_window


def test_repeated_rows_match_oracle():
    # the exact searches walk the first row with each content only; on
    # families that repeat about half their rows every value and witness
    # is still the oracle's, and every witness row is a first occurrence
    for fam, ell in _COPIED:
        firsts = {fam.rows.index(row) + 1 for row in fam.rows}
        runs = [(gamma, oracle.gamma, {"field": "pattern"}),
                (gamma_circ, lambda f, l: oracle.gamma(f, l, circ=True),
                 {"circ": True, "field": "pattern"})]
        if fam.k == 2:
            runs += [(cross_correlation, oracle.phi, {}),
                     (cross_correlation_circ,
                      lambda f, l: oracle.phi(f, l, circ=True),
                      {"circ": True}),
                     (big_gamma, oracle.big_gamma_binary,
                      {"field": "root_maps"})]
        elif _oracle_cost(fam, ell, factorial(fam.k)**ell) <= _ORACLE_CAP:
            runs.append((big_gamma, oracle.big_gamma, {"field": "root_maps"}))
        for measure, ref, spec in runs:
            v, key = ref(fam, ell)
            witness = _spec(fam, ell, key, **spec)
            _check(measure, fam, ell, v, witness)
            assert witness is None or set(witness.rows) <= firsts
        _check_f_complexity(fam)


_SAMPLED = {
    "phi": (cross_correlation, None),
    "gamma": (gamma, "pattern"),
    "big_gamma": (big_gamma, "root_maps"),
}


def _check_sampled(name, case, seed, samples):
    fam, ell = case
    measure, field = _SAMPLED[name]
    v, key = oracle.sampled(name, fam, ell, seed, samples)
    r = measure(fam, ell, mode=MODE_SAMPLED, seed=seed, samples=samples)
    assert r.mode == MODE_SAMPLED
    assert r.value == v
    assert type(r.value) is type(v)
    assert r.witness == _spec(fam, ell, key, field=field)
    assert evaluate_witness(fam, r) == r.value
    exact = measure(fam, ell)
    if name == "big_gamma" and fam.k >= 3:
        # equal magnitudes may display different last bits, so the order
        # is checked exactly, on the windows the two witnesses name
        if r.witness is not None:
            assert _exact_key(fam, r.witness) <= _exact_key(fam, exact.witness)
    else:
        assert r.value <= exact.value


def _exact_key(fam, w):
    I = tuple(i - 1 for i in w.rows)
    return oracle._root_window(fam, I, w.shifts, w.window, w.root_maps)[0]


def _sampled_examples(cases_):
    def wrap(test):
        for case in cases_:
            test = example(case=case, seed=1, samples=30)(test)
        return test
    return wrap


_sampled_settings = settings(_settings, max_examples=150)
_seeds = st.integers(0, 2**32 - 1)
_samples = st.integers(1, 30)


@_sampled_settings
@given(case=cases(binary=True), seed=_seeds, samples=_samples)
@_sampled_examples(_EDGE_BINARY)
def test_sampled_phi_matches_oracle(case, seed, samples):
    _check_sampled("phi", case, seed, samples)


@_sampled_settings
@given(case=cases(binary=False, per_window="patterns", k_min=1),
       seed=_seeds, samples=_samples)
@_sampled_examples(_EDGE_BINARY + _EDGE_TERNARY + [
    (Family(p=3, d=1, k=5, rows=((4, 4, 4),)), 1),
    (Family(p=3, d=1, k=4, rows=((3, 0, 3), (1, 2, 2), (3, 0, 3))), 2),
    (Family(p=3, d=1, k=1, rows=((0, 0, 0), (0, 0, 0))), 2),  # k = 1
])
def test_sampled_gamma_matches_oracle(case, seed, samples):
    _check_sampled("gamma", case, seed, samples)


@_sampled_settings
@given(case=cases(binary=False, per_window="relabelings", k_min=1),
       seed=_seeds, samples=_samples)
@_sampled_examples(_EDGE_BINARY + _EDGE_TERNARY + [
    (Family(p=3, d=1, k=1, rows=((0, 0, 0),)), 1),            # k = 1
    (Family(p=3, d=1, k=4, rows=((3, 3, 3, 3),)), 2),         # constant row
    (Family(p=3, d=1, k=5, rows=((4, 0), (4, 4), (1, 3))), 1),
    (Family(p=3, d=1, k=4, rows=((0, 3, 1), (2, 2, 0))), 2),
])
def test_sampled_big_gamma_matches_oracle(case, seed, samples):
    _check_sampled("big_gamma", case, seed, samples)


@settings(_sampled_settings, max_examples=30)
@given(case=cases(binary=False, per_window="relabelings", k_min=7, k_max=7),
       seed=_seeds, samples=_samples)
@_sampled_examples([(Family(p=3, d=1, k=7, rows=((6, 0, 3, 6),)), 1),
                    (Family(p=3, d=1, k=7, rows=((1, 5, 2), (4, 4, 0))), 1)])
def test_sampled_big_gamma_k7_matches_oracle(case, seed, samples):
    _check_sampled("big_gamma", case, seed, samples)
