import io
import random

import pytest

from prsfam.construct import family_f1, family_f2, family_k_symbol
from prsfam.errors import ParameterError, ParseError
from prsfam.family import (
    _BASE_TAGS,
    Family,
    _check_tag,
    _family,
    dual,
    read_family,
    write_family,
)
from prsfam.ff import char_k, count_trace_zero_irreducibles, legendre
from prsfam.poly import (
    Poly,
    conjugacy_representatives,
    minimal_polynomial,
    scale_poly,
)

from _util import random_family


# --- Family type -------------------------------------------------------------


def test_family_validation():
    with pytest.raises(ParameterError):
        Family(p=3, d=1, k=2, rows=())
    with pytest.raises(ParameterError):
        Family(p=3, d=1, k=2, rows=((0, 1), (0,)))  # ragged
    with pytest.raises(ParameterError):
        Family(p=3, d=1, k=2, rows=((0, 2),))  # symbol out of range
    with pytest.raises(ParameterError, match="symbol -1 out of range"):
        Family(p=3, d=1, k=2, rows=((0, 1), (-1, 1)))
    with pytest.raises(ParameterError):
        Family(p=3, d=1, k=2, rows=((0, 1),), construction="bogus")


@pytest.mark.parametrize("rows", [
    [[0, 1, 1, 0], [1, 1, 0, 0]],   # lists: unhashable rows
    ((0, 1, 1, 0), [1, 1, 0, 0]),
    [(0, 1, 1, 0), (1, 1, 0, 0)],
    ((0, 1, 1.0, 0),),              # a float that passes the range check
    ((0, True, 1, 0),),             # and a bool
])
def test_family_refuses_rows_that_are_not_int_tuples(rows):
    with pytest.raises(ParameterError):
        Family(p=5, d=2, k=2, rows=rows)


@pytest.mark.parametrize("fields", [
    {"rows": ()},
    {"rows": ((0, 1), (0,))},
    {"rows": ((),)},
    {"rows": [(0, 1)]},
    {"construction": "bogus"},
    {"k": 0},
    {"p": 3.0},
])
def test_valid_symbol_constructor_keeps_the_shape_checks(fields):
    # the builders, dual and a tabled file read skip only the symbol passes
    fields = {"p": 3, "d": 1, "k": 2, "rows": ((0, 1),), **fields}
    with pytest.raises(ParameterError):
        Family(**fields)
    with pytest.raises(ParameterError):
        _family(**fields)


@pytest.mark.parametrize("field", ["p", "d", "k"])
@pytest.mark.parametrize("value", [2.0, True, "2", None])
def test_family_refuses_p_d_k_that_are_not_ints(field, value):
    fields = {"p": 5, "d": 2, "k": 2, field: value}
    with pytest.raises(ParameterError, match="p, d and k must be ints"):
        Family(**fields, rows=((0, 1, 1, 0), (1, 1, 0, 0), (1, 0, 1, 1)))


def test_pm_view():
    fam = Family(p=3, d=1, k=2, rows=((0, 1, 0),))
    assert fam.pm_rows() == ((1, -1, 1),)
    with pytest.raises(ParameterError):
        Family(p=3, d=1, k=3, rows=((0, 1, 2),)).pm_rows()


# --- scaled-polynomial family ------------------------------------------------


def test_f1_shape_and_distinctness():
    fam = family_f1(11, 5)
    assert fam.size == 10 and fam.length == 10
    assert fam.k == 2 and fam.construction == "f1"
    assert fam.distinct_rows()
    assert all(s in (0, 1) for row in fam.rows for s in row)


def test_f1_first_row_is_base_sequence():
    fam = family_f1(11, 5)
    base = Poly(fam.params["base"], 11)
    expected = tuple(0 if legendre(base.eval(n), 11) == 1 else 1
                     for n in range(1, 11))
    assert fam.rows[0] == expected


def test_f1_rows_follow_scaling():
    fam = family_f1(13, 5)
    base = Poly(fam.params["base"], 13)
    for i in range(1, 13):
        fi = scale_poly(base, i)
        expected = tuple(0 if legendre(fi.eval(n), 13) == 1 else 1
                         for n in range(1, 13))
        assert fam.rows[i - 1] == expected


def test_f1_base_validation():
    with pytest.raises(ParameterError):
        family_f1(11, 4)  # degree too small
    with pytest.raises(ParameterError):
        family_f1(5, 5)  # p divides d
    with pytest.raises(ParameterError):
        family_f1(9, 5)  # not prime
    # x^5 + x^4 + ... has nonzero x^(d-1) coefficient
    with pytest.raises(ParameterError):
        family_f1(11, 5, base=Poly((4, 0, 1, 1, 1, 1), 11))
    # zero x^(d-2) coefficient
    with pytest.raises(ParameterError):
        family_f1(11, 5, base=Poly((4, 0, 1, 0, 0, 1), 11))
    # reducible base
    with pytest.raises(ParameterError):
        family_f1(11, 5, base=Poly((0, 0, 1, 1, 0, 1), 11))


def test_f1_explicit_base_matches_search():
    fam = family_f1(11, 5)
    again = family_f1(11, 5, base=Poly(fam.params["base"], 11))
    assert fam == again


# --- irreducible-polynomial family ------------------------------------------


def test_f2_hand_example():
    fam = family_f2(3, 2)
    # single polynomial x^2 + 1; values at 1, 2 are 2, 2; symbol -1 -> 1
    assert fam.rows == ((1, 1),)
    assert fam.size == 1 and fam.length == 2


def test_f2_shapes():
    fam = family_f2(5, 3)
    assert fam.size == 8 and fam.length == 4
    fam = family_f2(7, 2)
    assert fam.size == 3 and fam.length == 6
    assert fam.distinct_rows()


def test_f2_size_matches_count():
    for p, d in [(3, 2), (5, 2), (7, 2), (5, 3), (11, 2), (13, 2)]:
        assert family_f2(p, d).size == count_trace_zero_irreducibles(p, d)


def test_f2_without_trace_restriction():
    fam = family_f2(5, 2, trace_zero=False)
    # all monic irreducible quadratics over F_5: (25 - 5)/2 = 10
    assert fam.size == 10
    assert fam.distinct_rows()


def test_f2_duplicate_row_counterexample():
    # x^3+2 and x^3+5 over F_7 are distinct irreducible trace-zero
    # cubics whose values differ pointwise by the squares 2 and 4, so
    # their residue-symbol rows coincide; the builder keeps both rather
    # than refusing
    fam = family_f2(7, 3)
    assert fam.size == 16  # one row per polynomial, duplicates included
    assert not fam.distinct_rows()
    a = tuple(0 if legendre(n**3 + 2, 7) == 1 else 1 for n in range(1, 7))
    b = tuple(0 if legendre(n**3 + 5, 7) == 1 else 1 for n in range(1, 7))
    assert a == b and fam.rows.count(a) == 2
    for p, d in [(3, 2), (5, 2), (7, 2), (5, 3), (11, 2), (13, 2)]:
        assert family_f2(p, d).distinct_rows()


# --- k-symbol family ---------------------------------------------------------


def test_ksym_shape_and_size():
    fam = family_k_symbol(13, 2, 3)
    assert fam.size == 6 and fam.length == 12 and fam.k == 3
    assert fam.distinct_rows()
    fam = family_k_symbol(11, 2, 5)
    assert fam.size == 5 and fam.length == 10 and fam.k == 5


def test_ksym_rejections():
    with pytest.raises(ParameterError, match="gcd"):
        family_k_symbol(7, 3, 3)  # gcd(3, 57) = 3
    with pytest.raises(ParameterError, match="gcd"):
        family_k_symbol(13, 3, 3)  # gcd(3, 183) = 3
    with pytest.raises(ParameterError, match="divide"):
        family_k_symbol(5, 3, 3)  # 3 does not divide 4
    with pytest.raises(ParameterError):
        family_k_symbol(13, 4, 3)  # degree not prime
    with pytest.raises(ParameterError):
        family_k_symbol(3, 3, 2)  # p = d
    with pytest.raises(ParameterError):
        family_k_symbol(13, 2, 1)  # degenerate alphabet


def test_ksym_coprime_escape_hatch():
    with pytest.raises(ParameterError, match="gcd"):
        family_k_symbol(13, 2, 2)
    fam = family_k_symbol(13, 2, 2, require_coprime=False)
    assert fam.size == 6 and fam.k == 2


@pytest.mark.parametrize("p,d", [(5, 3), (13, 2)])
def test_ksym_order_two_matches_residue_family(p, d):
    # row of each representative equals the residue-symbol row of its
    # minimal polynomial
    ksym = family_k_symbol(p, d, 2, require_coprime=False)
    f2 = family_f2(p, d)
    from prsfam.poly import enumerate_trace_zero_irreducibles
    by_poly = dict(zip(enumerate_trace_zero_irreducibles(p, d), f2.rows))
    reps = conjugacy_representatives(p, d, trace_zero_only=True)
    assert len(reps) == ksym.size
    for beta, row in zip(reps, ksym.rows):
        assert row == by_poly[minimal_polynomial(beta)]


@pytest.mark.parametrize("p,d,k", [(7, 2, 3), (11, 2, 5), (13, 3, 4),
                                   (29, 2, 7), (11, 3, 5)])
def test_ksym_rows_are_literal_characters(p, d, k):
    fam = family_k_symbol(p, d, k)
    reps = conjugacy_representatives(p, d, trace_zero_only=True)
    assert fam.rows == tuple(
        tuple(char_k(minimal_polynomial(beta).eval(n), k, p)
              for n in range(1, p))
        for beta in reps)


# --- dual --------------------------------------------------------------------


def test_dual_shapes_and_involution():
    fam = family_f2(7, 2)
    d = dual(fam)
    assert d.size == fam.length and d.length == fam.size
    assert d.construction == "dual(f2)"
    assert dual(d) == fam
    one = Family(p=3, d=1, k=2, rows=((0, 1, 0),))
    assert dual(one).rows == ((0,), (1,), (0,))


def test_dual_has_its_own_distinctness():
    fam = family_f2(7, 3)  # two equal rows; the dual's rows are distinct
    assert not fam.distinct_rows()
    d = dual(fam)
    assert d.distinct_rows()
    assert not dual(d).distinct_rows()
    # builders and dual record no build-time flags
    assert "distinct_rows" not in d.params
    assert family_k_symbol(13, 2, 3).params == {}


def test_dual_hand_example():
    fam = family_f2(3, 2)  # single row (1, 1)
    assert dual(fam).rows == ((1,), (1,))


def test_dual_preserves_symbol_multiset():
    rng = random.Random(4)
    for _ in range(20):
        fam = random_family(rng, k=3)
        d = dual(fam)
        assert sorted(s for r in fam.rows for s in r) == \
            sorted(s for r in d.rows for s in r)
        assert dual(d) == fam


def test_nested_dual_tag_is_refused():
    # no family carries dual(dual(...)): dual would unwrap one level of
    # it, so dual(dual(fam)) would not be fam
    with pytest.raises(ParameterError, match="unknown construction tag"):
        Family(p=3, d=1, k=2, rows=((0, 1),), construction="dual(dual(f2))")
    with pytest.raises(ParameterError, match="unknown construction tag"):
        _check_tag("dual(dual(f2))")


@pytest.mark.parametrize("tag", sorted(_BASE_TAGS | {f"dual({t})"
                                                     for t in _BASE_TAGS}))
def test_dual_is_an_involution_on_every_accepted_tag(tag):
    _check_tag(tag)
    fam = Family(p=3, d=1, k=2, rows=((0, 1), (1, 1)), construction=tag)
    assert dual(dual(fam)) == fam and dual(fam).construction != tag


# --- serialization -----------------------------------------------------------


def test_round_trip():
    for fam in (family_f2(7, 2), family_f1(11, 5), family_k_symbol(13, 2, 3)):
        buf = io.StringIO()
        write_family(fam, buf)
        buf.seek(0)
        assert read_family(buf) == fam


def test_round_trip_of_two_digit_symbols():
    fam = family_k_symbol(23, 2, 11)
    assert 10 in set().union(*fam.rows)
    buf = io.StringIO()
    write_family(fam, buf)
    buf.seek(0)
    assert read_family(buf) == fam

    header = "#PRSFAM v1 p=23 d=2 k=11 N=4 F=1 construction=external\n"
    # a symbol spelled otherwise than write_family spells it still reads
    assert read_family(io.StringIO(header + "01 1 10 010\n")).rows == \
        ((1, 1, 10, 10),)
    with pytest.raises(ParseError, match="line 2: symbol 12 out of range"):
        read_family(io.StringIO(header + "3 12 11 0\n"))


def test_read_family_checks_a_row_spelled_otherwise():
    header = "#PRSFAM v1 p=5 d=2 k=2 N=4 F=2 construction=external\n"
    fam = read_family(io.StringIO(header + "0 1 1 0\n01 1 0 0\n"))
    assert fam.rows == ((0, 1, 1, 0), (1, 1, 0, 0))
    for row in ("01 2 0 0", "2 1 0 0"):
        with pytest.raises(ParseError, match="line 3: symbol 2 out of range"):
            read_family(io.StringIO(header + "0 1 1 0\n" + row + "\n"))


def test_header_records_only_a_false_trace_zero():
    for trace_zero in (True, False):
        buf = io.StringIO()
        write_family(family_f2(5, 2, trace_zero=trace_zero), buf)
        header = buf.getvalue().splitlines()[0]
        assert header.endswith("construction=f2" if trace_zero
                               else "construction=f2 trace_zero=false")
        buf.seek(0)
        assert read_family(buf).params.get("trace_zero", True) == trace_zero


def test_round_trip_via_path(tmp_path):
    fam = family_f2(5, 3)
    path = str(tmp_path / "fam.txt")
    write_family(fam, path)
    assert read_family(path) == fam
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw  # LF endings only


def test_parse_errors_carry_line_numbers():
    good = io.StringIO()
    write_family(family_f2(7, 2), good)
    lines = good.getvalue().splitlines()

    bad = "\n".join(["#NOTAFAM"] + lines[1:]) + "\n"
    with pytest.raises(ParseError, match="line 1"):
        read_family(io.StringIO(bad))

    # symbol out of the declared alphabet
    bad = "\n".join([lines[0], "0 1 1 1 1 2"] + lines[2:]) + "\n"
    with pytest.raises(ParseError, match="line 2"):
        read_family(io.StringIO(bad))

    # ragged row
    bad = "\n".join([lines[0], "0 1"] + lines[2:]) + "\n"
    with pytest.raises(ParseError, match="line 2"):
        read_family(io.StringIO(bad))

    # header row-count mismatch
    bad = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(ParseError, match="F=3"):
        read_family(io.StringIO(bad))

    # unknown construction tag
    bad = lines[0].replace("construction=f2", "construction=oops")
    with pytest.raises(ParseError):
        read_family(io.StringIO("\n".join([bad] + lines[1:]) + "\n"))
