import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from prsfam import bounds
from prsfam.bounds import (
    KIND_ASYMPTOTIC,
    KIND_ENVELOPE,
    KIND_EXACT,
    dual_gamma_circ_envelope,
    dual_orders,
    fc_envelope_f1,
    fc_envelope_f2,
    fc_envelope_ksym,
    fc_lower_bound_from_dual,
    gamma_envelope,
    phi_envelope,
    verify_family,
    verify_plan,
    weil_check,
)
from prsfam import cli
from prsfam.cli import compute_verify_measures
from prsfam.construct import family_f1, family_f2, family_k_symbol
from prsfam.errors import ParameterError
from prsfam.family import Family, dual, write_family
from prsfam.ff import legendre
from prsfam.measures import f_complexity
from prsfam.poly import Poly, is_irreducible, poly_gcd


# --- covering-complexity lower bound ----------------------------------------


def test_fc_lower_bound_examples():
    assert fc_lower_bound_from_dual(16, 2, 2, "binary") == 2
    assert fc_lower_bound_from_dual(16, 16, 2, "binary") == 0  # clamped
    assert fc_lower_bound_from_dual(9, 3, 3, "kary_logk") == 0


def test_fc_lower_bound_exact_at_power_boundaries():
    # ceil is computed with integer arithmetic, so exact powers do not
    # wobble with floating point
    assert fc_lower_bound_from_dual(2**20, 2, 2, "binary") == 18
    assert fc_lower_bound_from_dual(2**20 + 1, 2, 2, "binary") == 19
    assert fc_lower_bound_from_dual(8, Fraction(1, 2), 2, "binary") == 3


def test_fc_lower_bound_variants_coincide_for_binary_alphabet():
    rng = random.Random(20)
    for _ in range(50):
        f = rng.randint(2, 500)
        corr = rng.randint(1, 40)
        a = fc_lower_bound_from_dual(f, corr, 2, "binary")
        b = fc_lower_bound_from_dual(f, corr, 2, "kary_logk")
        c = fc_lower_bound_from_dual(f, corr, 2, "kary_log2")
        assert a == b == c


def test_fc_lower_bound_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        fc_lower_bound_from_dual(16, 0, 2, "binary")
    with pytest.raises(ParameterError):
        fc_lower_bound_from_dual(1, 2, 2, "binary")
    with pytest.raises(ParameterError):
        fc_lower_bound_from_dual(16, 2, 2, "nope")
    # a log base below 2 never reaches F: refused, for every variant
    for k in (1, 0):
        for variant in ("binary", "kary_logk", "kary_log2"):
            with pytest.raises(ParameterError, match="alphabet size"):
                fc_lower_bound_from_dual(4, 1, k, variant)


@pytest.mark.parametrize("k, f_size, orders", [
    (1, 1, 0), (1, 2, 1), (1, 9, 3), (2, 8, 3), (3, 8, 1), (3, 9, 2),
    (5, 4, 1),
])
def test_dual_orders_read_base_max_k_2(k, f_size, orders):
    fam = Family(p=3, d=1, k=k, rows=((0,),) * f_size)
    assert dual_orders(fam) == orders


# --- envelopes ---------------------------------------------------------------


def test_phi_envelope_example():
    assert phi_envelope(11, 5, 2, 10) == pytest.approx(795.3, abs=0.05)
    assert phi_envelope(11, 5, 2, 0) == 0
    # monotone in each argument
    assert phi_envelope(13, 5, 2, 10) > phi_envelope(11, 5, 2, 10)
    assert phi_envelope(11, 6, 2, 10) > phi_envelope(11, 5, 2, 10)
    assert phi_envelope(11, 5, 3, 10) > phi_envelope(11, 5, 2, 10)


def test_gamma_envelope_example():
    assert gamma_envelope(13, 2, 10) == pytest.approx(184.9, abs=0.1)
    assert gamma_envelope(13, 0, 10) == 0
    assert gamma_envelope(52, 2, 10) / gamma_envelope(13, 2, 10) == \
        pytest.approx(2 * math.log(52) / math.log(13), rel=1e-12)


def test_fc_envelopes():
    assert fc_envelope_f1(101, 5) == pytest.approx(1.007, abs=0.001)
    assert fc_envelope_f1(25, 5) == 0.0  # p = d^2 boundary
    assert fc_envelope_f1(50, 5) + 0.5 == pytest.approx(fc_envelope_f1(100, 5))
    assert fc_envelope_f2(5, 3) == pytest.approx(1.898, abs=0.001)
    assert fc_envelope_f2(3, 2) == pytest.approx(0.585, abs=0.001)
    assert fc_envelope_ksym(5, 3) == pytest.approx(-1.055, abs=0.001)
    assert fc_envelope_ksym(101, 5) == pytest.approx(5.250, abs=0.01)


def test_dual_gamma_circ_envelope_shape():
    assert dual_gamma_circ_envelope(5, 3, 2, 1.0) == \
        pytest.approx(((2 * 5 - 1) * 5**1.5 + 5) / 15)


@pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
def test_envelopes_reject_bad_constant(c):
    for envelope in (lambda: phi_envelope(11, 5, 2, c),
                     lambda: gamma_envelope(13, 2, c),
                     lambda: dual_gamma_circ_envelope(5, 3, 2, c)):
        with pytest.raises(ParameterError, match="envelope constant"):
            envelope()
    fam = family_f2(5, 3)
    with pytest.raises(ParameterError, match="envelope constant"):
        verify_family(fam, [f_complexity(fam)], c=c)


# --- complete character sums -------------------------------------------------


def test_weil_hand_case():
    r = weil_check(Poly((1, 0, 1), 5), 5)
    assert r.measured == 1
    assert r.theoretical == pytest.approx(math.sqrt(5))
    assert r.satisfied and r.kind == KIND_EXACT


def test_weil_linear_sums_vanish():
    for p in (5, 7, 11, 13, 101):
        r = weil_check(Poly((0, 1), p), p)
        assert r.measured == 0 and r.satisfied


def test_weil_two_quadratics():
    h = Poly((1, 0, 1), 7) * Poly((2, 0, 1), 7)
    assert is_irreducible(Poly((1, 0, 1), 7))
    r = weil_check(h, 7)
    assert r.theoretical == pytest.approx(3 * math.sqrt(7))
    assert r.measured <= 3 * math.sqrt(7)
    assert r.satisfied


def test_weil_rejects_non_squarefree():
    h = Poly((1, 1), 7) * Poly((1, 1), 7)
    with pytest.raises(ParameterError):
        weil_check(h, 7)
    with pytest.raises(ParameterError):
        weil_check(Poly((3,), 7), 7)


def test_weil_on_scaled_shifted_products():
    # the correlation estimate's inner object: a product of shifted
    # scaled copies of an irreducible base stays within the sum bound
    from prsfam.poly import scale_poly
    base = Poly((4, 0, 1, 1, 0, 1), 11)
    h = scale_poly(base, 2) * oracle.shifted(scale_poly(base, 3), 1)
    r = weil_check(h, 11)
    assert r.satisfied
    assert r.theoretical == pytest.approx(9 * math.sqrt(11))


def _squarefree_cases(rng, primes, count, roots):
    """``count`` seeded square-free polynomials of degree 1..6 over
    primes drawn from ``primes``, times ``roots`` linear factors."""
    cases = []
    while len(cases) < count:
        p = rng.choice(primes)
        d = rng.randint(1, 6)
        h = Poly([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)],
                 p)
        for _ in range(roots):
            h = h * Poly((-rng.randrange(p), 1), p)
        if poly_gcd(h, h.derivative()).degree == 0:
            cases.append((h, p))
    return cases


def _literal_sum(h, p):
    return sum(legendre(h.eval(n), p) for n in range(p))


def test_weil_seeded_squarefree_suite():
    rng = random.Random(99)
    # small primes, where the degree reaches p, then primes of many
    # lanes, then polynomials with roots in F_p
    cases = (_squarefree_cases(rng, [3, 5, 7, 11, 13, 101], 60, 0)
             + _squarefree_cases(rng, [4099, 10007], 10, 0)
             + _squarefree_cases(rng, [3, 5, 13, 101, 4099, 10007], 20, 2))
    assert {3, 5} <= {p for h, p in cases if h.degree >= p}
    assert any(h.degree == 1 for h, _ in cases)
    # the last lane runs past p - 1 at every prime but 3 (one lane)
    overshoot = {p: math.isqrt(p) * -(-p // math.isqrt(p)) - p
                 for _, p in cases}
    assert overshoot[3] == 0 and all(overshoot[p] > 0 for p in overshoot
                                     if p > 3)
    for h, p in cases:
        r = weil_check(h, p)
        assert r.satisfied, (h, p, r.measured, r.theoretical)
        # independent recomputation of the sum
        assert r.measured == abs(_literal_sum(h, p))


def test_reduce_slots_at_the_largest_prime_the_budget_admits():
    p = 999_999_937  # the largest prime below DEFAULT_BUDGET = 10^9
    lanes = 5
    ones = sum(1 << 32 * i for i in range(lanes))

    def packed(slots):
        return sum(v << 32 * i for i, v in enumerate(slots))

    # every slot at its largest sum, p - 1 + p - 1: no carry between them
    assert bounds._reduce_slots((2 * p - 2) * ones, p, ones) == \
        (p - 2) * ones
    slots = [p - 1, p, 0, 2 * p - 2, p + 1]
    assert bounds._reduce_slots(packed(slots), p, ones) == \
        packed([v % p for v in slots])


def test_weil_refuses_a_prime_too_wide_for_its_lanes(monkeypatch):
    # past a raised budget, two slots could carry across bit 31
    monkeypatch.setattr(bounds, "check_budget", lambda *args: None)
    p = 2**31 - 1
    with pytest.raises(ParameterError, match="too large for 32-bit lanes"):
        weil_check(Poly((1, 0, 1), p), p)


def test_weil_euler_branch_matches_literal_sum(monkeypatch):
    # above the table limit each value goes through Euler's criterion
    calls = []

    def counted(a, p):
        calls.append(a)
        return legendre(a, p)

    monkeypatch.setattr(bounds, "DEFAULT_ENUM_BUDGET", 100)
    monkeypatch.setattr(bounds, "legendre", counted)
    cases = _squarefree_cases(random.Random(3), [101, 4099], 10, 1)
    for h, p in cases:
        assert weil_check(h, p).measured == abs(_literal_sum(h, p))
    assert len(calls) == sum(p for _, p in cases)
    calls.clear()
    weil_check(Poly((1, 0, 1), 97), 97)  # under the limit: the table
    assert not calls


# --- family verification -----------------------------------------------------


def test_verify_f2_all_exact_reports_satisfied():
    fam = family_f2(5, 3)
    reports = verify_family(fam, compute_verify_measures(fam))
    exact = [r for r in reports if r.kind == KIND_EXACT]
    assert exact and all(r.satisfied for r in exact)
    names = {r.name for r in reports}
    assert {"family_size", "rows_distinct", "fc_capacity",
            "fc_dual_lower_bound", "phi_envelope"} <= names


def test_verify_f1_envelopes_with_default_constant():
    fam = family_f1(11, 5)
    reports = verify_family(fam, compute_verify_measures(fam))
    assert all(r.satisfied for r in reports if r.kind == KIND_EXACT)
    assert all(r.satisfied for r in reports if r.kind == KIND_ENVELOPE)


def test_verify_ksym_reports():
    fam = family_k_symbol(13, 2, 3)
    reports = verify_family(fam, compute_verify_measures(fam))
    assert all(r.satisfied for r in reports if r.kind == KIND_EXACT)
    names = {r.name for r in reports}
    assert "family_size" in names
    assert "gamma_envelope" in names
    assert "dual_gamma_circ_envelope" in names
    assert "fc_dual_lower_bound_kary_logk" in names
    kary = [r for r in reports if r.name.startswith("fc_dual_lower_bound_")]
    assert all(r.kind == KIND_ASYMPTOTIC for r in kary)


def test_verify_size_identities_via_formula():
    # (p^d - p)/(dp) for the k-symbol family, exact
    fam = family_k_symbol(5, 3, 2)
    reports = verify_family(fam, compute_verify_measures(fam))
    size = next(r for r in reports if r.name == "family_size")
    assert size.measured == 8 and size.theoretical == (5**3 - 5) // 15
    assert size.satisfied


def test_verify_f2_without_trace_restriction_sizes():
    fam = family_f2(5, 2, trace_zero=False)
    reports = verify_family(fam, compute_verify_measures(fam))
    size = next(r for r in reports if r.name == "family_size")
    assert size.theoretical == 10 and size.satisfied
    assert not any(r.name == "family_size_leading_term" for r in reports)


def test_verify_missing_measures_listed():
    prefix = "verify_family needs more measures; missing: "
    for fam, named in (
            (family_f2(5, 3), ["phi order 1 on the dual family",
                               "phi order 2 on the dual family",
                               "phi order 3 on the dual family"]),
            (family_k_symbol(13, 2, 3), ["gamma order 1 on the dual family"])):
        with pytest.raises(ParameterError) as exc:
            verify_family(fam, [f_complexity(fam)])
        assert str(exc.value) == prefix + "; ".join(named)
        # an empty list names f_complexity first
        with pytest.raises(ParameterError) as exc:
            verify_family(fam, [])
        assert str(exc.value) == prefix + "; ".join(
            ["f_complexity on the family"] + named)


def test_verify_surfaces_envelope_violation():
    # a tiny scale constant must flag the envelope without failing exact
    fam = family_f2(5, 3)
    reports = verify_family(fam, compute_verify_measures(fam), c=1e-9)
    env = [r for r in reports if r.kind == KIND_ENVELOPE]
    assert env and not any(r.satisfied for r in env)
    assert all(r.satisfied for r in reports if r.kind == KIND_EXACT)


# --- the measures verify takes ----------------------------------------------


@pytest.mark.parametrize("build, plan", [
    (lambda: family_f2(13, 2),
     [("f_complexity", False, 0), ("phi", True, 1), ("phi", True, 2),
      ("phi", False, 1), ("phi", False, 2)]),
    (lambda: family_f1(11, 5),
     [("f_complexity", False, 0), ("phi", True, 1), ("phi", True, 2),
      ("phi", True, 3), ("phi", False, 1), ("phi", False, 2)]),
    (lambda: family_k_symbol(13, 2, 3),
     [("f_complexity", False, 0), ("gamma", True, 1), ("gamma", False, 1),
      ("gamma_circ", True, 1), ("gamma", False, 2), ("gamma_circ", True, 2)]),
], ids=["f2(13,2)", "f1(11,5)", "ksym(13,2,3)"])
def test_verify_plan_lists_the_measures_in_order(build, plan):
    fam = build()
    assert verify_plan(fam, 2) == plan


@pytest.mark.parametrize("max_order", [0, 1, 2, 3])
@pytest.mark.parametrize("build", [
    lambda: family_f2(13, 2),
    lambda: family_f1(11, 5),
    lambda: family_k_symbol(13, 2, 3),
    lambda: dual(family_f2(13, 2)),
], ids=["f2(13,2)", "f1(11,5)", "ksym(13,2,3)", "dual f2(13,2)"])
def test_verify_takes_one_record_per_plan_entry(build, max_order):
    # in plan order, each record with its entry's name, order and subject
    fam = build()
    dtag = dual(fam).construction
    plan = verify_plan(fam, max_order)
    measures = compute_verify_measures(fam, max_order=max_order)
    assert [(m.name, m.subject, m.order) for m in measures] == [
        (name, dtag if on_dual else fam.construction, order)
        for name, on_dual, order in plan]


def test_verify_plan_refuses_a_negative_order():
    with pytest.raises(ParameterError, match="max order must be >= 0"):
        verify_plan(family_f2(5, 2), -1)


@pytest.mark.parametrize("build", [
    lambda: family_k_symbol(5, 3, 2),
    lambda: dual(family_f2(13, 2)),
    lambda: Family(p=13, d=2, k=2, rows=family_f2(13, 2).rows),
], ids=["ksym(5,3,2)", "dual f2(13,2)", "external"])
def test_verify_takes_no_correlation_no_report_reads(build, monkeypatch):
    # no envelope applies to these families, so only the lower bound's
    # dual correlations are taken
    fam = build()
    subjects = []
    for name in ("cross_correlation", "gamma", "gamma_circ"):
        def record(f, ell, *, fn=getattr(cli, name), **kwargs):
            subjects.append(f)
            return fn(f, ell, **kwargs)
        monkeypatch.setattr(cli, name, record)
    measures = compute_verify_measures(fam, max_order=3)
    assert len(subjects) == len(measures) - 1 == bounds.dual_orders(fam)
    assert not any(f is fam for f in subjects)
    verify_family(fam, measures)


def test_traced_verify_spans_each_planned_measure(tmp_path):
    """perfbench/tracer.py wraps the measure names ``cli`` calls; a
    traced verify must record one measure span per measure it takes."""
    repo = Path(__file__).resolve().parent.parent
    fam = family_k_symbol(13, 2, 3)
    write_family(fam, str(tmp_path / "k.fam"))
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(repo / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "tracer.py"), str(spans),
         "verify-ksym", "verify", "--in", str(tmp_path / "k.fam"),
         "--out", str(tmp_path / "v.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = [span[1] for span in json.loads(spans.read_text())["spans"]
             if span[1].startswith("measures.")]
    assert len(names) == len(verify_plan(fam, 2))
    assert names == ["measures.f_complexity"] + [
        "measures.gamma", "measures.gamma", "measures.gamma_circ"] + [
        "measures.gamma", "measures.gamma_circ"]
