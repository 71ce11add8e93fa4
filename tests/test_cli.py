import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prsfam.bounds import weil_check
from prsfam.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARAM,
    EXIT_VIOLATED,
    emit_report,
    main,
)
from prsfam.family import read_family
from prsfam.errors import BudgetError, ParameterError
from prsfam.measures import (
    CorrelationSpec,
    MeasureResult,
    cross_correlation,
    evaluate_witness,
    gamma,
)
from prsfam.construct import family_f2, family_k_symbol
from prsfam.poly import Poly


def run(args):
    return main(args)


# --- subcommands -------------------------------------------------------------


def test_gen_f2_example(tmp_path):
    out = str(tmp_path / "fam.txt")
    assert run(["gen", "--construction", "f2", "--p", "7", "--d", "2",
                "--out", out]) == EXIT_OK
    fam = read_family(out)
    assert fam.size == 3 and fam.length == 6
    with open(out, encoding="utf-8") as fh:
        assert fh.readline().startswith("#PRSFAM v1 p=7 d=2 k=2 N=6 F=3")


def test_gen_f1_and_ksym(tmp_path):
    o1 = str(tmp_path / "f1.txt")
    assert run(["gen", "--construction", "f1", "--p", "11", "--d", "5",
                "--out", o1]) == EXIT_OK
    assert read_family(o1).size == 10
    o2 = str(tmp_path / "ks.txt")
    assert run(["gen", "--construction", "ksym", "--p", "13", "--d", "2",
                "--k", "3", "--out", o2]) == EXIT_OK
    assert read_family(o2).size == 6
    # rejected parameters exit 2
    assert run(["gen", "--construction", "ksym", "--p", "7", "--d", "3",
                "--k", "3", "--out", str(tmp_path / "rejected.txt")]) \
        == EXIT_PARAM
    assert run(["gen", "--construction", "ksym", "--p", "13", "--d", "2",
                "--k", "2", "--allow-noncoprime",
                "--out", str(tmp_path / "ks2.txt")]) == EXIT_OK


def test_dual_subcommand(tmp_path):
    src = str(tmp_path / "fam.txt")
    dst = str(tmp_path / "dual.txt")
    run(["gen", "--construction", "f2", "--p", "7", "--d", "2", "--out", src])
    assert run(["dual", "--in", src, "--out", dst]) == EXIT_OK
    d = read_family(dst)
    assert d.size == 6 and d.length == 3
    assert d.construction == "dual(f2)"


def test_measure_subcommand_json(tmp_path, capsys):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "7", "--d", "2", "--out", src])
    assert run(["measure", "--in", src, "--measure", "phi", "--ell", "2",
                "--mode", "exact"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    rec = payload[0]
    assert rec["name"] == "phi" and rec["order"] == 2
    assert rec["mode"] == "exact"
    assert rec["value"] == str(cross_correlation(family_f2(7, 2), 2).value)
    assert set(rec["witness"]) == {"M", "D", "I"}


def test_measure_gamma_value_is_exact_rational(tmp_path, capsys):
    src = str(tmp_path / "ks.txt")
    run(["gen", "--construction", "ksym", "--p", "13", "--d", "2",
         "--k", "3", "--out", src])
    assert run(["measure", "--in", src, "--measure", "gamma",
                "--ell", "2"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)[0]
    assert rec["value"] == str(gamma(family_k_symbol(13, 2, 3), 2).value)
    assert "/" in rec["value"]  # serialized as num/den, not a float


def test_measure_budget_exit(tmp_path, capsys):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f1", "--p", "13", "--d", "5", "--out", src])
    assert run(["measure", "--in", src, "--measure", "phi", "--ell", "3",
                "--budget", "10"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget" in err


def test_sampled_gamma_high_order_fits_default_budget(tmp_path, capsys):
    # a sample draws 2*ell indices and a pinned draw costs
    # ell*N + min(N, k^ell) + 1 steps: 10,000 draws at order 6 on
    # ksym(31,2,5) estimate 2,230,000 (samples * N * k^ell was
    # 4,687,500,000, over the default budget)
    src = str(tmp_path / "ks.txt")
    run(["gen", "--construction", "ksym", "--p", "31", "--d", "2",
         "--k", "5", "--out", src])
    args = ["measure", "--in", src, "--measure", "gamma", "--ell", "6",
            "--mode", "sampled", "--samples", "10000"]
    assert run(args) == EXIT_OK
    assert json.loads(capsys.readouterr().out)[0]["mode"] == \
        "sampled-lower-bound"
    assert run(args + ["--budget", "2229999"]) == EXIT_BUDGET
    assert "sampled order-6 pattern deviation needs an estimated 2230000" \
        in capsys.readouterr().err


def test_measure_fc_budget_reports_lower_bound(tmp_path, capsys):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f1", "--p", "13", "--d", "5", "--out", src])
    assert run(["measure", "--in", src, "--measure", "fc",
                "--budget", "200"]) == EXIT_BUDGET
    out = capsys.readouterr()
    rec = json.loads(out.out)[0]
    assert rec["mode"] == "verified-lower-bound"


@pytest.mark.parametrize("fmt, record", [
    ("json", '[\n  {\n    "name": "f_complexity",\n    "order": 0,\n'
             '    "value": "1",\n    "mode": "verified-lower-bound",\n'
             '    "subject": "f2",\n    "witness": null,\n'
             '    "err_bound": "0.0"\n  }\n]\n'),
    ("csv", "name,order,value,mode,subject,witness,bound,satisfied,kind,"
            "ratio,note\nf_complexity,0,1,verified-lower-bound,f2,,,,,,\n"),
    ("text", "f_complexity order=0 value=1 (verified-lower-bound)\n"),
])
def test_measure_fc_lower_bound_record_bytes(tmp_path, capsys, fmt, record):
    # the budget passes level 1 (96 steps) and stops before level 2
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "13", "--d", "2", "--out", src])
    assert run(["measure", "--in", src, "--measure", "fc", "--budget", "100",
                "--format", fmt]) == EXIT_BUDGET
    out = capsys.readouterr()
    assert out.out == record
    assert out.err == ("budget exceeded: certifying level 2 needs an "
                       "estimated 1152 loop steps, budget is 100; "
                       "value >= 1 is certified\n")


def test_verify_subcommand(tmp_path, capsys):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "5", "--d", "3", "--out", src])
    assert run(["verify", "--in", src, "--c", "10"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    exact = [r for r in payload if r["kind"] == "exact"]
    assert exact and all(r["satisfied"] for r in exact)


def test_verify_flags_violations(tmp_path, capsys):
    # duplicate rows in a hand-written file: distinctness is violated
    path = str(tmp_path / "bad.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("#PRSFAM v1 p=5 d=1 k=2 N=4 F=2 construction=external\n")
        fh.write("0 1 0 1\n0 1 0 1\n")
    assert run(["verify", "--in", path]) == EXIT_VIOLATED
    captured = capsys.readouterr()
    assert "rows_distinct" in captured.err


def test_verify_accepts_dual_files(tmp_path, capsys):
    src = str(tmp_path / "fam.txt")
    dl = str(tmp_path / "dual.txt")
    run(["gen", "--construction", "f1", "--p", "11", "--d", "5", "--out", src])
    run(["dual", "--in", src, "--out", dl])
    assert run(["verify", "--in", dl]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    names = {r["name"] for r in payload}
    # generic exact checks only: no construction theorem covers duals
    # verified as standalone families
    assert "fc_dual_lower_bound" in names
    assert "phi_envelope" not in names and "family_size" not in names


def test_weil_subcommand(capsys):
    assert run(["weil", "--poly", "1,0,1", "--p", "5"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)[0]
    assert rec["name"] == "weil_complete_sum"
    assert rec["value"] == "1" and rec["satisfied"] is True
    # non-square-free rejected
    assert run(["weil", "--poly", "1,2,1", "--p", "5"]) == EXIT_PARAM


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _cli_subprocess(args, timeout=60):
    # in a subprocess, so a hang fails on the timeout and a runaway
    # allocation on a 2 GiB address-space cap, instead of stalling
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "prsfam.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=_cap_memory)


def test_verify_unary_family_ends(tmp_path):
    # k = 1 reads the dual orders in base 2, as k = 2 does
    path = tmp_path / "unary.fam"
    path.write_text("#PRSFAM v1 p=3 d=1 k=1 N=3 F=2 construction=external\n"
                    "0 0 0\n0 0 0\n")
    proc = _cli_subprocess(["verify", "--in", str(path)])
    assert proc.returncode == EXIT_VIOLATED
    assert "rows_distinct" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("header", [
    "p=5 d=99999999999999999999 k=2 N=4 F=3 construction=f2",
    "p=5 d=99999999999999999999 k=2 N=4 F=3 construction=ksym",
    "p=5 d=100000 k=2 N=4 F=3 construction=f2",
    "p=5 d=100000 k=2 N=4 F=3 construction=ksym",
    "p=5 d=0 k=2 N=4 F=3 construction=ksym",
    f"p={10**400 + 1} d=2 k=2 N=4 F=3 construction=f1",
    f"p={10**400 + 1} d=2 k=2 N=4 F=3 construction=f2",
    f"p={10**400 + 1} d=2 k=2 N=4 F=3 construction=ksym",
    "p=13 d=999 k=2 N=4 F=3 construction=f2",
    f"p=5 d={10**400} k=2 N=4 F=3 construction=f1",
], ids=["f2-d1e20", "ksym-d1e20", "f2-d1e5", "ksym-d1e5", "ksym-d0",
        "f1-p1e400", "f2-p1e400", "ksym-p1e400", "f2-p13-d999", "f1-d1e400"])
def test_verify_refuses_a_header_no_builder_emits(tmp_path, header):
    # the family-size identities read p and d from the header; these
    # hung (d = 10^20) or ended in a traceback
    path = tmp_path / "bad.fam"
    path.write_text(f"#PRSFAM v1 {header}\n0 1 1 0\n1 1 0 0\n0 0 1 1\n")
    proc = _cli_subprocess(["verify", "--in", str(path)])
    assert proc.returncode == EXIT_PARAM, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["f2", "--p", "5", "--d", "99999999999999999999"],
    ["f2", "--p", "5", "--d", "100000"],
    ["ksym", "--p", "5", "--d", "1000003"],
    ["f1", "--p", "5", "--d", "99999999999999999999"],
], ids=["f2-d1e20", "f2-d1e5", "ksym-d1000003", "f1-d1e20"])
def test_gen_refuses_a_field_no_builder_emits(tmp_path, args):
    # the headers verify refuses: these hung in the trace-zero count or
    # ended in a traceback while the refusal was formatted
    out = tmp_path / "x.fam"
    proc = _cli_subprocess(["gen", "--construction", *args,
                            "--out", str(out)], timeout=2)
    assert proc.returncode == EXIT_PARAM, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("name, order, value", [
    ("phi", ["72"], "1"), ("phi", ["73"], "0"), ("phi", ["100"], "0"),
    ("phi", ["300", "--budget", "0"], "0"),
    ("gamma", ["20000"], "0"), ("gamma0", ["20000"], "0"),
], ids=["72", "73", "100", "300-budget0", "gamma-20000", "gamma0-20000"])
def test_order_past_the_admissible_space_ends(tmp_path, name, order, value):
    # f2(13,2) has C = 6 distinct rows of N = 12: order 72 admits one lag
    # tuple and no order past C * N any; listing every lag tuple, the
    # estimate's terms past N, or scaling ell copies of the rows for
    # gamma ran out of memory or time
    src = str(tmp_path / "f2.fam")
    run(["gen", "--construction", "f2", "--p", "13", "--d", "2", "--out", src])
    proc = _cli_subprocess(["measure", "--in", src, "--measure", name,
                            "--ell", *order], timeout=2)
    assert proc.returncode == EXIT_OK, proc.stderr
    rec = json.loads(proc.stdout)[0]
    assert rec["value"] == value
    assert (rec["witness"] is None) == (value == "0")


def test_large_order_is_refused_fast(tmp_path):
    # f2(61,3): 1,240 rows of N = 60; the order-1000 estimate, far past
    # the budget, is a closed sum of binomials.  Working it out through
    # a truncated polynomial power took about 80 s
    src = str(tmp_path / "f2.fam")
    run(["gen", "--construction", "f2", "--p", "61", "--d", "3",
         "--out", src])
    proc = _cli_subprocess(["measure", "--in", src, "--measure", "phi",
                            "--ell", "1000"], timeout=20)
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    assert "exact order-1000 correlation needs an estimated" in proc.stderr


def test_verify_f2_file_without_trace_zero(tmp_path):
    path = str(tmp_path / "f2.fam")
    proc = _cli_subprocess(["gen", "--construction", "f2", "--p", "7",
                            "--d", "2", "--no-trace-zero", "--out", path])
    assert proc.returncode == EXIT_OK, proc.stderr
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().endswith(" F=21 construction=f2 "
                                      "trace_zero=false\n")
    proc = _cli_subprocess(["verify", "--in", path])
    assert proc.returncode == EXIT_OK, proc.stderr
    reports = {r["name"]: r for r in json.loads(proc.stdout)}
    assert reports["family_size"]["bound"] == "21"
    assert reports["family_size"]["satisfied"] is True
    assert "family_size_leading_term" not in reports


@pytest.mark.parametrize("p", ["4", "6", "15"])
def test_weil_composite_modulus_exits_cleanly(p):
    proc = _cli_subprocess(["weil", "--poly", "1,0,1", "--p", p])
    assert proc.returncode == EXIT_PARAM
    assert "odd prime" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["weil", "--poly", "1,1", "--p", "1000000000000000003"],
    ["gen", "--construction", "f2", "--p", "1000000000000000003",
     "--d", "2", "--out", "{out}"],
    # f1 and f2 refuse on their row-symbol count, before any enumeration
    ["gen", "--construction", "f1", "--p", "1000003", "--d", "5",
     "--out", "{out}"],
    ["gen", "--construction", "f1", "--p", "1000000000000000003",
     "--d", "5", "--out", "{out}"],
    ["gen", "--construction", "f2", "--p", "1000003", "--d", "2",
     "--out", "{out}"],
    ["gen", "--construction", "f2", "--p", "1000003", "--d", "2",
     "--no-trace-zero", "--out", "{out}"],
])
def test_huge_prime_is_refused_by_budget(tmp_path, args):
    proc = _cli_subprocess([a.format(out=tmp_path / "x.fam") for a in args])
    assert proc.returncode == EXIT_BUDGET
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.fam").exists()


def test_refusal_past_the_int_digit_limit_exits_3(tmp_path):
    path = tmp_path / "big.fam"
    path.write_text("#PRSFAM v1 p=5 d=2 k=1100 N=3 F=2 construction=external\n"
                    "1099 0 5\n1 2 3\n")
    proc = _cli_subprocess(["measure", "--in", str(path), "--measure",
                            "biggamma", "--ell", "2"])
    assert proc.returncode == EXIT_BUDGET
    assert proc.stderr.startswith("budget exceeded: ")
    assert "or more loop steps" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_weil_check_budget_names_estimate():
    p = 1000000000000000003
    with pytest.raises(BudgetError) as exc:
        weil_check(Poly([1, 1], p), p)
    assert exc.value.estimate == p


@pytest.mark.parametrize("measure", ["phi", "gamma", "biggamma"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_measure_rejects_empty_sample_count(tmp_path, capsys, measure,
                                            samples):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "5", "--d", "3", "--out", src])
    assert run(["measure", "--in", src, "--measure", measure, "--mode",
                "sampled", "--samples", samples]) == EXIT_PARAM
    out = capsys.readouterr()
    assert out.out == ""
    assert "sample count" in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("measure", ["fc", "phi0", "gamma0"])
def test_measure_without_sampled_mode_exits_2(tmp_path, capsys, measure):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "5", "--d", "3", "--out", src])
    assert run(["measure", "--in", src, "--measure", measure, "--mode",
                "sampled"]) == EXIT_PARAM
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{measure} has no sampled mode" in out.err


@pytest.mark.parametrize("option, args", [
    ("--samples", ["measure", "--measure", "phi", "--ell", "1",
                   "--samples", "0", "--seed", "3"]),
    ("--samples", ["measure", "--measure", "gamma", "--mode", "exact",
                   "--samples", "10"]),
    ("--seed", ["measure", "--measure", "biggamma", "--seed", "0"]),
    ("--ell", ["measure", "--measure", "fc", "--ell", "7"]),
    ("--ell", ["measure", "--measure", "fc", "--ell", "1"]),
    ("--k", ["gen", "--construction", "f2", "--k", "3"]),
    ("--k", ["gen", "--construction", "f1", "--k", "0"]),
    ("--allow-noncoprime", ["gen", "--construction", "f2",
                            "--allow-noncoprime"]),
    ("--base", ["gen", "--construction", "f2", "--base", "1,0,1"]),
    ("--base", ["gen", "--construction", "ksym", "--base", "1,0,1"]),
    ("--no-trace-zero", ["gen", "--construction", "f1", "--no-trace-zero"]),
    ("--no-trace-zero", ["gen", "--construction", "ksym",
                         "--no-trace-zero"]),
], ids=["phi-samples-seed", "gamma-samples", "biggamma-seed", "fc-ell",
        "fc-ell-default-value", "f2-k", "f1-k", "f2-allow-noncoprime",
        "f2-base", "ksym-base", "f1-no-trace-zero", "ksym-no-trace-zero"])
def test_options_the_command_does_not_read_exit_2(tmp_path, capsys, option,
                                                  args):
    # a value equal to the default, or falsy, counts as given too
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "5", "--d", "2", "--out", src])
    capsys.readouterr()
    where = ["--in", src] if args[0] == "measure" else ["--p", "5", "--d", "2"]
    out = tmp_path / "out.txt"
    assert run([*args, *where, "--out", str(out)]) == EXIT_PARAM
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} applies only to ")
    assert not out.exists()


def test_measure_sampled_big_gamma_k3(tmp_path):
    # the sampled k >= 3 path reads the display float after the search
    src = str(tmp_path / "ks.fam")
    out = str(tmp_path / "bg.json")
    assert run(["gen", "--construction", "ksym", "--p", "7", "--d", "2",
                "--k", "3", "--out", src]) == EXIT_OK
    assert run(["measure", "--in", src, "--measure", "biggamma", "--mode",
                "sampled", "--ell", "2", "--out", out]) == EXIT_OK
    with open(out, encoding="utf-8") as fh:
        (rec,) = json.load(fh)
    assert rec["mode"] == "sampled-lower-bound"
    w = rec["witness"]
    spec = CorrelationSpec(ell=2, window=w["M"], shifts=tuple(w["D"]),
                           rows=tuple(w["I"]),
                           root_maps=tuple(map(tuple, w["maps"])))
    res = MeasureResult(rec["name"], 2, float(rec["value"]), rec["mode"],
                        spec)
    assert evaluate_witness(read_family(src), res) == res.value


_GEN = {"f2": ["--construction", "f2", "--p", "7", "--d", "2"],
        "ksym": ["--construction", "ksym", "--p", "7", "--d", "2",
                 "--k", "3"]}
# The package's modules, and the stdlib modules a command should load
# only where it uses them: ``json`` and ``fractions`` to write a report,
# never ``dataclasses``, ``inspect`` (which ``dataclasses`` imports) or
# ``typing``.
_RUN_AND_LIST_MODULES = (
    "import sys\nfrom prsfam.cli import main\ncode = main(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('prsfam')\n"
    "    or m in ('dataclasses', 'inspect', 'json', 'fractions', 'typing')))")
_PARSE = {"prsfam", "prsfam.cli", "prsfam.errors"}
_FAMILY = _PARSE | {"prsfam.family"}
_FIELD = {"prsfam.poly", "prsfam.ff"}
_REPORT = {"json", "fractions"}
# a family file is read and measured without the builders
_MEASURE = _FAMILY | _REPORT | {"prsfam.measures"}


@pytest.mark.parametrize("family, args, code, modules", [
    (None, ["--version"], EXIT_OK, _PARSE),
    (None, ["measure", "--help"], EXIT_OK, _PARSE),
    (None, ["measure"], EXIT_PARAM, _PARSE),
    (None, ["gen", *_GEN["f2"], "--out", "{out}"], EXIT_OK,
     _FAMILY | _FIELD | {"prsfam.construct"}),
    ("f2", ["dual", "--in", "{fam}", "--out", "{out}"], EXIT_OK, _FAMILY),
    (None, ["weil", "--poly", "1,1,1", "--p", "7", "--out", "{out}"], EXIT_OK,
     _PARSE | _REPORT | _FIELD | {"prsfam.bounds"}),
    ("f2", ["verify", "--in", "{fam}", "--out", "{out}"], EXIT_OK,
     _MEASURE | _FIELD | {"prsfam.bounds"}),
    ("f2", ["measure", "--measure", "phi", "--ell", "2", "--in", "{fam}",
            "--out", "{out}"], EXIT_OK, _MEASURE),
    ("f2", ["measure", "--measure", "biggamma", "--ell", "2", "--in", "{fam}",
            "--out", "{out}"], EXIT_OK, _MEASURE),
    ("f2", ["measure", "--measure", "biggamma", "--ell", "2", "--mode",
            "sampled", "--in", "{fam}", "--out", "{out}"], EXIT_OK, _MEASURE),
    ("ksym", ["measure", "--measure", "biggamma", "--ell", "1", "--in",
              "{fam}", "--out", "{out}"], EXIT_OK,
     _MEASURE | {"prsfam.roots"}),
], ids=["version", "help", "usage-error", "gen", "dual", "weil", "verify",
        "phi", "biggamma", "biggamma-sampled", "ksym-biggamma"])
def test_command_module_sets(tmp_path, family, args, code, modules):
    # every call is a fresh interpreter that compiles what it imports, so
    # a command loads only the modules it runs: dual, measure and verify
    # read a family file without the builders (prsfam.construct), and
    # only k >= 3 magnitudes need prsfam.roots, which also costs peak
    # memory.  -S: no site hook (a .pth file) loads ``typing`` or the
    # others before the command
    fam = str(tmp_path / "fam.txt")
    if family is not None:
        assert run(["gen", *_GEN[family], "--out", fam]) == EXIT_OK
    argv = [a.format(fam=fam, out=str(tmp_path / "out.txt")) for a in args]
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _RUN_AND_LIST_MODULES, *argv],
        env=env, capture_output=True, text=True, timeout=60)
    last = proc.stdout.splitlines()[-1]
    assert last == " ".join([str(code), *sorted(modules)]), proc.stderr


@pytest.mark.parametrize("args", [
    ["gen", "--construction", "f2", "--p", "5", "--d", "2"],
    ["measure", "--measure", "phi"],
    ["measure", "--measure", "fc"],
    ["verify"],
], ids=["gen", "measure-phi", "measure-fc", "verify"])
def test_negative_budget_exits_2_and_zero_refuses(tmp_path, capsys, args):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "5", "--d", "2", "--out", src])
    capsys.readouterr()
    where = [] if args[0] == "gen" else ["--in", src]
    out = tmp_path / "out.txt"
    assert run([*args, *where, "--budget", "-5", "--out", str(out)]) \
        == EXIT_PARAM
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget must be >= 0, got -5\n"
    assert not out.exists()
    # a zero budget is a budget, and every command refuses under it
    assert run([*args, *where, "--budget", "0", "--out", str(out)]) \
        == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_verify_rejects_negative_max_order(tmp_path, capsys):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "5", "--d", "3", "--out", src])
    assert run(["verify", "--in", src, "--max-order", "-1"]) == EXIT_PARAM
    out = capsys.readouterr()
    assert out.out == ""
    assert "max order" in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("c", ["nan", "inf", "-1"])
def test_verify_rejects_bad_envelope_constant(tmp_path, capsys, c):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "5", "--d", "3", "--out", src])
    assert run(["verify", "--in", src, "--c", c]) == EXIT_PARAM
    out = capsys.readouterr()
    assert out.out == ""
    assert "envelope constant" in out.err


def test_f1_base_search_out_of_budget_exits_3(tmp_path, capsys):
    # f1(3,7): the first base is the 9th candidate of 324
    out = str(tmp_path / "f1.fam")
    args = ["gen", "--construction", "f1", "--p", "3", "--d", "7",
            "--out", out]
    assert run(args + ["--budget", "8"]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget exceeded: the base search needs an estimated 324 loop "
        "steps, budget is 8\n")
    assert not os.path.exists(out)
    assert run(args + ["--budget", "9"]) == EXIT_OK


@pytest.mark.parametrize("args, code", [
    (["--in", "{f2}", "--ell", "3", "--budget", "10"], EXIT_BUDGET),
    (["--in", "{ksym}"], EXIT_PARAM),
], ids=["budget", "parameter"])
def test_refused_measure_leaves_its_out_file(tmp_path, capsys, args, code):
    paths = {"f2": str(tmp_path / "f2.fam"), "ksym": str(tmp_path / "k.fam")}
    run(["gen", "--construction", "f2", "--p", "13", "--d", "2",
         "--out", paths["f2"]])
    run(["gen", "--construction", "ksym", "--p", "13", "--d", "2",
         "--k", "3", "--out", paths["ksym"]])
    out = tmp_path / "r.json"
    assert run(["measure", "--in", paths["f2"], "--measure", "phi",
                "--ell", "2", "--out", str(out)]) == EXIT_OK
    before = out.read_bytes()
    assert run(["measure", "--measure", "phi",
                *[a.format(**paths) for a in args],
                "--out", str(out)]) == code
    assert out.read_bytes() == before


def test_gen_row_symbol_budget(tmp_path, capsys):
    # f1(13,5) has 12 rows of 12 symbols
    out = str(tmp_path / "f1.fam")
    args = ["gen", "--construction", "f1", "--p", "13", "--d", "5",
            "--out", out]
    assert run(args + ["--budget", "143"]) == EXIT_BUDGET
    assert "144 in all" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert run(args + ["--budget", "144"]) == EXIT_OK


_HEADER = b"#PRSFAM v1 p=3 d=1 k=2 N=2 F=1 construction=external\n"
_AFTER_BLANKS = _HEADER + b"\n \n\n0 +1\n"  # the bad row is line 5


@pytest.mark.parametrize("body", [
    _HEADER + b"0 \xff\n",                        # not UTF-8
    b"\xfe\xff" + _HEADER + b"0 1\n",              # UTF-16 mark
    _HEADER + b"0 +1\n",                          # signed symbol
    _HEADER + "0 \u0661\n".encode(),              # Arabic-Indic digit one
    _HEADER + b"0 0_1\n",                         # digit separator
    _HEADER.replace(b"p=3", "p=\u0663".encode()) + b"0 1\n",
    pytest.param(_HEADER.replace(b"d=1", b"d=" + b"9" * 5001) + b"0 1\n",
                 id="d-past-the-int-digit-limit"),
    pytest.param(_HEADER + b"0 " + b"1" * 5001 + b"\n",
                 id="symbol-past-the-int-digit-limit"),
    pytest.param(_HEADER.replace(b"external", b"dual(dual(f2))") + b"0 1\n",
                 id="nested-dual-tag"),
    _AFTER_BLANKS,
])
@pytest.mark.parametrize("command", ["measure", "verify", "dual"])
def test_malformed_family_file_exits_2(tmp_path, capsys, body, command):
    path = tmp_path / "bad.fam"
    path.write_bytes(body)
    args = {"measure": ["measure", "--in", str(path), "--measure", "phi"],
            "verify": ["verify", "--in", str(path)],
            "dual": ["dual", "--in", str(path),
                     "--out", str(tmp_path / "out.fam")]}[command]
    assert run(args) == EXIT_PARAM
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: line") or "UTF-8" in out.err
    if body == _AFTER_BLANKS:
        assert out.err.startswith("error: line 5: ")
    assert len(out.err) < 200  # no symbol is printed whole
    assert not (tmp_path / "out.fam").exists()


_BASE_FAMILY = ["#PRSFAM v1 p=7 d=1 k=3 N=4 F=3 construction=external",
                "0 1 2 1", "2 2 0 1", "1 0 0 2"]


@st.composite
def mutated_family_files(draw):
    """The bytes of a small family file after up to four mutations: a
    truncated header, a dropped or duplicated row, N or F = 10^12 in the
    header, non-digit bytes inserted, CRLF line endings."""
    lines, crlf, junk = list(_BASE_FAMILY), False, []
    for op in draw(st.lists(st.sampled_from(
            ["truncate", "drop", "dup", "huge", "junk", "crlf"]),
            max_size=4)):
        if op == "truncate" and lines[0]:
            lines[0] = lines[0][:draw(st.integers(0, len(lines[0]) - 1))]
        elif op in ("drop", "dup") and len(lines) > 1:
            i = draw(st.integers(1, len(lines) - 1))
            lines[i:i + 1] = [] if op == "drop" else [lines[i]] * 2
        elif op == "huge":
            field = draw(st.sampled_from(["N=4", "F=3"]))
            lines[0] = lines[0].replace(field, field[:2] + "1" + "0" * 12)
        elif op == "junk":
            junk.append(draw(st.binary(min_size=1, max_size=3).filter(
                lambda b: not any(48 <= c <= 57 for c in b))))
        else:
            crlf = True
    data = ("\r\n" if crlf else "\n").join(lines).encode() + b"\n"
    for piece in junk:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + piece + data[at:]
    return data


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=mutated_family_files(),
       measure=st.sampled_from(["fc", "phi", "phi0", "gamma", "gamma0",
                                "biggamma"]),
       ell=st.integers(1, 2), sampled=st.booleans())
def test_mutated_family_files_exit_cleanly(data, measure, ell, sampled):
    # every run ends with a documented exit code and no traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fam.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        measure_args = ["measure", "--in", path, "--measure", measure,
                        "--ell", str(ell), "--budget", "100000",
                        "--out", os.path.join(tmp, "m.json")]
        if sampled:
            measure_args += ["--mode", "sampled", "--samples", "50"]
        for args in (measure_args,
                     ["verify", "--in", path, "--budget", "100000",
                      "--out", os.path.join(tmp, "v.json")],
                     ["dual", "--in", path,
                      "--out", os.path.join(tmp, "d.txt")]):
            err = io.StringIO()
            real, sys.stderr = sys.stderr, err
            try:
                code = run(args)
            finally:
                sys.stderr = real
            assert code in (EXIT_OK, EXIT_PARAM, EXIT_BUDGET, EXIT_VIOLATED)
            assert "Traceback" not in err.getvalue()


def test_unknown_flags_exit_2(capsys):
    assert run(["measure", "--bogus"]) == 2
    assert run(["nonsense"]) == 2


def test_parse_error_exit(tmp_path, capsys):
    path = str(tmp_path / "bad.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not a family\n")
    assert run(["measure", "--in", path, "--measure", "phi"]) == EXIT_PARAM


# --- report serialization ----------------------------------------------------


def test_emit_report_rejects_empty():
    with pytest.raises(ParameterError):
        emit_report([], "json", io.StringIO())


def test_emit_report_rejects_raw_dicts():
    with pytest.raises(ParameterError, match="cannot serialize"):
        emit_report([{"name": "f_complexity", "order": 0}], "json",
                    io.StringIO())


def test_emit_report_round_trip():
    fam = family_f2(7, 2)
    results = [cross_correlation(fam, 1), cross_correlation(fam, 2)]
    buf = io.StringIO()
    emit_report(results, "json", buf)
    parsed = json.loads(buf.getvalue())
    for rec, res in zip(parsed, results):
        assert rec["value"] == str(res.value)
        assert rec["order"] == res.order
        assert rec["mode"] == res.mode


def test_emit_report_csv_and_text():
    fam = family_f2(7, 2)
    results = [cross_correlation(fam, 1), weil_check(Poly((1, 0, 1), 5), 5)]
    csv_buf = io.StringIO()
    emit_report(results, "csv", csv_buf)
    lines = csv_buf.getvalue().splitlines()
    assert lines[0].startswith("name,order,value,mode")
    assert len(lines) == 3
    text_buf = io.StringIO()
    emit_report(results, "text", text_buf)
    assert "phi" in text_buf.getvalue()
    assert "weil_complete_sum" in text_buf.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_emit_report_refuses_a_number_past_the_digit_limit(fmt):
    # str refuses an int of more than 4,300 digits: a report that would
    # print one is refused before anything is written
    fam = family_f2(13, 2)
    fine = cross_correlation(fam, 1)
    for huge in (cross_correlation(fam, 10**5000),
                 MeasureResult("phi", 1, 10**5000, "exact", None)):
        sink = io.StringIO()
        with pytest.raises(ParameterError, match="digit limit"):
            emit_report([fine, huge], fmt, sink)
        assert sink.getvalue() == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_report_refuses_a_witness_past_the_digit_limit(fmt):
    # json and csv print the witness: one whose shift is past the int digit
    # limit is refused, and nothing of the report is written
    fam = family_f2(13, 2)
    huge = MeasureResult("phi", 1, 1, "exact",
                         CorrelationSpec(1, 1, (10**5000,), (1,)))
    sink = io.StringIO()
    with pytest.raises(ParameterError, match="digit limit"):
        emit_report([cross_correlation(fam, 1), huge], fmt, sink)
    assert sink.getvalue() == ""


def test_reports_deterministic_across_jobs(tmp_path):
    src = str(tmp_path / "fam.txt")
    run(["gen", "--construction", "f2", "--p", "5", "--d", "3", "--out", src])
    outs = []
    for jobs in ("1", "8"):
        out = str(tmp_path / f"report{jobs}.json")
        assert run(["verify", "--in", src, "--jobs", jobs,
                    "--out", out]) == EXIT_OK
        with open(out, "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_perfbench_gate_rechecks_the_reported_witnesses(tmp_path):
    """perfbench/gate.py reads the package through
    ``construct.read_family``, the keywords of ``MeasureResult``,
    ``CorrelationSpec`` and ``PatternWitness``, and
    ``evaluate_witness``; imported as the benchmark imports it, it must
    re-evaluate each witness the CLI reports to the reported value."""
    repo = Path(__file__).resolve().parent.parent
    jobs = [(["--construction", "f2", "--p", "13", "--d", "2"],
             ["--measure", "phi"]),
            (["--construction", "ksym", "--p", "13", "--d", "2", "--k", "3"],
             ["--measure", "gamma", "--mode", "sampled", "--seed", "3"])]
    paths = []
    for n, (gen, measure) in enumerate(jobs):
        fam, report = str(tmp_path / f"{n}.fam"), str(tmp_path / f"{n}.json")
        assert run(["gen", *gen, "--out", fam]) == EXIT_OK
        assert run(["measure", "--in", fam, *measure,
                    "--out", report]) == EXIT_OK
        paths += [report, fam]
    script = ("import json, sys\n"
              "import gate\n"
              "for report, fam in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    with open(report) as fh:\n"
              "        (r,) = json.load(fh)\n"
              "    print(r['mode'], gate.check_witness(r, fam))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(repo / "perfbench"),
                                           str(repo / "src")]))
    proc = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["exact None",
                                        "sampled-lower-bound None"]
