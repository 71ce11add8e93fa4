"""Command-line front end.

Subcommands: ``gen`` (construct a family file), ``dual`` (transpose a
family file), ``measure`` (evaluate one measure, emit the result),
``verify`` (run every applicable bound report), ``weil`` (complete
residue-symbol sum check for one polynomial).

Exit codes: 0 success, 2 parameter/parse errors, 3 budget errors,
4 when ``verify`` finds a violated exact inequality.  An option given
where the command does not read it is a parameter error, not ignored:
``--samples`` and ``--seed`` outside ``--mode sampled``, ``--ell`` with
``fc``, and each ``gen`` option with a construction it does not apply
to.  Output is deterministic for fixed inputs; ``--jobs`` is accepted
and changes nothing, since every search is serial.  Exact rationals are
serialized as "num/den" strings so nothing passes through floating
point.

Each command imports only the modules it runs (``_COMMAND_MODULES``):
every call is a fresh interpreter, which compiles what it imports, so
``--version`` and ``--help`` load no family or measure code, ``dual``,
``measure`` and ``verify`` read a family file through ``family`` alone,
with no builder (``construct``), ``verify`` loads no polynomial code
(``poly``), ``weil`` no measure code, and only the three commands that
write a report load its writer (``report``).  The names a handler uses
are bound in this module on first use, by ``_bind`` or by attribute
access from outside, and a name already bound there is kept.  Likewise
``build_parser`` gives options only to the command that the first
argument not starting with "-" names; every help, usage and error text
is that of a parser holding all of them.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from . import __version__
from .errors import (TYPE_CHECKING, BudgetError, Error, InternalError,
                     ParameterError)

if TYPE_CHECKING:
    from typing import Sequence

    from .family import Family
    from .measures import MeasureResult
    from .poly import Poly

__all__ = ["main", "emit_report"]

EXIT_OK, EXIT_PARAM, EXIT_BUDGET, EXIT_VIOLATED = 0, 2, 3, 4

# The names the handlers look up in this module, by owning module.
_NAMES = {
    "construct": ("family_f1", "family_f2", "family_k_symbol"),
    "family": ("dual", "read_family", "write_family"),
    "measures": ("MODE_SAMPLED", "MODE_VERIFIED_LB",
                 "MeasureResult", "cross_correlation", "f_complexity",
                 "gamma", "gamma_circ"),
    "bounds": ("KIND_EXACT", "_check_scale", "verify_family", "verify_plan",
               "weil_check"),
    "poly": ("Poly",),
    "report": ("emit_report",),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}
_OWNER["_MEASURES"] = "measures"

# The modules each command's handler runs.
_COMMAND_MODULES = {
    "gen": ("construct", "family", "poly"), "dual": ("family",),
    "measure": ("family", "measures", "report"),
    "verify": ("family", "measures", "bounds", "report"),
    "weil": ("bounds", "poly", "report")}

# --measure choice -> its function in ``measures``, as ``_MEASURES`` holds
# it once that module is loaded.
_MEASURE_FUNCTIONS = {
    "fc": "f_complexity", "phi": "cross_correlation",
    "phi0": "cross_correlation_circ", "gamma": "gamma",
    "gamma0": "gamma_circ", "biggamma": "big_gamma"}

# gen options read by one construction only.
_GEN_OPTION_OWNER = {"k": "ksym", "allow_noncoprime": "ksym", "base": "f1",
                     "no_trace_zero": "f2"}


def _bind(*modules: str) -> None:
    """Import ``modules`` and bind the names the handlers use from them
    here.  A name already bound is kept, so a wrapper installed from
    outside before ``main`` runs (perfbench's tracer) stays in place."""
    names = globals()
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        for name in _NAMES[module]:
            names.setdefault(name, getattr(mod, name))
        if module == "measures":
            names.setdefault("_MEASURES", {
                choice: getattr(mod, fn)
                for choice, fn in _MEASURE_FUNCTIONS.items()})


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


def _emit(results: Sequence, args) -> None:
    """Write the report, through the ``emit_report`` bound here, to
    stdout for ``--out`` None or "-", else to the file; called once the
    results exist, so a refusal leaves the file as it was."""
    if args.out is None or args.out == "-":
        emit_report(results, args.format, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            emit_report(results, args.format, fh)


def _parse_poly(text: str, p: int) -> Poly:
    try:
        coeffs = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ParameterError(
            f"polynomial must be comma-separated integers, got {text!r}")
    return Poly(coeffs, p)


def _report_options(parser: argparse.ArgumentParser, searches: bool) -> None:
    """The options of a command that emits a report: ``--budget`` and
    ``--jobs`` when it runs searches, then ``--format`` and ``--out``."""
    if searches:
        parser.add_argument("--budget", type=int, default=None)
        parser.add_argument("--jobs", type=int, default=1,
                            help="accepted and ignored: searches are serial")
    parser.add_argument("--format", choices=["json", "csv", "text"],
                        default="json")
    parser.add_argument("--out", default=None)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, with the options of ``command``
    only: argparse reads no other command's, and every help, usage and
    error text is that of a parser holding them all."""
    top = argparse.ArgumentParser(
        prog="prsfam",
        description="Construct pseudorandom sequence families, evaluate "
                    "their randomness measures exactly, and verify bounds.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a family and write it")
    if command == "gen":
        gen.add_argument("--construction", required=True,
                         choices=["f1", "f2", "ksym"])
        gen.add_argument("--p", type=int, required=True, help="odd prime")
        gen.add_argument("--d", type=int, required=True,
                         help="polynomial degree")
        gen.add_argument("--k", type=int,
                         help="alphabet size (ksym only; default 2)")
        gen.add_argument("--base", type=str, default=None,
                         help="f1 base polynomial, comma-separated "
                              "coefficients constant-first (default: "
                              "deterministic search); give one that starts "
                              "with '-' as --base=-1,...")
        gen.add_argument("--no-trace-zero", action="store_true", default=None,
                         help="f2 only: drop the zero second-highest-"
                              "coefficient restriction")
        gen.add_argument("--allow-noncoprime", action="store_true",
                         default=None, help="ksym only: build even when "
                                            "gcd(k,(p^d-1)/(p-1))>1")
        gen.add_argument("--budget", type=int, default=None)
        gen.add_argument("--out", required=True)

    du = sub.add_parser("dual", help="transpose a family file")
    if command == "dual":
        du.add_argument("--in", dest="in_path", required=True)
        du.add_argument("--out", required=True)

    meas = sub.add_parser("measure", help="evaluate one measure")
    if command == "measure":
        meas.add_argument("--in", dest="in_path", required=True)
        meas.add_argument("--measure", required=True,
                          choices=sorted(_MEASURE_FUNCTIONS))
        meas.add_argument("--ell", type=int, help="order (default 1)")
        meas.add_argument("--mode", choices=["exact", "sampled"],
                          default="exact")
        meas.add_argument("--samples", type=int)
        meas.add_argument("--seed", type=int)
        _report_options(meas, searches=True)

    ver = sub.add_parser("verify", help="run all applicable bound reports")
    if command == "verify":
        ver.add_argument("--in", dest="in_path", required=True)
        ver.add_argument("--c", type=float, default=10.0,
                         help="envelope scale constant (default 10)")
        ver.add_argument("--max-order", type=int, default=2,
                         help="envelope correlation orders to compute "
                              "(default 2)")
        _report_options(ver, searches=True)

    weil = sub.add_parser("weil", help="complete residue-symbol sum check")
    if command == "weil":
        weil.add_argument("--poly", required=True,
                          help="comma-separated coefficients, constant "
                               "first; give one that starts with '-' as "
                               "--poly=-1,0,1")
        weil.add_argument("--p", type=int, required=True)
        _report_options(weil, searches=False)

    return top


def _refuse(args, dest: str, where: str) -> None:
    """Refuse an option given where the command does not read it, which
    would otherwise look as if it had taken effect."""
    if getattr(args, dest) is not None:
        raise ParameterError(
            f"--{dest.replace('_', '-')} applies only to {where}")


def _cmd_gen(args) -> int:
    for dest, construction in _GEN_OPTION_OWNER.items():
        if args.construction != construction:
            _refuse(args, dest, f"--construction {construction}")
    if args.construction == "f1":
        base = None if args.base is None else _parse_poly(args.base, args.p)
        fam = family_f1(args.p, args.d, base=base, budget=args.budget)
    elif args.construction == "f2":
        fam = family_f2(args.p, args.d, trace_zero=not args.no_trace_zero,
                        budget=args.budget)
    else:
        k = 2 if args.k is None else args.k
        fam = family_k_symbol(args.p, args.d, k,
                              require_coprime=not args.allow_noncoprime,
                              budget=args.budget)
    write_family(fam, args.out)
    return EXIT_OK


def _cmd_dual(args) -> int:
    fam = read_family(args.in_path)
    write_family(dual(fam), args.out)
    return EXIT_OK


def _cmd_measure(args) -> int:
    name = args.measure
    sampling = name in ("phi", "gamma", "biggamma")
    if args.mode == "sampled" and not sampling:
        raise ParameterError(f"{name} has no sampled mode")
    if args.mode != "sampled":
        _refuse(args, "samples", "--mode sampled")
        _refuse(args, "seed", "--mode sampled")
    if name == "fc":
        _refuse(args, "ell", "measures other than fc")
    fam = read_family(args.in_path)
    fn = _MEASURES[name]
    # exact mode, seed 0 and 1,000 samples are the measure's defaults
    kwargs = {"budget": args.budget}
    if args.mode == "sampled":
        kwargs.update(mode=MODE_SAMPLED, **{
            dest: value for dest in ("seed", "samples")
            if (value := getattr(args, dest)) is not None})
    order = () if name == "fc" else (1 if args.ell is None else args.ell,)
    try:
        result = fn(fam, *order, **kwargs)
    except BudgetError as exc:
        if exc.verified_lower_bound is not None:  # fc's certified level
            _emit([MeasureResult(
                "f_complexity", 0, exc.verified_lower_bound,
                MODE_VERIFIED_LB, None, subject=fam.construction)], args)
        raise
    _emit([result], args)
    return EXIT_OK


def compute_verify_measures(fam: Family, max_order: int = 2,
                            budget: int | None = None) -> list[MeasureResult]:
    """The measures ``verify`` feeds to ``verify_family``: one record per
    (measure, on the dual, order) of ``bounds.verify_plan``, in its
    order; the covering complexity, at order 0, takes no order.  Each
    is called through its name in this module, where perfbench's tracer
    wraps it."""
    _bind("family", "measures", "bounds")
    plan = verify_plan(fam, max_order)
    dl = dual(fam)
    measures = []
    for name, on_dual, order in plan:
        # phi runs as cross_correlation; the others are named as their
        # functions
        fn = cross_correlation if name == "phi" else globals()[name]
        measures.append(fn(dl if on_dual else fam, *(order,) if order else (),
                           budget=budget))
    return measures


def _cmd_verify(args) -> int:
    fam = read_family(args.in_path)
    _check_scale(args.c)  # before the measures, which may take long
    measures = compute_verify_measures(fam, max_order=args.max_order,
                                       budget=args.budget)
    reports = verify_family(fam, measures, c=args.c)
    _emit(reports, args)
    violated = [r for r in reports if r.kind == KIND_EXACT and not r.satisfied]
    if violated:
        for r in violated:
            print(f"violated exact inequality: {r.name}", file=sys.stderr)
        return EXIT_VIOLATED
    return EXIT_OK


def _cmd_weil(args) -> int:
    h = _parse_poly(args.poly, args.p)
    _emit([weil_check(h, args.p)], args)
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "dual": _cmd_dual,
    "measure": _cmd_measure,
    "verify": _cmd_verify,
    "weil": _cmd_weil,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first token not starting with "-": no option
    # before it takes a value
    parser = build_parser(next((a for a in argv if a[:1] != "-"), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    _bind(*_COMMAND_MODULES[args.command])
    try:
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 0:
            raise ParameterError(f"--budget must be >= 0, got {budget}")
        return _HANDLERS[args.command](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError:
        raise
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
