"""Run one ``prsfam`` CLI job with spans around the package's layers.

Usage: python tracer.py SPANS_OUT JOB_ID CLI_ARG...

The wrappers are installed from here, at the names the package looks
up when it runs (``prsfam.cli._MEASURES``, ``prsfam.construct.legendre``
and so on), so ``src/`` carries no tracing code and an untraced job runs
the package unchanged.  A span is ``[id, name, start, end, parent]``;
hot leaf functions (``legendre``, ``char_k``, ``is_irreducible``,
``minimal_polynomial``) are instead folded into one record per parent
span, ``[parent, name, calls, total, first_start, last_end]``.  Spans
and counts stay in memory and are written to SPANS_OUT as JSON when the
job ends, with the job's speed calibration (see launch.py).

Each correlation-measure call is preceded by a zero-budget probe: the
same call with ``budget=0``, whose ``BudgetError.estimate`` is the
program's own work estimate.  The probe runs inside a ``trace.probe``
span, so its time is charged to the tracer, not to a layer.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter

from prsfam import bounds, cli, construct, ff, poly
from prsfam.errors import BudgetError

import launch

clock = time.perf_counter

CORRELATION_MEASURES = ("cross_correlation", "cross_correlation_circ",
                        "gamma", "gamma_circ", "big_gamma")


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = {}
        self.counts: Counter = Counter()
        self.stack: list = [None]

    def span(self, name, fn, on_return=None, before=None):
        """Wrap ``fn`` so each call records one span."""
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [len(self.spans), name, 0.0, 0.0, self.stack[-1]]
            self.spans.append(rec)
            self.stack.append(rec[0])
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BudgetError:
                self.counts[f"{name}.refused"] += 1
                raise
            finally:
                rec[3] = clock()
                self.stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def leaf(self, name, fn, on_return=None):
        """Wrap a hot function that calls no other wrapped function."""
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                key = (self.stack[-1], name)
                group = self.leaves.get(key)
                if group is None:
                    self.leaves[key] = [1, end - start, start, end]
                else:
                    group[0] += 1
                    group[1] += end - start
                    group[3] = end
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def measure(self, fn):
        """Span for a measure; correlation measures get a budget probe."""
        name = f"measures.{fn.__name__}"
        if fn.__name__ not in CORRELATION_MEASURES:
            return self.span(name, fn)
        signature = inspect.signature(fn)
        probe = self.span("trace.probe", fn)

        def estimate(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["budget"] = 0
            try:
                probe(*bound.args, **bound.kwargs)
            except BudgetError as exc:
                self.counts[f"{name}.est_steps"] += exc.estimate or 0
        return self.span(name, fn, before=estimate)

    def document(self) -> dict:
        return {
            "job": self.job_id,
            "spans": self.spans,
            "leaves": [[parent, name, *group]
                       for (parent, name), group in self.leaves.items()],
            "counts": dict(self.counts),
        }


def install(t: Tracer) -> None:
    """Replace each looked-up name with a wrapper around the original."""
    def count(key, amount):
        def hook(args, result):
            t.counts[key] += amount(args, result)
        return hook

    def io_bytes(args, result):
        path = args[1] if len(args) > 1 else args[0]
        return os.path.getsize(path) if isinstance(path, str) else 0

    for cmd, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[cmd] = t.span(f"cli.{cmd}", handler)
    cli.emit_report = t.span("cli.emit_report", cli.emit_report)

    rows_built = count("construct.rows_built", lambda a, r: r.size)
    for builder in ("family_f1", "family_f2", "family_k_symbol"):
        setattr(cli, builder, t.span(f"construct.{builder}",
                                     getattr(cli, builder), rows_built))
    cli.dual = t.span("construct.dual", cli.dual)
    cli.read_family = t.span("construct.read_family", cli.read_family,
                             count("construct.io.bytes", io_bytes))
    cli.write_family = t.span("construct.write_family", cli.write_family,
                              count("construct.io.bytes", io_bytes))

    for name, fn in list(cli._MEASURES.items()):
        cli._MEASURES[name] = t.measure(fn)
    for name in ("f_complexity", "cross_correlation", "gamma", "gamma_circ"):
        setattr(cli, name, t.measure(getattr(cli, name)))

    cli.verify_family = t.span("bounds.verify_family", cli.verify_family,
                               count("bounds.reports", lambda a, r: len(r)))
    cli.weil_check = t.span("bounds.weil_check", cli.weil_check,
                            count("bounds.reports", lambda a, r: 1))

    poly.enumerate_trace_zero_irreducibles = t.span(
        "poly.enumerate_trace_zero_irreducibles",
        poly.enumerate_trace_zero_irreducibles)
    construct.conjugacy_representatives = t.span(
        "poly.conjugacy_representatives", construct.conjugacy_representatives,
        lambda a, r: t.counts.update({"poly.orbit_scanned": a[0] ** a[1],
                                      "poly.orbit_reps": len(r)}))
    construct.minimal_polynomial = t.leaf("poly.minimal_polynomial",
                                          construct.minimal_polynomial)
    irreducible = count("poly.is_irreducible.true", lambda a, r: int(r))
    for module in (construct, poly, ff):
        module.is_irreducible = t.leaf("poly.is_irreducible",
                                       module.is_irreducible, irreducible)
    for module in (construct, bounds, ff):
        module.legendre = t.leaf("ff.legendre", module.legendre)
    construct.char_k = t.leaf("ff.char_k", construct.char_k)


def main(argv: list[str]) -> int:
    spans_out, job_id, cli_args = argv[0], argv[1], argv[2:]
    before = launch.calibrate()
    t = Tracer(job_id)
    install(t)
    try:
        return t.span("cli.main", cli.main)(cli_args)
    finally:
        doc = t.document()
        doc["calibration"] = launch.calibration(before, launch.calibrate())
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
