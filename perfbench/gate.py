"""Correctness gate: checks every job's outputs after a pass.

Nothing here runs inside a timed span.  A job passes when it exits
with its expected code, writes no traceback, and its outputs match the
reference recorded in ``reference.json``:

* gen and dual: the header line and the multiset of rows;
* verify and weil: every report's name, order, value and verdict;
* exact measures: name, order and value, and the witness re-evaluates
  to the value through ``prsfam.measures.evaluate_witness``;
* sampled measures: the witness re-evaluates, and the value is at most
  the exact value of the same measure (the reference's ``exact``).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from prsfam.construct import read_family
from prsfam.errors import Error
from prsfam.measures import (CorrelationSpec, MeasureResult, PatternWitness,
                             evaluate_witness)

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def parse_value(text: str):
    """Reports print floats with repr and exact values as "7" or "1/2"."""
    if any(c in text for c in ".en"):
        return float(text)
    return Fraction(text)


def _family_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    digest = hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()
    return {"header": header, "rows_sha256": digest}


def _report(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(job, argv: list[str]) -> dict:
    """The seed-independent part of a job's outputs, as recorded in the
    reference; ``argv`` is the job's expanded argument list."""
    out = argv[argv.index("--out") + 1]
    if job.command in ("gen", "dual"):
        return _family_summary(out)
    reports = _report(out)
    if job.command == "measure":
        (r,) = reports
        if job.sampled:
            return {"name": r["name"], "order": r["order"], "mode": r["mode"]}
        return {"name": r["name"], "order": r["order"], "value": r["value"]}
    return {"reports": [[r["name"], r["order"], r["value"], r["satisfied"]]
                        for r in reports]}


def _witness(d):
    if d is None:
        return None
    if "positions" in d:
        return PatternWitness(tuple(d["positions"]), tuple(d["pattern"]))
    return CorrelationSpec(
        ell=len(d["I"]), window=d["M"], shifts=tuple(d["D"]),
        rows=tuple(d["I"]),
        pattern=tuple(d["W"]) if "W" in d else None,
        root_maps=tuple(tuple(m) for m in d["maps"]) if "maps" in d else None)


def check_witness(report: dict, family_path: str) -> str | None:
    value = parse_value(report["value"])
    result = MeasureResult(report["name"], report["order"], value,
                           report["mode"], _witness(report["witness"]),
                           subject=report["subject"])
    again = evaluate_witness(read_family(family_path), result)
    slack = float(report["err_bound"])
    if again != value and not abs(again - value) <= slack:
        return f"witness re-evaluates to {again}, report says {value}"
    return None


def check_job(job, argv: list[str], exit_code: int, stderr: str,
              reference: dict) -> list[str]:
    """Problems found in one job's run; empty when it passes."""
    problems = []
    if exit_code != job.expect_exit:
        problems.append(f"exit {exit_code}, expected {job.expect_exit}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems
    ref = reference.get(job.id)
    if ref is None:
        return [f"no reference recorded for {job.id}"]
    try:
        got = summarize(job, argv)
        if got != ref["summary"]:
            problems.append(f"outputs {got} differ from reference "
                            f"{ref['summary']}")
        if job.command == "measure":
            (report,) = _report(argv[argv.index("--out") + 1])
            family = argv[argv.index("--in") + 1]
            bad = check_witness(report, family)
            if bad:
                problems.append(bad)
            if job.sampled and parse_value(report["value"]) > \
                    parse_value(ref["exact"]):
                problems.append(f"sampled value {report['value']} exceeds "
                                f"the exact value {ref['exact']}")
    except (Error, OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
