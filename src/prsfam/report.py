"""The report writer of ``measure``, ``verify`` and ``weil``: measure
results and bound reports as JSON, CSV or text.  ``cli`` loads it for
those commands only."""

from __future__ import annotations

import io
import json
import sys

from .errors import TYPE_CHECKING, ParameterError

if TYPE_CHECKING:
    from typing import IO, Sequence

__all__ = ["emit_report"]


def _is(obj, module: str, cls: str) -> bool:
    """``isinstance(obj, <module>.<cls>)`` without importing ``module``:
    while it is not loaded, no instance of its classes exists."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return mod is not None and isinstance(obj, getattr(mod, cls))


def _value_str(v) -> str:
    # int and Fraction both print exactly ("7", "1/2")
    return repr(v) if isinstance(v, float) else str(v)


def _witness_dict(w):
    if w is None:
        return None
    if _is(w, "measures", "PatternWitness"):
        return {"positions": list(w.positions), "pattern": list(w.pattern)}
    out = {"M": w.window, "D": list(w.shifts), "I": list(w.rows)}
    if w.pattern is not None:
        out["W"] = list(w.pattern)
    if w.root_maps is not None:
        out["maps"] = [list(m) for m in w.root_maps]
    return out


def _to_dict(r) -> dict:
    if _is(r, "measures", "MeasureResult"):
        return {"name": r.name, "order": r.order,
                "value": _value_str(r.value), "mode": r.mode,
                "subject": r.subject, "witness": _witness_dict(r.witness),
                "err_bound": repr(r.err_bound)}
    if not _is(r, "bounds", "BoundReport"):
        raise ParameterError(f"cannot serialize result of type {type(r)!r}")
    from fractions import Fraction  # loaded already by ``bounds``

    return {
        "name": r.name,
        "order": r.params.get("ell"),
        "value": _value_str(r.measured),
        "mode": "exact",
        "bound": _value_str(r.theoretical),
        "satisfied": r.satisfied,
        "kind": r.kind,
        "ratio": None if r.ratio is None else repr(r.ratio),
        "params": {k: _value_str(v) if isinstance(v, (int, float, Fraction))
                   else v for k, v in r.params.items()},
        "note": r.note,
    }


_CSV_FIELDS = ["name", "order", "value", "mode", "subject", "witness",
               "bound", "satisfied", "kind", "ratio", "note"]


def emit_report(results: Sequence, fmt: str, sink: IO[str]) -> None:
    """Serialize measure results and bound reports.

    JSON: one object per result, stable field order.  CSV: flat columns
    with a header row.  Text: one aligned human-readable line each.
    Deterministic for deterministic inputs.  The whole report is built
    before any of it is written, so a refused one writes nothing.
    """
    if not results:
        raise ParameterError("nothing to report")
    out = io.StringIO()
    try:
        dicts = [_to_dict(r) for r in results]
        if fmt == "json":
            json.dump(dicts, out, indent=2)
            out.write("\n")
        elif fmt == "csv":
            import csv

            writer = csv.DictWriter(out, fieldnames=_CSV_FIELDS,
                                    extrasaction="ignore", lineterminator="\n")
            writer.writeheader()
            for d in dicts:
                row = dict(d)
                if isinstance(row.get("witness"), dict):
                    row["witness"] = json.dumps(row["witness"],
                                                separators=(",", ":"))
                writer.writerow(row)
        elif fmt == "text":
            for d in dicts:
                if "bound" in d:
                    mark = "ok" if d["satisfied"] else "VIOLATED"
                    out.write(f"{d['name']:34s} [{d['kind']}] measured="
                              f"{d['value']} bound={d['bound']} {mark}\n")
                else:
                    out.write(f"{d['name']:12s} order={d['order']} value="
                              f"{d['value']} ({d['mode']})\n")
        else:
            raise ParameterError(f"unknown format {fmt!r}")
    except ParameterError:
        raise
    except ValueError:  # an int past the int-to-str digit limit
        raise ParameterError("cannot report a number past the int digit "
                             "limit") from None
    sink.write(out.getvalue())
