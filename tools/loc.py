"""Count the lines of each ``src/prsfam`` module, and of ``tests/``.

Usage: python tools/loc.py

Prints, per module and in total, the total line count, the code line
count (the lines left after taking out blank lines, comment-only lines
and docstrings: the string literal that opens a module, class or
function body, found with ``ast``) and the size in bytes.  A line gives
the same totals over ``tests/*.py``, so a change shows whether lines
only moved from the package into the tests.

Then, per CLI command (``--version``, gen, dual, measure, verify,
weil), the code lines and bytes of the package modules the command
loads, which every run of it compiles.  Then, per perfbench workload
(``perfbench/workloads.py``, read and not changed), the code lines its
job list compiles in one pass: the sum, over its jobs, of the code
lines the job's command loads.  ``roots`` is not counted, because only
k >= 3 ``biggamma`` loads it, at run time.  Unlike the benchmark's
``setup_s``, these counts do not depend on the machine.  The last line
gives the bytes of the package modules that perfbench's runner
compiles from source through ``gate.py``, whose size moves its
``peak_rss_mb``.  Each set is found in a fresh interpreter that writes
no bytecode, as the runner does: one that imports ``gate``, and one per
command that binds ``cli._COMMAND_MODULES[command]`` (``--version``
binds none).
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

PACKAGE = ROOT / "src" / "prsfam"
TESTS = ROOT / "tests"
COMMANDS = ("--version", "gen", "dual", "measure", "verify", "weil")
LIST_MODULES = ("print(*sorted(m.__file__ for n, m in sys.modules.items()"
                " if n.split('.')[0] == 'prsfam'))")
LIST_GATE_MODULES = ("import sys; sys.path[:0] = sys.argv[1:]; import gate; "
                     + LIST_MODULES)
LIST_COMMAND_MODULES = (
    "import sys; sys.path[:0] = sys.argv[1:2]; from prsfam import cli; "
    "cli._bind(*cli._COMMAND_MODULES.get(sys.argv[2], ())); " + LIST_MODULES)


def loaded(code: str, *args: str) -> list[str]:
    """The file names of the package modules that a fresh interpreter,
    writing no bytecode, holds after running ``code`` with ``args``."""
    out = subprocess.run([sys.executable, "-B", "-c", code, *args],
                         capture_output=True, text=True, check=True).stdout
    return [Path(f).name for f in out.split()]


def runner_compiled() -> list[str]:
    """The file names of the package modules that importing
    ``perfbench/gate.py`` loads."""
    return loaded(LIST_GATE_MODULES, str(ROOT / "src"), str(ROOT / "perfbench"))


def docstring_lines(tree: ast.AST) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(text: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT,
                        tokenize.ENDMARKER):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def counts(path: Path) -> tuple[int, int, int]:
    """The total line count, the code line count and the bytes of one
    file."""
    text = path.read_text(encoding="utf-8")
    return len(text.splitlines()), code_lines(text), path.stat().st_size


def total(name: str, rows) -> tuple:
    return (name, *(sum(column) for column in zip(*(r[1:] for r in rows))))


def main() -> None:
    rows = [(path.name, *counts(path))
            for path in sorted(PACKAGE.glob("*.py"))]
    tests = [("", *counts(path)) for path in TESTS.glob("*.py")]
    names = runner_compiled()
    compiled = [r for r in rows if r[0] in names]
    rows += [total("total", rows), total("tests/ total", tests)]
    print(f"{'module':16s} {'lines':>6s} {'code':>6s} {'bytes':>7s}")
    for name, n, c, b in rows:
        print(f"{name:16s} {n:6d} {c:6d} {b:7d}")
    print(f"{'command loads':16s} {'':6s} {'code':>6s} {'bytes':>7s}")
    loads = {}
    for command in COMMANDS:
        files = loaded(LIST_COMMAND_MODULES, str(ROOT / "src"), command)
        _, _, loads[command], b = total("", [r for r in rows if r[0] in files])
        print(f"{command:16s} {'':6s} {loads[command]:6d} {b:7d}  "
              f"{' + '.join(files)}")
    print(f"{'workload pass':16s} {'':6s} {'code':>6s}")
    for name, jobs in WORKLOADS.items():
        code = sum(loads[job.command] for job in jobs)
        print(f"{name:16s} {'':6s} {code:6d}  {len(jobs)} jobs")
    print(f"perfbench runner compiles {' + '.join(names)}: "
          f"{total('', compiled)[3]} bytes")


if __name__ == "__main__":
    main()
