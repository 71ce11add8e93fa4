"""Count the lines of each ``src/prsfam`` module, and of ``tests/``.

Usage: python tools/loc.py

Prints, per module and in total, the total line count, the code line
count (the lines left after taking out blank lines, comment-only lines
and docstrings: the string literal that opens a module, class or
function body, found with ``ast``) and the size in bytes.  A line gives
the same totals over ``tests/*.py``, so a change shows whether lines
only moved from the package into the tests.  The last line gives the
bytes of ``construct.py`` and ``measures.py`` together: perfbench's
runner compiles those two from source (through ``gate.py``), so their
size moves its ``peak_rss_mb``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prsfam"
TESTS = ROOT / "tests"
RUNNER_COMPILED = ("construct.py", "measures.py")


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
    compiled = [r for r in rows if r[0] in RUNNER_COMPILED]
    rows += [total("total", rows), total("tests/ total", tests)]
    print(f"{'module':16s} {'lines':>6s} {'code':>6s} {'bytes':>7s}")
    for name, n, c, b in rows:
        print(f"{name:16s} {n:6d} {c:6d} {b:7d}")
    print(f"{' + '.join(RUNNER_COMPILED)} bytes: "
          f"{total('', compiled)[3]}")


if __name__ == "__main__":
    main()
