"""Count the lines of every module under src/ by kind.

    python tools/src_lines.py

Each line is one of: docstring (a module, class or function docstring,
blank lines inside it included), blank, code (any token besides a
comment, continuation lines of a statement included) or comment (a
comment alone on its line).  The four counts add up to the module's
line count, as wc -l gives it.  Standard library only (ast, tokenize).
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
KINDS = ("code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def line_kinds(text: str) -> dict[str, int]:
    """The number of lines of each of KINDS in the module source text."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docstrings:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in code:
            counts["code"] += 1
        else:
            counts["comment"] += 1
    return counts


def main() -> int:
    rows = [(str(path.relative_to(SRC)), line_kinds(path.read_text())) for path in sorted(SRC.rglob("*.py"))]
    rows.append(("total", {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in (*KINDS, "lines")))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS)
              + f"{sum(counts.values()):>11,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
