"""Count source lines of code under ``src/``.

A line counts when it holds part of a Python token other than a comment,
and is not inside a docstring (the leading string of a module, class or
function body).  Blank lines and comment-only lines do not count.

Usage: ``python3 tools/sloc.py`` prints one line per file and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(text)))


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = count_file(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
