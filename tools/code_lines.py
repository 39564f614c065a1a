"""Print the code lines of each `src/oiso` module and their total.

Usage, from the repository root:

    python3 tools/code_lines.py

A code line is a line that holds a token of code. Blank lines, comment
lines and the lines of docstrings (the string that opens a module, class or
function body) do not count; a line holding code and a comment does. The
output is one `count path` line per module, sorted by path, then
`count total`.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "oiso").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.relative_to(ROOT)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
