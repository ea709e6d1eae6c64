#!/usr/bin/env python3
"""Count the code lines of each module of the package: lines that hold a
token other than a comment, and that are not part of a docstring (the
first statement of a module, class or function, when it is a string).

Run from the repository root (stdlib only)::

    python3 scripts/code_lines.py

It prints one `<lines> <module>` line per module of `src/fnef`, then the
total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that make no line a code line.
_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines of the Python module `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "fnef").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path.relative_to(ROOT)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
