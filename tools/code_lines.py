"""Count the code lines of Python files.

    python tools/code_lines.py FILE...

Prints each file's total lines and code lines, then the totals. A code line
is a line that is not blank, does not start with `#` (after indentation),
and lies outside the docstrings of the module and of its classes and
functions, as the AST finds them.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """The 1-based line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str, name: str = "<text>") -> tuple[int, int]:
    """(total lines, code lines) of the Python source text."""
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text, name))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main(paths) -> int:
    if not paths:
        print("usage: python tools/code_lines.py FILE...", file=sys.stderr)
        return 2
    totals = [0, 0]
    for path in paths:
        total, code = count(Path(path).read_text(encoding="utf-8"), path)
        totals[0] += total
        totals[1] += code
        print(f"{total:7d} {code:7d}  {path}")
    print(f"{totals[0]:7d} {totals[1]:7d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
