"""Count the code lines of the qbcap package, the measure of ROADMAP item 9.

A code line is a non-blank line of ``src/qbcap/*.py`` that lies outside every
docstring (the spans ``ast`` gives the first statement of a module, class or
function when it is a string) and is not a comment-only line. The script also
prints the plain line count of the same files, as ``wc -l`` gives it.

    python3 tools/code_lines.py            # the package beside this directory
    python3 tools/code_lines.py PATH ...   # other files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qbcap"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of the module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """Code lines and all lines of one file."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )
    return code, text.count("\n")


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted(PACKAGE.glob("*.py"))
    totals = [0, 0]
    for path in paths:
        code, lines = count(path)
        totals[0] += code
        totals[1] += lines
        print(f"{code:6d} {lines:6d}  {path.name}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total (code lines, wc -l)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
