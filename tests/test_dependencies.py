"""The package imports only what ``pyproject.toml`` declares: the standard library, numpy and itself.

scipy and mpmath may be installed beside it, but an import of either would work here and fail
wherever qbcap is installed with its declared dependencies alone.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qbcap"
ALLOWED = {*sys.stdlib_module_names, "numpy", "qbcap"}


def imported_modules(tree: ast.Module) -> list[str]:
    """The top-level names of the absolute imports anywhere in ``tree``; relative imports stay in the package."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_package_imports_only_declared_dependencies(path):
    modules = imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in modules if name not in ALLOWED] == []


def test_the_guard_sees_nested_and_dotted_imports():
    tree = ast.parse("def f():\n    import scipy.linalg\n    from mpmath import mp\n    from . import states\n")
    assert [name for name in imported_modules(tree) if name not in ALLOWED] == ["scipy", "mpmath"]
