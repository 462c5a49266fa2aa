"""The package imports nothing beyond the standard library, numpy and scipy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "kgatnet"
ALLOWED = {"kgatnet", "numpy", "scipy"}


def imported_top_level_names(tree: ast.AST):
    """(line, top-level module) of every absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_scipy():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in imported_top_level_names(tree):
            if name not in ALLOWED and name not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{line}: {name}")
    assert not foreign, "imports outside the stdlib, numpy and scipy: " + ", ".join(foreign)


def test_guard_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    import requests\n    from yaml import safe_load\n"
                     "from . import gat\nimport os.path\n")
    assert sorted(imported_top_level_names(tree)) == [(2, "requests"), (3, "yaml"), (5, "os")]
