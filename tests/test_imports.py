"""Each psipp module uses only the public names of the others: no
``from .x import _name`` anywhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psipp"


def private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: from {'.' * node.level}"
            f"{node.module or ''} import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [line for path in modules for line in private_imports(path)]
    assert found == []
