"""Each psipp module uses only the public names of the others: no
``from .x import _name`` anywhere in the package. And each module uses
what it imports: it reads the name, lists it in ``__all__``, or another
psipp module imports the name from it. And every name that the bench
tracer wraps exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

from psipp.evaluator import Interpreter

SRC = Path(__file__).resolve().parent.parent / "src" / "psipp"
BENCH = SRC.parent.parent / "bench"


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


def imported_from(paths) -> set[tuple[str, str]]:
    """``(module, name)`` for each ``from .module import name`` in
    ``paths``; ``from . import name`` counts as ``__init__``."""
    return {(node.module or "__init__", alias.name)
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names}


def unused_imports(path: Path, imported_elsewhere=frozenset()) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{node.lineno}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (name := (alias.asname or alias.name).partition(".")[0])
            not in used and (path.stem, name) not in imported_elsewhere]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(SRC.glob("*.py"))
    elsewhere = imported_from(modules)
    assert ("algebra", "complex_mul") in elsewhere
    found = [line for path in modules
             for line in unused_imports(path, elsewhere)]
    assert found == []


def test_the_check_sees_an_unused_import(tmp_path):
    source = tmp_path / "mutant.py"
    source.write_text("from __future__ import annotations\n"
                      "import os, sys, os.path\n"
                      "from .values import FAIL, Value\n"
                      "from .ast import Call as C, Ident as I, operands\n"
                      "__all__ = ['operands']\n"
                      "def f(v: Value):\n    return sys.argv\n")
    assert unused_imports(source, {("mutant", "C")}) == [
        "mutant.py:2: os", "mutant.py:2: os", "mutant.py:3: FAIL",
        "mutant.py:4: I"]


def test_every_name_the_bench_tracer_wraps_exists():
    # the tracer skips a name it cannot find, so a renamed function would
    # read 0 under ``--trace 1`` with no error; the dead kernel names are
    # the benchmark's to drop
    spec = importlib.util.spec_from_file_location("tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for _, module, names in tracer._FUNCTIONS
               for name in names if name not in tracer.KERNELS
               and not hasattr(importlib.import_module(module), name)]
    missing += [f"Interpreter.{name}" for name in tracer._INTERPRETER_METHODS
                if name not in vars(Interpreter)]
    assert tracer._FUNCTIONS and missing == []
