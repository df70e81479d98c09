"""Each psipp module uses only the public names of the others: no
``from .x import _name`` anywhere in the package. And each module uses
what it imports: it reads the name, lists it in ``__all__``, or another
psipp module imports the name from it. And every name that the bench
tracer wraps exists and is counted where a program calls it."""

import ast
import importlib
import importlib.util
import io
from pathlib import Path

from psipp.cli import run_file
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


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_bench_tracer_wraps_exists():
    # the tracer skips a name it cannot find, so a renamed function would
    # read 0 under ``--trace 1`` with no error; the dead kernel names are
    # the benchmark's to drop
    tracer = load_tracer()
    missing = [f"{module}.{name}" for _, module, names in tracer._FUNCTIONS
               for name in names if name not in tracer.KERNELS
               and not hasattr(importlib.import_module(module), name)]
    missing += [f"Interpreter.{name}" for name in tracer._INTERPRETER_METHODS
                if name not in vars(Interpreter)]
    assert tracer._FUNCTIONS and missing == []


def test_the_bench_tracer_counts_a_program_s_calls(tmp_path):
    # a wrapper that a call no longer goes through reads 0 with no error:
    # a changed signature or call path must change these counts here
    script = tmp_path / "traced.psi"
    script.write_text("var x : Algebra;\nz := (1, 2) * (3, 4);\n"
                      "a := -(x + z);\nx := 2;\nprint(EVAL(a));\n")
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        out, err = io.StringIO(), io.StringIO()
        code = run_file(str(script), stdout=out, stderr=err)
    finally:
        tracer.uninstall()
    assert (code, out.getvalue(), err.getvalue()) == (0, "3 - 10*i\n", "")
    calls = tracer.calls[module.PROGRAM]
    assert {name: calls[name] for name in (
        "dispatch", "invoke_method", "make_thunk", "force")} == {
        # Complex * and, forced, Complex + and prefix -; the user body of
        # Complex * and the three natives; x + z and its negation; a and x
        "dispatch": 3, "invoke_method": 4, "make_thunk": 2, "force": 2}
