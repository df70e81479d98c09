"""Nodes, values and registers are shared, so none may change once built.
They are slotted dataclasses, which Python does not stop from changing:
these checks do. No psipp module stores to an attribute except to
``self``/``cls`` in a class that is no dataclass, or to a caught error's
``span`` or ``method``; and every dataclass of those modules is slotted
and not frozen, so that building one pays no ``object.__setattr__`` per
field."""

import ast
import dataclasses
from pathlib import Path

from psipp import ast as psi_ast, monomials, values

SRC = Path(__file__).resolve().parent.parent / "src" / "psipp"
RECORD_MODULES = (psi_ast, values, monomials)
SETTERS = ("setattr", "delattr", "__setattr__", "__delattr__")
# objects a method may store to: its own instance or class
OWN_STATE = ("self", "cls")


def is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def stored_objects(node: ast.AST):
    """The expressions whose attribute ``node`` stores to or deletes, if
    any: ``x.f = ...``, ``x.f += ...``, ``del x.f``, ``setattr(x, ...)``
    and ``object.__setattr__(x, ...)``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.ctx, (ast.Store, ast.Del)):
        yield node.value
    elif isinstance(node, ast.Call) and node.args:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name in SETTERS:
            yield node.args[0]


def forbidden_stores(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []

    def visit(node: ast.AST, owner):
        """``owner`` is the innermost enclosing class, or None."""
        for obj in stored_objects(node):
            name = ast.unparse(obj)
            if name == "err":
                allowed = getattr(node, "attr", None) in ("span", "method")
            else:
                allowed = name in OWN_STATE and owner is not None \
                    and not is_dataclass_decorated(owner)
            if not allowed:
                found.append(f"{path.name}:{node.lineno}: "
                             f"{lines[node.lineno - 1].strip()}")
        inner = node if isinstance(node, ast.ClassDef) else owner
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_no_module_stores_to_a_shared_record():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [line for path in modules for line in forbidden_stores(path)]
    assert found == []


def test_the_guard_sees_a_store_to_a_node(tmp_path):
    source = tmp_path / "mutant.py"
    source.write_text("def f(e, v, err):\n    e.lhs = e.rhs\n"
                      "    object.__setattr__(v, 'n', 1)\n"
                      "    err.span = err.message = None\n"
                      "class C:\n    def g(self, e):\n        e.span += 1\n"
                      "        self.ok = 1\n"
                      "@dataclass\nclass D:\n    def h(self):\n"
                      "        setattr(self, 'x', 1)\n")
    assert forbidden_stores(source) == [
        "mutant.py:2: e.lhs = e.rhs",
        "mutant.py:3: object.__setattr__(v, 'n', 1)",
        "mutant.py:4: err.span = err.message = None",
        "mutant.py:7: e.span += 1",
        "mutant.py:12: setattr(self, 'x', 1)"]


def record_classes():
    for module in RECORD_MODULES:
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and dataclasses.is_dataclass(cls):
                yield cls


def test_every_record_class_is_slotted_and_unfrozen():
    classes = list(record_classes())
    assert len(classes) == 17 + 4 + 2
    for cls in classes:
        assert not cls.__dataclass_params__.frozen, cls
        assert cls.__hash__ is not None, cls
        # an instance has no __dict__ only if every class above it is slotted
        for base in cls.__mro__[:-1]:
            assert "__slots__" in vars(base), (cls, base)
    assert not hasattr(values.FAIL, "__dict__")


def test_no_node_class_has_a_subclass():
    # the evaluator, the renderer and the rewriter test a node's class by
    # identity (``type(e) is ast.Infix``), which a subclass would miss
    # without an error
    for cls in vars(psi_ast).values():
        if isinstance(cls, type) and dataclasses.is_dataclass(cls):
            assert cls.__subclasses__() == [], cls
