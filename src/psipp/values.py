"""Runtime values, functional objects, environments, and the kernel below
both the evaluator and the rewriter.

Every runtime datum is one of: integer, complex value, monomial register,
free variable, thunk (lazy functional object), or the universal ``fail``
sentinel. Values are immutable and may be shared. The kernel holds the one
definition of concrete Gaussian-integer arithmetic, of the result type of
mixed operands, and of thunk construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import ast
from .errors import UnknownIdentifier
from .monomials import MonomialRegister
from .objects import INTEGER

# binding kinds
KIND_VALUE = "value"
KIND_VARIABLE = "variable"
KIND_FUNCTIONAL = "functional object"


class Value:
    pass


@dataclass(frozen=True)
class IntegerV(Value):
    n: int


@dataclass(frozen=True)
class ComplexV(Value):
    re: int
    im: int


@dataclass(frozen=True)
class RegisterV(Value):
    register: MonomialRegister


@dataclass(frozen=True)
class FreeVarV(Value):
    name: str
    type_name: str = "Algebra"


class _Fail(Value):
    """Singleton sentinel compatible with every type."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "fail"


FAIL = _Fail()


@dataclass(frozen=True)
class FunctionalObject:
    """An unevaluated expression tree plus the environment it captured.

    ``body`` leaves are either ``ValueLeaf`` (already computed) or
    ``Ident`` (still free); every free identifier appears in ``captures``.
    """

    body: ast.Expr
    captures: tuple[tuple[str, Value], ...]
    result_type: str = "Algebra"

    def capture_map(self) -> dict[str, Value]:
        return dict(self.captures)


@dataclass(frozen=True)
class ThunkV(Value):
    fo: FunctionalObject


def classify_binding(v: Value) -> str:
    """The three-way kind of a runtime datum: value, variable, or
    functional object. ``fail`` counts as a value."""
    if isinstance(v, ThunkV):
        return KIND_FUNCTIONAL
    if isinstance(v, FreeVarV):
        return KIND_VARIABLE
    return KIND_VALUE


# --- the kernel: result types, thunk construction, arithmetic ---

def type_name_of(v: Value) -> str:
    if isinstance(v, IntegerV):
        return INTEGER
    if isinstance(v, ComplexV):
        return "Complex"
    if isinstance(v, RegisterV):
        return "Monomial"
    if isinstance(v, FreeVarV):
        return v.type_name
    if isinstance(v, ThunkV):
        return v.fo.result_type
    return "Algebra"  # fail


def join_types(names: list[str]) -> str:
    """Least informative common result type for mixed operands."""
    if names and all(n == INTEGER for n in names):
        return INTEGER
    if all(n in (INTEGER, "Complex") for n in names):
        return "Complex"
    if all(n in (INTEGER, "Complex", "Monomial") for n in names) \
            and "Monomial" in names:
        return "Monomial"
    return "Algebra"


def thunk(body: ast.Expr, result_type: str,
          *captures: dict[str, Value]) -> ThunkV:
    """Build a lazy functional object over the merged capture maps; on a
    name clash the later map wins."""
    merged: dict[str, Value] = {}
    for caps in captures:
        merged.update(caps)
    return ThunkV(FunctionalObject(body, tuple(sorted(merged.items())),
                                   result_type))


def promote(n) -> ComplexV:
    """Integer to complex conversion: n becomes (Re: n, Im: 0)."""
    if isinstance(n, IntegerV):
        n = n.n
    return ComplexV(n, 0)


def complex_mul(a: ComplexV, b: ComplexV) -> ComplexV:
    return ComplexV(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def int_arith(op: str, args: list[IntegerV]) -> Optional[IntegerV]:
    """``op`` on integer operands: prefix on one, infix on two."""
    if len(args) == 1:
        return IntegerV(-args[0].n) if op == "-" else None
    a, b = args[0].n, args[1].n
    if op == "+":
        return IntegerV(a + b)
    if op == "-":
        return IntegerV(a - b)
    if op == "*":
        return IntegerV(a * b)
    return None


def arith(op: str, args: list[Value]) -> Optional[Value]:
    """Concrete Gaussian-integer arithmetic, prefix on one operand and
    infix on two. Integers stay integers among themselves and promote when
    they meet a complex value; ``fail`` is absorbing. None when no operand
    combination or operator applies."""
    if all(isinstance(a, IntegerV) for a in args):
        return int_arith(op, args)
    if not all(isinstance(a, (IntegerV, ComplexV)) for a in args):
        return FAIL if any(a is FAIL for a in args) else None
    cx = [promote(a) if isinstance(a, IntegerV) else a for a in args]
    if len(cx) == 1:
        return ComplexV(-cx[0].re, -cx[0].im) if op == "-" else None
    a, b = cx
    if op == "+":
        return ComplexV(a.re + b.re, a.im + b.im)
    if op == "-":
        return ComplexV(a.re - b.re, a.im - b.im)
    if op == "*":
        return complex_mul(a, b)
    return None


@dataclass
class Binding:
    value: Value
    declared_type: str


class Environment:
    """Stack of frames; lookup is innermost-first. ``par`` frames are
    flagged so pattern matching can tell pattern variables apart."""

    def __init__(self, parent: Optional["Environment"] = None, is_par: bool = False):
        self.parent = parent
        self.is_par = is_par
        self.bindings: dict[str, Binding] = {}
        self.par_types: dict[str, str] = {}

    def declare_par(self, name: str, declared_type: str):
        self.par_types[name] = declared_type

    def par_frame_declaring(self, name: str) -> Optional["Environment"]:
        """Innermost par frame declaring ``name``, or None. Stops at the
        first ordinary binding of the name, which shadows par scopes."""
        env: Optional[Environment] = self
        while env is not None:
            if env.is_par and name in env.par_types:
                return env
            if name in env.bindings:
                return None
            env = env.parent
        return None

    def define(self, name: str, value: Value, declared_type: str = "Algebra"):
        self.bindings[name] = Binding(value, declared_type)

    def find(self, name: str) -> Optional[Binding]:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        return None

    def lookup(self, name: str) -> Value:
        binding = self.find(name)
        if binding is None:
            raise UnknownIdentifier(f"unknown identifier {name!r}")
        return binding.value

    def assign(self, name: str, value: Value):
        """Rebind the innermost existing binding, or create a global one."""
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name].value = value
                return
            env = env.parent
        self.define(name, value)

    def snapshot(self) -> dict[str, tuple[Value, str]]:
        """Flattened view, innermost bindings winning. Used by tests to
        check that failed matches leave the environment untouched."""
        frames = []
        env: Optional[Environment] = self
        while env is not None:
            frames.append(env.bindings)
            env = env.parent
        merged: dict[str, tuple[Value, str]] = {}
        for frame in reversed(frames):
            for name, binding in frame.items():
                merged[name] = (binding.value, binding.declared_type)
        return merged
