"""Runtime values, functional objects, and the kernel below both the
evaluator and the rewriter.

Every runtime datum is one of: integer, complex value, monomial register,
free variable, thunk (lazy functional object), or the universal ``fail``
sentinel. An integer is a plain Python ``int``, tested by exact type, so
a ``bool`` is never one, and never by truth, as ``0`` is falsy. The other
values are slotted dataclasses, immutable by convention as
``tests/test_immutability.py`` checks, and may be shared. A functional
object's captures are a ``Captures`` record, which merges the captures of
its operands once, when first read. The kernel holds the one definition of
concrete Gaussian-integer arithmetic, of thunk construction, and of a
functional object's type, read off its body.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional

from . import ast
from .errors import EvalError
from .monomials import MonomialRegister

# the type name of integers, which is no object type
INTEGER = "integer"

# binding kinds
KIND_VALUE = "value"
KIND_VARIABLE = "variable"
KIND_FUNCTIONAL = "functional object"


class Value:
    """The base of every value but an integer, which is an ``int``."""
    __slots__ = ()


@dataclass(unsafe_hash=True, slots=True)
class ComplexV(Value):
    re: int
    im: int


@dataclass(unsafe_hash=True, slots=True)
class RegisterV(Value):
    register: MonomialRegister


@dataclass(unsafe_hash=True, slots=True)
class FreeVarV(Value):
    name: str
    type_name: str = "Algebra"


class _Fail(Value):
    """Sentinel compatible with every type; ``FAIL`` is its one instance,
    and fail is tested by identity with it."""

    __slots__ = ()

    def __repr__(self):
        return "fail"


FAIL = _Fail()


class Captures:
    """A functional object's captures, sorted ``(name, FreeVarV)`` pairs
    merged from its sources when first read.

    A source is another record, a ``FreeVarV`` or a dict of name to value.
    The later source wins a clash, at any depth: the merge walks the
    sources right to left on an explicit stack, keeps the first binding it
    meets for each name, and walks a shared record once, as its first walk
    bound all its names. So building a record is O(1), and its first read
    is linear in the records and bindings it reaches and drops its
    sources. Equality, hashing and iteration are those of the pairs."""

    __slots__ = ("_pairs", "_sources")

    def __init__(self, *sources: CaptureSource):
        self._pairs: Optional[tuple[tuple[str, Value], ...]] = None
        self._sources = sources

    @property
    def pairs(self) -> tuple[tuple[str, Value], ...]:
        """The merged pairs. Records are told apart by ``id``, as hashing
        one merges it."""
        if self._pairs is not None:
            return self._pairs
        bound: dict[str, Value] = {}
        seen: set[int] = set()
        pending = list(self._sources)
        while pending:
            source = pending.pop()
            if type(source) is Captures:
                if id(source) in seen:
                    continue
                seen.add(id(source))
                if source._pairs is None:
                    pending += source._sources
                    continue
                pairs = source._pairs
            elif type(source) is FreeVarV:
                pairs = ((source.name, source),)
            else:
                pairs = source.items()
            for name, value in pairs:
                bound.setdefault(name, value)
        self._pairs, self._sources = tuple(sorted(bound.items())), ()
        return self._pairs

    def __iter__(self) -> Iterator[tuple[str, Value]]:
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Captures):
            other = other.pairs
        return self.pairs == other

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return repr(self.pairs)


CaptureSource = Captures | FreeVarV | dict[str, Value]


@dataclass(unsafe_hash=True, slots=True)
class ThunkV(Value):
    """A lazy functional object: an unevaluated expression over its free
    variables.

    ``body`` leaves are either ``ValueLeaf`` (a concrete value, never a
    thunk or a free variable) or ``Ident`` (a free variable). ``captures``,
    a ``Captures`` record, holds exactly the free identifiers, each bound
    to the ``FreeVarV`` of its own name, which carries its declared type;
    forcing binds them by name. Shared subterms stay shared: the body is a
    DAG, and until first read the record is a DAG of the records of the
    objects it was built from. Its type is not stored: ``type_name_of``
    computes it from the body and the captures.
    """

    body: ast.Expr
    captures: Captures

    def capture_map(self) -> dict[str, Value]:
        return dict(self.captures)


def classify_binding(v: Value) -> str:
    """The three-way kind of a runtime datum: value, variable, or
    functional object. ``fail`` counts as a value."""
    if isinstance(v, ThunkV):
        return KIND_FUNCTIONAL
    if isinstance(v, FreeVarV):
        return KIND_VARIABLE
    return KIND_VALUE


# --- the kernel: types, thunk construction, arithmetic ---

def type_name_of(v: Value) -> str:
    if type(v) is int:
        return INTEGER
    if isinstance(v, ComplexV):
        return "Complex"
    if isinstance(v, RegisterV):
        return "Monomial"
    if isinstance(v, FreeVarV):
        return v.type_name
    if isinstance(v, ThunkV):
        return type_of_body(v.body, v.capture_map())
    return "Algebra"  # fail


def join_types(names: set[str]) -> str:
    """Least informative common type of a body's leaf types."""
    if names and all(n == INTEGER for n in names):
        return INTEGER
    if all(n in (INTEGER, "Complex") for n in names):
        return "Complex"
    if all(n in (INTEGER, "Complex", "Monomial") for n in names) \
            and "Monomial" in names:
        return "Monomial"
    return "Algebra"


def type_of_body(body: ast.Expr, captures: dict[str, Value]) -> str:
    """The type of a functional object: the join of its body's leaf types.
    A value leaf is typed by its value and an identifier by its capture;
    an integer literal and a field, an integer component as ``field_of``
    makes it, are ``integer``; any other leaf is ``Algebra``. A subtree
    shared by several parents is visited once, on an explicit stack, so
    any depth is typed."""
    leaf_types: set[str] = set()
    seen: set[int] = set()
    pending = [body]
    while pending:
        e = pending.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, ast.ValueLeaf):
            leaf_types.add(type_name_of(e.value))
        elif isinstance(e, ast.Ident) and e.name in captures:
            leaf_types.add(type_name_of(captures[e.name]))
        elif isinstance(e, (ast.IntLit, ast.FieldAccess)):
            leaf_types.add(INTEGER)
        elif operands := ast.operands(e):
            pending += operands
        else:
            leaf_types.add("Algebra")
    return join_types(leaf_types)


def thunk(body: ast.Expr, *sources: CaptureSource) -> ThunkV:
    """Build a lazy functional object over the captures of ``sources``; on
    a name clash the later source wins. One record is taken as it is."""
    if len(sources) == 1 and type(sources[0]) is Captures:
        return ThunkV(body, sources[0])
    return ThunkV(body, Captures(*sources))


def promote(v: Value) -> Value:
    """Integer to complex conversion: n becomes (Re: n, Im: 0). Any other
    value is returned unchanged."""
    return ComplexV(v, 0) if type(v) is int else v


# the most bits an integer product may have: 80 times the 12 985 bits of
# 3^(2^13), the largest integer a workload makes, and few enough that the
# product takes milliseconds. A sum grows by one bit, so it is unbounded.
MAX_PRODUCT_BITS = 1 << 20


def int_mul(a: int, b: int) -> int:
    """The integer product, which every product of integers goes through;
    one past ``MAX_PRODUCT_BITS`` is an error, raised before it is made."""
    if a.bit_length() + b.bit_length() > MAX_PRODUCT_BITS:
        raise EvalError(f"integer product exceeds {MAX_PRODUCT_BITS} bits")
    return a * b


def complex_mul(a: ComplexV, b: ComplexV) -> ComplexV:
    return ComplexV(int_mul(a.re, b.re) - int_mul(a.im, b.im),
                    int_mul(a.re, b.im) + int_mul(a.im, b.re))


# the integer kernel of each infix operator
INT_INFIX = {"+": operator.add, "-": operator.sub, "*": int_mul}


def int_arith(op: str, args: list[int]) -> Optional[int]:
    """``op`` on integer operands: prefix on one, infix on two."""
    if len(args) == 1:
        return -args[0] if op == "-" else None
    kernel = INT_INFIX.get(op)
    return kernel(args[0], args[1]) if kernel else None


def arith(op: str, args: list[Value]) -> Optional[Value]:
    """Concrete Gaussian-integer arithmetic, prefix on one operand and
    infix on two. Integers stay integers among themselves and promote when
    they meet a complex value; ``fail`` is absorbing. None when no operand
    combination or operator applies."""
    if all(type(a) is int for a in args):
        return int_arith(op, args)
    if not all(type(a) is int or isinstance(a, ComplexV) for a in args):
        return FAIL if any(a is FAIL for a in args) else None
    cx = [promote(a) for a in args]
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

