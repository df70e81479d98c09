"""Syntax tree node definitions.

Declarations, statements, and expressions are families of slotted
dataclasses, immutable by convention, as ``tests/test_immutability.py``
checks; a call is both an expression and a statement. ``ValueLeaf`` is
runtime-only: the evaluator splices already computed values into thunk
bodies, so expression trees must carry them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

# a source position: an offset into the source text
Span = int

# Precedence levels of the surface syntax, loosest first, read by both the
# parser and ``pretty._parenthesised``. An infix operator of level L takes
# a right operand of level L + 1, so ``+``, ``-`` and ``*`` associate to the
# left; ``=`` takes a left operand of level L + 1 too, so it does not
# associate.
LEVEL_EQ = 0
LEVEL_ADD = 1
LEVEL_MUL = 2
LEVEL_PREFIX = 3  # prefix minus and its operand
LEVEL_ATOM = 4
INFIX_LEVELS = {"=": LEVEL_EQ, "+": LEVEL_ADD, "-": LEVEL_ADD, "*": LEVEL_MUL}
# an operator application's fixity, fixed by its number of operands
FIXITY = {1: "prefix", 2: "infix"}


class Node:
    __slots__ = ()


# --- expressions ---

class Expr(Node):
    __slots__ = ()


@dataclass(unsafe_hash=True, slots=True)
class IntLit(Expr):
    value: int
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class Ident(Expr):
    name: str
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class FailLit(Expr):
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class Infix(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class Prefix(Expr):
    op: str
    operand: Expr
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class FieldAccess(Expr):
    obj: Expr
    field: str
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class InheritedCall(Expr):
    """``Ancestor.(A * B)``: resolve the operator starting at the ancestor."""
    ancestor: str
    expr: Expr
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class PairLit(Expr):
    """``(re, im)``: componentwise complex constructor literal."""
    first: Expr
    second: Expr
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class ValueLeaf(Expr):
    """Runtime-only leaf holding an already computed value."""
    value: object
    span: Optional[Span] = None


def operands(e: Expr) -> tuple[Expr, ...]:
    """The operand subtrees of ``e``, left to right; a leaf has none."""
    if isinstance(e, Infix):
        return e.lhs, e.rhs
    if isinstance(e, Prefix):
        return (e.operand,)
    if isinstance(e, InheritedCall):
        return (e.expr,)
    if isinstance(e, Call):
        return e.args
    if isinstance(e, FieldAccess):
        return (e.obj,)
    if isinstance(e, PairLit):
        return e.first, e.second
    return ()


# --- statements ---

class Stmt(Node):
    __slots__ = ()


@dataclass(unsafe_hash=True, slots=True)
class Assign(Stmt):
    target: str  # identifier or "Return"
    expr: Expr
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt] = None
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class Call(Expr, Stmt):
    """``f(args)``: an expression, or on its own a statement."""
    name: str
    args: tuple[Expr, ...]
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class Compound(Stmt):
    body: tuple[Stmt, ...]
    span: Optional[Span] = None


# --- declarations ---

class Decl(Node):
    __slots__ = ()


@dataclass(unsafe_hash=True, slots=True)
class VarBlock(Decl):
    decls: tuple[tuple[str, str], ...]  # (name, type-name)
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class FunctionDecl(Decl):
    symbol: str            # operator symbol or function name
    fixity: str            # "infix" | "prefix" | "ordinary"
    owner: Optional[str]   # owner type for qualified definitions
    params: tuple[tuple[str, str], ...]
    result_type: str
    par_decls: tuple[tuple[str, str], ...] = ()
    body: Optional[Compound] = None  # None for signatures inside object bodies
    span: Optional[Span] = None


@dataclass(unsafe_hash=True, slots=True)
class ObjectDecl(Decl):
    name: str
    ancestor: Optional[str]
    fields: tuple[tuple[str, str], ...] = ()
    method_sigs: tuple[FunctionDecl, ...] = ()
    span: Optional[Span] = None


Item = Union[Decl, Stmt]


@dataclass(unsafe_hash=True, slots=True)
class Program(Node):
    items: tuple[Item, ...] = ()
