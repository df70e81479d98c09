"""Rendering of values and expression trees.

The default style prints sums spaced and products tight (``-1 + i*x``);
trace mode spaces every operator, matching the typography of rewrite
chains (``i * i + i * x``). Parentheses are minimal under the surface
precedence: prefix minus tightest, then ``*``, then ``+``/``-``, then
``=``.
"""

from __future__ import annotations

from . import ast
from .monomials import format_monomial
from .values import (FAIL, ComplexV, FreeVarV, IntegerV, RegisterV, ThunkV,
                     Value)

_LEVEL_EQ = 0
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_PREFIX = 3
_LEVEL_ATOM = 4


def _complex_text(re: int, im: int) -> tuple[str, int]:
    if im == 0:
        return str(re), _LEVEL_ATOM if re >= 0 else _LEVEL_PREFIX
    if re == 0:
        if im == 1:
            return "i", _LEVEL_ATOM
        if im == -1:
            return "-i", _LEVEL_PREFIX
        return f"{im}*i", _LEVEL_MUL
    sign = "+" if im >= 0 else "-"
    mag = abs(im)
    tail = "i" if mag == 1 else f"{mag}*i"
    return f"{re} {sign} {tail}", _LEVEL_ADD


def _value_text(v: Value) -> tuple[str, int]:
    if isinstance(v, IntegerV):
        return str(v.n), _LEVEL_ATOM if v.n >= 0 else _LEVEL_PREFIX
    if isinstance(v, ComplexV):
        return _complex_text(v.re, v.im)
    if isinstance(v, RegisterV):
        text = format_monomial(v.register)
        return text, _LEVEL_ATOM if " " not in text else _LEVEL_MUL
    if isinstance(v, FreeVarV):
        return v.name, _LEVEL_ATOM
    if v is FAIL:
        return "fail", _LEVEL_ATOM
    if isinstance(v, ThunkV):
        return _expr_text(v.fo.body, spaced=False)
    return repr(v), _LEVEL_ATOM


def _is_scalar_leaf(e: ast.Expr) -> bool:
    # ValueLeaf only: source trees never contain value leaves, so parsed
    # expressions always round-trip unchanged
    return isinstance(e, ast.ValueLeaf) and isinstance(e.value,
                                                       (IntegerV, ComplexV))


def _wrap(child: tuple[str, int], min_level: int) -> str:
    text, level = child
    return f"({text})" if level < min_level else text


def _expr_text(e: ast.Expr, spaced: bool) -> tuple[str, int]:
    if isinstance(e, ast.ValueLeaf):
        return _value_text(e.value)
    if isinstance(e, ast.IntLit):
        return str(e.value), _LEVEL_ATOM
    if isinstance(e, ast.Ident):
        return e.name, _LEVEL_ATOM
    if isinstance(e, ast.FailLit):
        return "fail", _LEVEL_ATOM
    if isinstance(e, ast.Prefix):
        inner = _wrap(_expr_text(e.operand, spaced), _LEVEL_PREFIX)
        return f"-{inner}", _LEVEL_PREFIX
    if isinstance(e, ast.Infix):
        if e.op == "*":
            left, right = e.lhs, e.rhs
            # display convention: central scalar coefficients (integers,
            # complex constants) print first, as in -1 + i*x; the tree
            # itself keeps true factor order
            if _is_scalar_leaf(right) and not _is_scalar_leaf(left):
                left, right = right, left
            lhs = _wrap(_expr_text(left, spaced), _LEVEL_MUL)
            rhs = _wrap(_expr_text(right, spaced), _LEVEL_MUL + 1)
            sep = " * " if spaced else "*"
            return f"{lhs}{sep}{rhs}", _LEVEL_MUL
        if e.op in {"+", "-"}:
            lhs = _wrap(_expr_text(e.lhs, spaced), _LEVEL_ADD)
            rhs = _wrap(_expr_text(e.rhs, spaced), _LEVEL_ADD + 1)
            return f"{lhs} {e.op} {rhs}", _LEVEL_ADD
        lhs = _wrap(_expr_text(e.lhs, spaced), _LEVEL_EQ + 1)
        rhs = _wrap(_expr_text(e.rhs, spaced), _LEVEL_EQ + 1)
        return f"{lhs} = {rhs}", _LEVEL_EQ
    if isinstance(e, ast.Call):
        args = ", ".join(_expr_text(a, spaced)[0] for a in e.args)
        return f"{e.name}({args})", _LEVEL_ATOM
    if isinstance(e, ast.FieldAccess):
        obj = _wrap(_expr_text(e.obj, spaced), _LEVEL_ATOM)
        return f"{obj}.{e.field}", _LEVEL_ATOM
    if isinstance(e, ast.InheritedCall):
        inner = _expr_text(e.expr, spaced)[0]
        return f"{e.ancestor}.({inner})", _LEVEL_ATOM
    if isinstance(e, ast.PairLit):
        first = _expr_text(e.first, spaced)[0]
        second = _expr_text(e.second, spaced)[0]
        return f"({first}, {second})", _LEVEL_ATOM
    return repr(e), _LEVEL_ATOM


def render_value(v: Value, spaced: bool = False) -> str:
    if isinstance(v, ThunkV):
        return _expr_text(v.fo.body, spaced)[0]
    return _value_text(v)[0]


def render_expr(e: ast.Expr, spaced: bool = False) -> str:
    return _expr_text(e, spaced)[0]


def show_tree(v: Value) -> str:
    """Indented tree view of a thunk (or plain rendering of a value)."""
    lines: list[str] = []

    def walk(e: ast.Expr, depth: int):
        pad = "  " * depth
        if isinstance(e, ast.Infix):
            lines.append(f"{pad}{e.op}")
            walk(e.lhs, depth + 1)
            walk(e.rhs, depth + 1)
        elif isinstance(e, ast.Prefix):
            lines.append(f"{pad}-")
            walk(e.operand, depth + 1)
        elif isinstance(e, ast.Call):
            lines.append(f"{pad}{e.name}")
            for arg in e.args:
                walk(arg, depth + 1)
        else:
            lines.append(f"{pad}{render_expr(e)}")

    if isinstance(v, ThunkV):
        walk(v.fo.body, 0)
    else:
        lines.append(render_value(v))
    return "\n".join(lines)
