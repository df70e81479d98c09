"""Rendering of values and expression trees.

The default style prints sums spaced and products tight (``-1 + i*x``);
trace mode spaces every operator, matching the typography of rewrite
chains (``i * i + i * x``). Parentheses are minimal under the surface
precedence of ``ast.INFIX_LEVELS``, the table the parser reads: prefix
minus tightest, then ``*``, then ``+``/``-``, then ``=``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import ast
from .ast import INFIX_LEVELS, LEVEL_ADD, LEVEL_ATOM, LEVEL_MUL, LEVEL_PREFIX
from .errors import EvalError
from .monomials import format_monomial
from .values import ComplexV, FreeVarV, IntegerV, RegisterV, ThunkV, Value

def _int_text(n: int) -> str:
    """Decimal text of an integer. Python refuses to convert an integer of
    more digits than its limit (4300 by default); that stays a runtime
    error, which the caller gives a span."""
    try:
        return str(n)
    except ValueError:
        raise EvalError("integer has too many digits to print") from None


def _complex_text(re: int, im: int) -> tuple[str, int]:
    if im == 0:
        return _int_text(re), LEVEL_ATOM if re >= 0 else LEVEL_PREFIX
    if re == 0:
        if im == 1:
            return "i", LEVEL_ATOM
        if im == -1:
            return "-i", LEVEL_PREFIX
        return f"{_int_text(im)}*i", LEVEL_MUL
    sign = "+" if im >= 0 else "-"
    mag = abs(im)
    tail = "i" if mag == 1 else f"{_int_text(mag)}*i"
    return f"{_int_text(re)} {sign} {tail}", LEVEL_ADD


def _value_text(v: Value) -> tuple[str, int]:
    if isinstance(v, IntegerV):
        return _int_text(v.n), LEVEL_ATOM if v.n >= 0 else LEVEL_PREFIX
    if isinstance(v, ComplexV):
        return _complex_text(v.re, v.im)
    if isinstance(v, RegisterV):
        text = format_monomial(v.register)
        return text, LEVEL_ATOM if " " not in text else LEVEL_MUL
    if isinstance(v, FreeVarV):
        return v.name, LEVEL_ATOM
    # FAIL: render_value renders a thunk, and a value leaf holds none
    return "fail", LEVEL_ATOM


def _is_scalar_leaf(e: ast.Expr) -> bool:
    # ValueLeaf only: source trees never contain value leaves, so parsed
    # expressions always round-trip unchanged
    return isinstance(e, ast.ValueLeaf) and isinstance(e.value,
                                                       (IntegerV, ComplexV))


def _wrap(child: tuple[str, int], min_level: int) -> str:
    text, level = child
    return f"({text})" if level < min_level else text


def operator_level(e: ast.Expr) -> int:
    """Precedence level of the text of an ``Infix`` or ``Prefix`` node,
    which its operands do not change."""
    if isinstance(e, ast.Prefix):
        return LEVEL_PREFIX
    return INFIX_LEVELS[e.op]


def layout(e: ast.Expr, kids: Sequence[ast.Expr],
           texts: Sequence[tuple[str, int]], spaced: bool) -> tuple[str, int]:
    """Text and level of the ``Infix`` or ``Prefix`` node ``e`` applied to
    ``kids``, whose texts and levels are ``texts``. The one home of the
    parenthesis and scalar-first rules: a rendering passes ``e``'s own
    operands, a trace splice the operands as they stand after a rewrite
    below ``e``."""
    if not isinstance(e, ast.Infix):
        return f"-{_wrap(texts[0], LEVEL_PREFIX)}", LEVEL_PREFIX
    lhs, rhs = texts
    level = INFIX_LEVELS[e.op]
    if level == LEVEL_MUL:
        # display convention: central scalar coefficients (integers,
        # complex constants) print first, as in -1 + i*x; the tree
        # itself keeps true factor order
        if _is_scalar_leaf(kids[1]) and not _is_scalar_leaf(kids[0]):
            lhs, rhs = rhs, lhs
        sep = " * " if spaced else "*"
        return f"{_wrap(lhs, level)}{sep}{_wrap(rhs, level + 1)}", level
    # + and - associate to the left; = does not associate
    left_min = level if level == LEVEL_ADD else level + 1
    return f"{_wrap(lhs, left_min)} {e.op} {_wrap(rhs, level + 1)}", level


def expr_text(e: ast.Expr, spaced: bool,
              memo: Optional[dict] = None) -> tuple[str, int]:
    """Text and precedence level of ``e``. ``memo`` maps ``id(node)`` to
    ``(node, text, level)`` for the nodes rendered before in this style:
    a text does not depend on the parent, and holding the node keeps its
    id from being reused while the entry lives."""
    if memo is None:
        return _node_text(e, spaced, None)
    if id(e) not in memo:
        memo[id(e)] = (e, *_node_text(e, spaced, memo))
    return memo[id(e)][1:]


def _node_text(e: ast.Expr, spaced: bool,
               memo: Optional[dict]) -> tuple[str, int]:
    if isinstance(e, ast.Infix):  # first: the most common node
        lhs = expr_text(e.lhs, spaced, memo)
        rhs = expr_text(e.rhs, spaced, memo)
        return layout(e, (e.lhs, e.rhs), (lhs, rhs), spaced)
    if isinstance(e, ast.ValueLeaf):
        return _value_text(e.value)
    if isinstance(e, ast.IntLit):
        return _int_text(e.value), LEVEL_ATOM
    if isinstance(e, ast.Ident):
        return e.name, LEVEL_ATOM
    if isinstance(e, ast.FailLit):
        return "fail", LEVEL_ATOM
    if isinstance(e, ast.Prefix):
        return layout(e, (e.operand,), (expr_text(e.operand, spaced, memo),),
                      spaced)
    if isinstance(e, ast.Call):
        args = ", ".join(expr_text(a, spaced, memo)[0] for a in e.args)
        return f"{e.name}({args})", LEVEL_ATOM
    if isinstance(e, ast.FieldAccess):
        obj = _wrap(expr_text(e.obj, spaced, memo), LEVEL_ATOM)
        return f"{obj}.{e.field}", LEVEL_ATOM
    if isinstance(e, ast.InheritedCall):
        inner = expr_text(e.expr, spaced, memo)[0]
        return f"{e.ancestor}.({inner})", LEVEL_ATOM
    first = expr_text(e.first, spaced, memo)[0]  # PairLit
    second = expr_text(e.second, spaced, memo)[0]
    return f"({first}, {second})", LEVEL_ATOM


def render_value(v: Value, spaced: bool = False) -> str:
    if isinstance(v, ThunkV):
        return expr_text(v.fo.body, spaced)[0]
    return _value_text(v)[0]


def render_expr(e: ast.Expr, spaced: bool = False) -> str:
    return expr_text(e, spaced)[0]


def show_tree(v: Value) -> str:
    """Indented tree view of a thunk (or plain rendering of a value)."""
    if not isinstance(v, ThunkV):
        return render_value(v)
    lines: list[str] = []
    pending = [(v.fo.body, 0)]
    while pending:
        e, depth = pending.pop()
        pad = "  " * depth
        if isinstance(e, (ast.Infix, ast.Prefix, ast.Call)):
            lines.append(pad + (e.name if isinstance(e, ast.Call) else e.op))
            pending.extend((operand, depth + 1)
                           for operand in reversed(ast.operands(e)))
        else:
            lines.append(f"{pad}{render_expr(e)}")
    return "\n".join(lines)
