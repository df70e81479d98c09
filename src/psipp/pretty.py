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
from .ast import (INFIX_LEVELS, LEVEL_ADD, LEVEL_ATOM, LEVEL_EQ, LEVEL_MUL,
                  LEVEL_PREFIX)
from .errors import EvalError
from .monomials import format_monomial
from .values import ComplexV, FreeVarV, RegisterV, ThunkV, Value

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
    if type(v) is int:
        return _int_text(v), LEVEL_ATOM if v >= 0 else LEVEL_PREFIX
    if isinstance(v, ComplexV):
        return _complex_text(v.re, v.im)
    if isinstance(v, RegisterV):
        text = format_monomial(v.register)
        return text, LEVEL_ATOM if " " not in text else LEVEL_MUL
    if isinstance(v, FreeVarV):
        return v.name, LEVEL_ATOM
    # FAIL: render_value renders a thunk, and a value leaf holds none
    return "fail", LEVEL_ATOM


_SCALARS = (int, ComplexV)
_LAYOUT = object()  # on the stack above an Infix whose operands are done
_COMPOSE = object()  # the same for any other node with operands


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
        text, level = texts[0]
        if level < LEVEL_PREFIX:
            return f"-({text})", LEVEL_PREFIX
        return f"-{text}", LEVEL_PREFIX
    (lhs, lhs_level), (rhs, rhs_level) = texts
    level = INFIX_LEVELS[e.op]
    if level == LEVEL_MUL:
        # display convention: central scalar coefficients (integers,
        # complex constants) print first, as in -1 + i*x; the tree
        # itself keeps true factor order. Only value leaves are scalars:
        # source trees never contain them, so parsed expressions always
        # round-trip unchanged
        first, second = kids
        if (isinstance(second, ast.ValueLeaf)
                and type(second.value) in _SCALARS
                and not (isinstance(first, ast.ValueLeaf)
                         and type(first.value) in _SCALARS)):
            lhs, lhs_level, rhs, rhs_level = rhs, rhs_level, lhs, lhs_level
        sep = " * " if spaced else "*"
    else:
        sep = f" {e.op} "
    # every operator takes a right operand of a tighter level; + - * take
    # a left operand of their own level (they associate to the left), and
    # = does not associate
    if lhs_level < level or lhs_level == level == LEVEL_EQ:
        lhs = f"({lhs})"
    if rhs_level <= level:
        rhs = f"({rhs})"
    return f"{lhs}{sep}{rhs}", level


def _compose(e: ast.Expr, texts: Sequence[tuple[str, int]],
             spaced: bool) -> tuple[str, int]:
    """Text and level of a node other than an ``Infix`` or an ``Ident``,
    whose operands' texts and levels are ``texts`` (none for a leaf)."""
    if isinstance(e, ast.ValueLeaf):
        return _value_text(e.value)
    if isinstance(e, ast.IntLit):
        return _int_text(e.value), LEVEL_ATOM
    if isinstance(e, ast.FailLit):
        return "fail", LEVEL_ATOM
    if isinstance(e, ast.Prefix):
        return layout(e, (e.operand,), texts, spaced)
    if isinstance(e, ast.Call):
        return f"{e.name}({', '.join(text for text, _ in texts)})", LEVEL_ATOM
    if isinstance(e, ast.FieldAccess):
        obj, level = texts[0]
        if level < LEVEL_ATOM:
            return f"({obj}).{e.field}", LEVEL_ATOM
        return f"{obj}.{e.field}", LEVEL_ATOM
    if isinstance(e, ast.InheritedCall):
        return f"{e.ancestor}.({texts[0][0]})", LEVEL_ATOM
    return f"({texts[0][0]}, {texts[1][0]})", LEVEL_ATOM  # PairLit


def expr_text(e: ast.Expr, spaced: bool,
              memo: Optional[dict] = None) -> tuple[str, int]:
    """Text and precedence level of ``e``. ``memo`` maps ``id(node)`` to
    ``(node, text, level)`` for the nodes rendered before in this style:
    a text does not depend on the parent, and holding the node keeps its
    id from being reused while the entry lives.

    One post-order walk on an explicit stack, so any depth renders. A node
    with operands is pushed below a marker and its operands; when the
    marker comes back up, the operands' texts are the last on ``texts``."""
    if memo is not None and id(e) in memo:
        return memo[id(e)][1:]
    texts: list[tuple[str, int]] = []
    stack: list = [e]
    while stack:
        node = stack.pop()
        if node is _LAYOUT:
            node = stack.pop()
            rhs = texts.pop()
            texts[-1] = layout(node, (node.lhs, node.rhs), (texts[-1], rhs),
                               spaced)
        elif memo is not None and id(node) in memo:
            texts.append(memo[id(node)][1:])
            continue
        elif type(node) is ast.Infix:  # the most common node
            stack += (node, _LAYOUT, node.rhs, node.lhs)
            continue
        elif type(node) is ast.Ident:
            texts.append((node.name, LEVEL_ATOM))
        elif node is _COMPOSE:
            node = stack.pop()
            count = len(ast.operands(node))
            kids = texts[-count:]
            del texts[-count:]
            texts.append(_compose(node, kids, spaced))
        else:
            kids = ast.operands(node)
            if kids:
                stack += (node, _COMPOSE, *reversed(kids))
                continue
            texts.append(_compose(node, (), spaced))
        if memo is not None:
            memo[id(node)] = (node, *texts[-1])
    return texts[0]


def render_value(v: Value, spaced: bool = False) -> str:
    if isinstance(v, ThunkV):
        return expr_text(v.body, spaced)[0]
    return _value_text(v)[0]


def render_expr(e: ast.Expr, spaced: bool = False) -> str:
    return expr_text(e, spaced)[0]


def show_tree(v: Value) -> str:
    """Indented tree view of a thunk (or plain rendering of a value)."""
    if not isinstance(v, ThunkV):
        return render_value(v)
    lines: list[str] = []
    pending = [(v.body, 0)]
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
