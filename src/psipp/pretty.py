"""Rendering of values and expression trees.

The default style prints sums spaced and products tight (``-1 + i*x``);
trace mode spaces every operator, matching the typography of rewrite
chains (``i * i + i * x``). Parentheses are minimal under the surface
precedence of ``ast.INFIX_LEVELS``, the table the parser reads: prefix
minus tightest, then ``*``, then ``+``/``-``, then ``=``.

The parenthesis rule is ``_parenthesised``, made once into two tables
indexed by an operator's level and its operand's; the scalar-first rule is
``_scalar_first``; ``head`` gives a node's level, and a leaf's text. The
emitter reads them to print (``render_value``, ``render_expr``): it
writes pieces in pre-order into one list, joined a chunk at a time,
going down each ``Infix`` node's left spine and back up, and writes a
leaf or an ``Infix`` of two names in place, so a normal form's left-deep
sums of products take a few steps a product. A trace step reads them
through ``layout``, which lays out an operator's application from its
operands' texts before the rewriter makes it a node, if it does, and
``extent``, its twin from lengths; both take the operator, not a node.
A distribution's sum and its two products are laid out in one call, by
``layout_distribution``, from the four factors' texts. ``expr_text``
renders the input of a trace whole.
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
_CHUNK = 128  # pieces an emitter joins into one chunk


def _parenthesised(level: int, operand_level: int, right: bool) -> bool:
    """Whether an operand of ``operand_level`` prints in parentheses on
    the ``right`` (or left) of an operator of ``level``. Every operator
    takes a right operand of a tighter level; + - * take a left operand of
    their own level (they associate to the left), and = does not
    associate. Prefix minus and a field access read the left rule, at
    their own levels: ``--x``, ``(x + y).f``."""
    if right:
        return operand_level <= level
    return operand_level < level or operand_level == level == LEVEL_EQ


# [level][operand_level]: the parenthesis rule, made once
_LEVELS = range(LEVEL_ATOM + 1)
_LEFT_PARENS = tuple(tuple(_parenthesised(level, operand, False)
                          for operand in _LEVELS) for level in _LEVELS)
_RIGHT_PARENS = tuple(tuple(_parenthesised(level, operand, True)
                           for operand in _LEVELS) for level in _LEVELS)
_NO_PARENS = (False,) * len(_LEVELS)  # the row of a root
# the operator between an Infix node's operands, by op, unspaced and spaced
_SEPARATORS = ({op: "*" if op == "*" else f" {op} " for op in INFIX_LEVELS},
               {op: f" {op} " for op in INFIX_LEVELS})


def _scalar_first(first: ast.Expr, second: ast.Expr) -> bool:
    """Whether the product ``first * second`` prints its factors swapped.
    Display convention: central scalar coefficients (integers, complex
    constants) print first, as in -1 + i*x; the tree itself keeps true
    factor order. Only value leaves are scalars: source trees never
    contain them, so parsed expressions always round-trip unchanged."""
    return (type(second) is ast.ValueLeaf and type(second.value) in _SCALARS
            and not (type(first) is ast.ValueLeaf
                     and type(first.value) in _SCALARS))


def head(e: ast.Expr) -> tuple[Optional[str], int]:
    """The whole text of the leaf ``e`` (None for a node with operands) and
    the precedence level of ``e``'s text, which operands do not change."""
    kind = type(e)
    if kind is ast.Infix:
        return None, INFIX_LEVELS[e.op]
    if kind is ast.Ident:
        return e.name, LEVEL_ATOM
    if kind is ast.ValueLeaf:
        return _value_text(e.value)
    if kind is ast.IntLit:
        return _int_text(e.value), LEVEL_ATOM
    if kind is ast.FailLit:
        return "fail", LEVEL_ATOM
    if kind is ast.Prefix:
        return None, LEVEL_PREFIX
    return None, LEVEL_ATOM  # Call, FieldAccess, InheritedCall, PairLit


def layout(op: str, kids: Sequence, texts: Sequence[Sequence]
           ) -> tuple[str, int, int, int]:
    """Spaced text and level of the infix application of ``op`` to
    ``kids``, whose texts and levels lead the entries of ``texts``, then
    where the kids' texts start in it. A kid need not be a node: only a
    value leaf is a scalar."""
    one, two = texts
    level = INFIX_LEVELS[op]
    swapped = level == LEVEL_MUL and _scalar_first(*kids)
    if swapped:
        one, two = two, one
    left, right = _LEFT_PARENS[level][one[1]], _RIGHT_PARENS[level][two[1]]
    lhs = f"({one[0]})" if left else one[0]
    rhs = f"({two[0]})" if right else two[0]
    text = f"{lhs}{_SEPARATORS[True][op]}{rhs}"
    at = len(text) - len(rhs) + right
    return (text, level, at, left) if swapped else (text, level, left, at)


# the rows of a product's factors, and where a sum of two products puts
# them in parentheses: nowhere, as a product binds tighter, but the
# parenthesis rule says so, not this function
_FACTOR_PARENS = _LEFT_PARENS[LEVEL_MUL], _RIGHT_PARENS[LEVEL_MUL]
_SUMMAND_PARENS = (_LEFT_PARENS[LEVEL_ADD][LEVEL_MUL],
                   _RIGHT_PARENS[LEVEL_ADD][LEVEL_MUL])
_TIMES, _PLUS = _SEPARATORS[True]["*"], _SEPARATORS[True]["+"]


def layout_distribution(split: Sequence, a: str, a_entry: Sequence,
                        b: str, b_entry: Sequence, c: str, c_entry: Sequence,
                        d: str, d_entry: Sequence) -> tuple[str, list]:
    """The three nodes of a distribution laid out in one call: the spaced
    text of the sum ``A * B + C * D`` of the products of ``split``'s
    factor pairs ``(A, B)`` and ``(C, D)``, from the factors' texts ``a``
    to ``d`` and their entries, whose first two items are length and
    level; then the sum's entry ``[length, level, P, Q, offsets]``, where
    each product's entry ``P`` and ``Q`` is ``[length, level, its factors'
    entries, their offsets]`` and the offsets say where each operand's
    text starts in its parent's. The rules are ``layout``'s."""
    left, right = _FACTOR_PARENS
    (first, second), (third, fourth) = split
    # only a value leaf on the right swaps: testing it here saves a call
    # for almost every product
    p_swapped = (type(second) is ast.ValueLeaf
                 and _scalar_first(first, second))
    if p_swapped:
        a, a_entry, b, b_entry = b, b_entry, a, a_entry
    q_swapped = (type(fourth) is ast.ValueLeaf
                 and _scalar_first(third, fourth))
    if q_swapped:
        c, c_entry, d, d_entry = d, d_entry, c, c_entry
    a_left, b_right = left[a_entry[1]], right[b_entry[1]]
    c_left, d_right = left[c_entry[1]], right[d_entry[1]]
    p = (f"({a})" if a_left else a) + _TIMES + (f"({b})" if b_right else b)
    q = (f"({c})" if c_left else c) + _TIMES + (f"({d})" if d_right else d)
    p_length, q_length = len(p), len(q)
    b_at = p_length - b_entry[0] - b_right
    d_at = q_length - d_entry[0] - d_right
    p_entry = [p_length, LEVEL_MUL, b_entry, a_entry, b_at, a_left] \
        if p_swapped else [p_length, LEVEL_MUL, a_entry, b_entry, a_left, b_at]
    q_entry = [q_length, LEVEL_MUL, d_entry, c_entry, d_at, c_left] \
        if q_swapped else [q_length, LEVEL_MUL, c_entry, d_entry, c_left, d_at]
    p_left, q_right = _SUMMAND_PARENS
    text = (f"({p})" if p_left else p) + _PLUS + (f"({q})" if q_right else q)
    length = len(text)
    return text, [length, LEVEL_ADD, p_entry, q_entry, p_left,
                  length - q_length - q_right]


def extent(op: str, kids: Sequence, sizes: Sequence[Sequence]
           ) -> tuple[int, ...]:
    """``layout``'s twin from lengths, for the application of ``op`` to
    ``kids``, prefix on one and infix on two: the length and level of its
    spaced text, then where the kids' texts start in it."""
    if len(kids) == 1:  # -x or -(x)
        at = 1 + _LEFT_PARENS[LEVEL_PREFIX][sizes[0][1]]
        return sizes[0][0] + 2 * at - 1, LEVEL_PREFIX, at
    one, two = sizes
    level = INFIX_LEVELS[op]
    swapped = level == LEVEL_MUL and _scalar_first(*kids)
    if swapped:
        one, two = two, one
    left, right = _LEFT_PARENS[level][one[1]], _RIGHT_PARENS[level][two[1]]
    at = one[0] + 2 * left + len(_SEPARATORS[True][op]) + right
    length = at + two[0] + right
    return (length, level, at, left) if swapped else (length, level, left, at)


def _spread(e: ast.Expr) -> tuple:
    """The pieces of text and the operands of a node with operands other
    than an ``Infix``, left to right; an operand that needs them comes
    between parentheses."""
    kind = type(e)
    if kind is ast.Prefix:
        return ("-", *_wrapped(e.operand, LEVEL_PREFIX))
    if kind is ast.FieldAccess:
        return (*_wrapped(e.obj, LEVEL_ATOM), f".{e.field}")
    if kind is ast.Call:
        args = [piece for arg in e.args for piece in (", ", arg)][1:]
        return (f"{e.name}(", *args, ")")
    if kind is ast.InheritedCall:
        return (f"{e.ancestor}.(", e.expr, ")")
    return ("(", e.first, ", ", e.second, ")")  # PairLit


def _wrapped(operand: ast.Expr, level: int) -> tuple:
    """``operand`` as the left operand of a node of ``level``."""
    if _LEFT_PARENS[level][head(operand)[1]]:
        return "(", operand, ")"
    return (operand,)


def expr_text(e: ast.Expr, spaced: bool) -> tuple[str, int]:
    """Text and precedence level of ``e``, rendered whole."""
    return _emit(e, spaced), head(e)[1]


def _emit(e: ast.Expr, spaced: bool) -> str:
    """Text of ``e``, written in pre-order in one loop that goes down the
    left spine of each ``Infix`` node and back up, so any depth renders.
    Going down, a node that keeps its factor order goes on ``spine`` and
    its left operand is written next; a product whose scalar prints first
    writes the scalar and its separator, and its left operand comes next,
    on its right. Going up, each node popped off ``spine`` writes its
    separator, and its right operand is written next. An operand is
    parenthesised by its parent's row of the parenthesis table: an
    ``Infix`` one leaves its closing parenthesis on ``spine``. A leaf, or
    an ``Infix`` of two names, is written in place. Any other operand goes
    on ``stack`` as its pieces, above what is left of the spine, which
    resumes once they are written; only pointers wait, never a string per
    node. Pieces are joined into a chunk every ``_CHUNK`` or so, which
    keeps the list from costing a pointer for every few characters of
    text."""
    separators = _SEPARATORS[spaced]
    chunks: list[str] = []
    pieces: list[str] = []
    put = pieces.append
    stack: list = [e]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        kind = type(item)
        if kind is str:
            put(item)
            continue
        if kind is list:  # a spine that an operand interrupted
            spine, operand = item, None
        else:
            spine, operand, parens = [], item, _NO_PARENS
        while True:
            kind = type(operand)
            if kind is ast.Infix:  # the most common node
                lhs, rhs, op = operand.lhs, operand.rhs, operand.op
                level = INFIX_LEVELS[op]
                if type(lhs) is ast.Ident and type(rhs) is ast.Ident:
                    if parens[level]:
                        pieces += ("(", lhs.name, separators[op], rhs.name,
                                   ")")
                    else:
                        pieces += (lhs.name, separators[op], rhs.name)
                else:
                    if parens[level]:
                        put("(")
                        spine.append(")")
                    # only a value leaf on the right swaps: testing it
                    # here saves a call for almost every product
                    if (level == LEVEL_MUL and type(rhs) is ast.ValueLeaf
                            and _scalar_first(lhs, rhs)):
                        # the scalar prints first, and the left operand
                        # on its right
                        text, text_level = head(rhs)
                        put(f"({text})" if _LEFT_PARENS[level][text_level]
                            else text)
                        put(separators[op])
                        operand, parens = lhs, _RIGHT_PARENS[level]
                    else:
                        spine.append(operand)
                        operand, parens = lhs, _LEFT_PARENS[level]
                    continue
            elif kind is ast.Ident:
                put(operand.name)
            elif operand is not None:  # None: a spine resumes
                text, level = head(operand)
                if text is not None:
                    put(f"({text})" if parens[level] else text)
                else:
                    if parens[level]:
                        put("(")
                        spine.append(")")
                    if spine:
                        push(spine)
                    stack += reversed(_spread(operand))
                    break
            # up the spine to the next node with a right operand
            if len(pieces) >= _CHUNK:
                chunks.append("".join(pieces))
                pieces.clear()
            if not spine:
                break
            node = spine.pop()
            if type(node) is str:  # a closing parenthesis
                put(node)
                operand = None
                continue
            op = node.op
            put(separators[op])
            operand, parens = node.rhs, _RIGHT_PARENS[INFIX_LEVELS[op]]
    chunks.append("".join(pieces))
    del pieces[:]  # frees the list before the text is made
    return "".join(chunks)


def render_value(v: Value, spaced: bool = False) -> str:
    if isinstance(v, ThunkV):
        return _emit(v.body, spaced)
    return _value_text(v)[0]


def render_expr(e: ast.Expr, spaced: bool = False) -> str:
    return _emit(e, spaced)


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
