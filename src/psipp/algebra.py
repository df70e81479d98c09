"""The Group -> Algebra -> Complex prelude and the rewriting engine.

The prelude ships as source in the surface language and is parsed once,
through the ordinary parser, so the hierarchy and the Complex
multiplication body are genuinely interpreted. Natives implement the
abstract ``Algebra.infix*`` (distributivity, one layer per call), Complex
``+``/``-`` and the monomial register product. Concrete arithmetic is the
one kernel in ``values``, and the rewrite rules are one function,
``_root_rewrite``: a fold, or distributivity as a split of a product over
a sum into two factor pairs, which ``distribute`` also takes.

``simplify`` rewrites to a normal form innermost-leftmost, in one pass
over the term: distribute products over sums, fold all-concrete
applications, promote integers that meet complex values. Factor and
summand order are never changed. It has two walks over the same rules,
and whether a trace sink is given selects one. Untraced, the walk is
big-step: operands are normalised before their root is tried, a
distribution's products are tried as factor pairs before they are made,
and its sum is made after them, so each node of the normal form is made
once. An input node is walked once however often the body shares it: one
found normal is kept, and one rewritten keeps its normal form and its
steps, which count again, against the limit, at each later place. So the
untraced pass takes O(DAG size + steps) time with the steps below a shared
node taken once, not once per place, and the normal form shares a
repeated subterm's normal form. Traced, the walk
is small-step, since each step's term is printed, and it rewrites a
shared subterm that is not normal at each place: O(DAG size + steps)
node visits, plus the printed lines. A step lays out only the
nodes it made, from the texts of their operands that the walk holds, and
splices that text between the texts its frames keep around their operand
slots. A subtree whose text it does not hold is rendered whole when first
asked for. A step costs amortised O(1) frames plus the printed line, and
the text held is O(printed line), but for the operands of a factor that
several products share.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import ast
from .ast import operands, with_operand
from .errors import EvalError, RewriteLimitExceeded
from .evaluator import DEFAULT_REWRITE_LIMIT, Interpreter, as_repr
from .lexer import tokenize
from .monomials import MonomialRegister, register_conjugate, register_mul
from .parser import parse_program
from .pretty import expr_text, head, layout
# complex_mul is not called here: the package and bench/tracer.py read it
from .values import (FAIL, ComplexV, RegisterV, ThunkV, Value, arith,
                     complex_mul, promote, thunk)

PRELUDE_SOURCE = """\
Group = Object;
  function infix +(A, B : Group) : Group;
  function infix -(A, B : Group) : Group;
  function prefix -(A : Group) : Group;
end; { Group }

Algebra = Object(Group);
  function infix *(A, B : Algebra) : Algebra;
end; { Algebra }

Complex = Object(Algebra);
  Re, Im : integer;
end; { Complex }

function Complex.infix* (A, B : Complex) : Complex;
begin
  Return := Algebra.(A * B); { inherited method for algebraic expressions }
  if Return = fail { no: directly perform the multiplication }
  then Return := (A.Re * B.Re - A.Im * B.Im, A.Re * B.Im + A.Im * B.Re)
end;

Monomial = Object(Algebra);
end; { Monomial }
"""

# parsed once, shared by every interpreter; without positions, so that an
# error inside a prelude method is reported at the user's application
PRELUDE = parse_program([(tag, lexeme, None)
                         for tag, lexeme, _ in tokenize(PRELUDE_SOURCE)])


# --- distributivity ---

def _distributed(split: tuple[tuple, tuple]) -> ast.Infix:
    """The sum of the products of a split's two factor pairs."""
    (a, b), (c, d) = split
    return ast.Infix("+", ast.Infix("*", a, b), ast.Infix("*", c, d))


def distribute_expr(lhs: ast.Expr, rhs: ast.Expr) -> Optional[ast.Infix]:
    """One layer of distributivity on trees: (C + D) * B -> C*B + D*B, or
    A * (E + F) -> A*E + A*F; None when neither factor is a sum. Two value
    leaves are no sum, and are not folded."""
    if type(lhs) is ast.ValueLeaf and type(rhs) is ast.ValueLeaf:
        return None
    split = _root_rewrite("*", lhs, rhs)
    return None if split is None else _distributed(split)


def distribute(a: Value, b: Value) -> Value:
    """One layer of distributivity on values, or fail when neither operand
    is a sum-rooted thunk. The factor that is not a sum wins a capture
    clash."""
    if type(a) is not ThunkV and type(b) is not ThunkV:
        return FAIL  # only a thunk can be a sum
    (a_expr, a_caps), (b_expr, b_caps) = as_repr(a), as_repr(b)
    body = distribute_expr(a_expr, b_expr)
    if body is None:
        return FAIL
    a_is_sum = body.lhs.rhs is b_expr  # (C + D) * B -> C*B + ...
    return thunk(body, *((a_caps, b_caps) if a_is_sum else (b_caps, a_caps)))


# --- the rewriter ---

def _fold(op: str, args: list[Value]) -> Optional[Value]:
    """Concrete evaluation of one application, or None if no kernel. The
    register product folds here only: without the prelude, evaluating
    ``mono(..) * mono(..)`` stays a dispatch error."""
    if op == "*" and type(args[0]) is RegisterV \
            and type(args[1]) is RegisterV:
        return RegisterV(register_mul(args[0].register, args[1].register))
    return arith(op, args)


def _concrete_leaf(e: ast.Expr) -> Optional[Value]:
    """The value of a value leaf, which is always concrete, or None."""
    return e.value if isinstance(e, ast.ValueLeaf) else None


def _root_rewrite(op: str, lhs: ast.Expr, rhs: Optional[ast.Expr] = None
                  ) -> Optional[ast.ValueLeaf | tuple[tuple, tuple]]:
    """One rewrite at the root of an application of ``op`` to normal
    operands, ``rhs`` None for a prefix one: fold concrete operands to a
    leaf, else split a product over a sum, one layer of distributivity, into
    two factor pairs: (C + D) * B into (C, B) and (D, B), A * (E + F) into
    (A, E) and (A, F). Factor order is preserved (noncommutative-safe). None
    when the root is no redex. A value leaf is always concrete, and never a
    sum."""
    if type(lhs) is ast.ValueLeaf \
            and (rhs is None or type(rhs) is ast.ValueLeaf):
        folded = _fold(op, [lhs.value] if rhs is None
                       else [lhs.value, rhs.value])
        return None if folded is None else ast.ValueLeaf(folded)
    if op == "*":
        if type(lhs) is ast.Infix and lhs.op == "+":
            return (lhs.lhs, rhs), (lhs.rhs, rhs)
        if type(rhs) is ast.Infix and rhs.op == "+":
            return (lhs, rhs.lhs), (lhs, rhs.rhs)
    return None


_HOLE = "\0"  # marks the operand slot in a layout; no rendered text has it
_REMADE = object()  # a frame's own held text when the walk made its node


def _settled(e: ast.Expr, held: Optional[list]) -> list:
    """``held``, the held text ``[text, level, operand texts]`` of ``e``,
    with its text made: an input subtree with none, or a node the walk
    made again, is rendered whole."""
    if held is None:
        return [*expr_text(e, True), None]
    if held[0] is None:
        held[0] = expr_text(e, True)[0]
    return held


def _operand_texts(e: ast.Infix, held: Optional[list]) -> list:
    """The held texts of the operands of ``e``, whose held text is
    ``held``, with their texts made: those it keeps, else cut out of its
    text where a layout puts a hole in their place (rendering the right one
    first if neither is a leaf), and kept; else rendered whole."""
    if held is None:
        return [_settled(op, None) for op in operands(e)]
    kids = held[2]
    if kids is not None:
        if len(held) > 3:  # a frame, whose operands may have no text yet
            kids[:] = map(_settled, operands(e), kids)
        return kids
    ops = operands(e)
    kids = held[2] = [[*head(op), None] for op in ops]
    if kids[0][0] is None and kids[1][0] is None:
        kids[1] = _settled(e.rhs, None)
    for kid in kids:
        if kid[0] is None:
            kid[0] = _HOLE
            left, _, right = layout(e, ops, kids, True)[0].partition(_HOLE)
            kid[0] = held[0][len(left):len(held[0]) - len(right)]
    return kids


def _laid_out(new: ast.Infix, old: ast.Infix, held: Optional[list]) -> list:
    """The held text of ``new``, the distribution ``C*B + D*B`` or ``A*E +
    A*F`` of ``old``, whose held text is ``held``: the two products and the
    sum are laid out from the factors' held texts."""
    lhs, rhs = _operand_texts(old, held)
    if new.lhs.lhs is old.lhs:  # A * (E + F)
        a = c = lhs
        b, d = _operand_texts(old.rhs, rhs)
    else:  # (C + D) * B
        a, c = _operand_texts(old.lhs, lhs)
        b = d = rhs
    p1, p2 = new.lhs, new.rhs
    first = [*layout(p1, (p1.lhs, p1.rhs), (a, b), True), [a, b]]
    second = [*layout(p2, (p2.lhs, p2.rhs), (c, d), True), [c, d]]
    return [*layout(new, (p1, p2), (first, second), True), [first, second]]


def _context(frame: list, child: ast.Expr, level: int) -> tuple[str, str]:
    """The spaced text left and right of ``child``, of precedence
    ``level``, in the operand slot of ``frame``'s node, laid out with the
    held text of the other operand, as they stand: the scalar-first swap
    and the parentheses follow ``child``."""
    node, texts, slot = frame[3], frame[2], frame[4]
    hole = (_HOLE, level)
    if type(node) is not ast.Infix:
        kids, laid = (child,), (hole,)
    elif slot:
        texts[0] = _settled(node.lhs, texts[0])
        kids, laid = (node.lhs, child), (texts[0], hole)
    else:
        texts[1] = _settled(node.rhs, texts[1])
        kids, laid = (child, node.rhs), (hole, texts[1])
    left, _, right = layout(node, kids, laid, True)[0].partition(_HOLE)
    return left, right


def _traced_line(path: list[list], lefts: list[str], rights: list[str],
                 new: ast.Expr, held: list, line: Optional[str]) -> str:
    """The whole term after the subterm below the frames on ``path`` was
    rewritten to ``new``, of held text ``held``: that text spliced between
    the frames' texts, which ``lefts`` and ``rights`` keep for a prefix of
    ``path``. A frame's text is stale if it has none or its slot has moved
    since it was made. A slot moves only in the innermost frame, so only
    the frames below the first current one up from there, and the
    innermost, get their text made again. Only the outermost of them can
    have text for its old slot: a finished left operand the walk made
    again then takes its text from where it stands in ``line``."""
    if not path:
        return held[0]
    top = first = len(path) - 1
    while first and path[first - 1][6] != path[first - 1][4]:
        first -= 1
    frame = path[first]
    if frame[6] == 0 and frame[4] and frame[2][0][0] is None:
        frame[2][0][0] = line[sum(map(len, lefts[:first + 1])):
                              len(line) - sum(map(len, rights[:first + 1]))]
    del lefts[first:], rights[first:]
    for k in range(first, top + 1):
        frame = path[k]
        if k < top:
            child = path[k + 1][3]
            left, right = _context(frame, child, head(child)[1])
        else:
            left, right = _context(frame, new, held[1])
        frame[6] = frame[4]
        lefts.append(left)
        rights.append(right)
    return "".join([*lefts, held[0], *reversed(rights)])


_SUM = object()  # on the big-step stack above the factor pairs of a split
_KEEP = object()  # below them, when the split is an input application's


def _normalise(body: ast.Expr, max_steps: int) -> ast.Expr:
    """The normal form of ``body``, untraced: a big-step walk that
    normalises an application's operands first and then tries its root
    once. A distribution gives two factor pairs, not nodes: each pair is
    tried as a product before it is made, and the sum is made after both
    of its products are normal. An input node whose operands stay as they
    are is kept, and not walked again where the body shares it. An input
    application that was rewritten keeps its normal form and the steps it
    took: where the body shares it, those steps are counted again and
    checked against the limit, and its kept normal form is shared. So each
    distinct input node is walked once, and each node of the normal form
    is made once."""
    normal: set[int] = set()  # ids of input nodes found normal
    # id of an input application rewritten: its normal form, and the steps
    # that took
    kept: dict[int, tuple[ast.Expr, int]] = {}
    splits: list[list] = []  # the entry of each _KEEP on ``todo``
    steps = 0
    # innermost last: an input node to normalise; [node, steps at its
    # entry], an input application whose operands' normal forms are on
    # ``done``; a factor pair, a product not made yet; _SUM above the two
    # factor pairs of a split, whose products' normal forms are then on
    # ``done``; _KEEP below them, when an input application split, whose
    # normal form is then on top of ``done``
    todo: list = [body]
    done: list[ast.Expr] = []
    while todo:
        task = todo.pop()
        kind = type(task)
        if kind is tuple:
            node, op, (lhs, rhs) = None, "*", task
        elif task is _SUM:
            node, op = None, "+"
            rhs, lhs = done.pop(), done.pop()
        elif kind is list:
            node = task[0]
            op = node.op
            if type(node) is ast.Infix:
                rhs, lhs = done.pop(), done.pop()
            else:
                lhs, rhs = done.pop(), None
        elif task is _KEEP:
            node, start = splits.pop()
            kept[id(node)] = done[-1], steps - start
            continue
        elif kind is ast.Infix or kind is ast.Prefix:
            if id(task) in normal:
                done.append(task)
            elif id(task) in kept:
                new, taken = kept[id(task)]
                steps += taken
                if steps > max_steps:
                    raise RewriteLimitExceeded(
                        f"more than {max_steps} rewrite steps")
                done.append(new)
            else:
                todo.append([task, steps])
                if kind is ast.Infix:
                    todo += (task.rhs, task.lhs)
                else:
                    todo.append(task.operand)
            continue
        else:  # a leaf
            done.append(task)
            continue
        new = _root_rewrite(op, lhs, rhs)
        if new is None:
            if node is None:
                new = ast.Infix(op, lhs, rhs)
            elif rhs is None:
                new = node if lhs is node.operand else ast.Prefix(op, lhs)
            elif lhs is node.lhs and rhs is node.rhs:
                new = node
            else:
                new = ast.Infix(op, lhs, rhs)
            if new is node:
                normal.add(id(node))  # body keeps it, so its id stays unique
            elif node is not None:
                kept[id(node)] = new, steps - task[1]
            done.append(new)
            continue
        steps += 1
        if steps > max_steps:
            raise RewriteLimitExceeded(f"more than {max_steps} rewrite steps")
        if type(new) is tuple:
            if node is not None:
                splits.append(task)
                todo.append(_KEEP)
            todo += (_SUM, new[1], new[0])
        else:  # a folded leaf
            if node is not None:
                kept[id(node)] = new, steps - task[1]
            done.append(new)
    return done[0]


def _traced_normalise(body: ast.Expr, max_steps: int,
                      trace: Callable[[str], None]) -> ast.Expr:
    """The normal form of ``body``, with ``trace`` given the whole term
    after each step: a small-step walk that rewrites the first redex in
    post-order and resumes at the node just rewritten, since everything
    before it is normal. A distribution ``C*B + D*B`` is made as nodes and
    fires only on normal operands, so only its new products' roots are
    tried and ``B`` is not walked again. An input node found normal is not
    walked again either.

    Texts are held as ``[text, level, operand texts]``. A step lays out
    only what it made: a distribution's products and sum from its factors'
    held texts, a fold's leaf from ``head``. A text the walk does not hold
    is cut out of its parent's, or rendered whole: an input subtree handed
    over whole, or a node made again when an operand changed. The frames
    of the walk are the path from the root; each keeps its operands' held
    texts and the text left and right of its slot, made again only where
    the slot has moved, and a step joins them around its text. A finished
    left operand made again takes its text from the line before. That is
    amortised O(1) frames plus the printed line a step. The texts held are
    those of the nodes beside the path and their operands, O(printed
    line), and those cut out of a factor that several products share,
    kept while it is in the term."""
    lefts: list[str] = []  # the text left of each frame's slot
    rights: list[str] = []  # and right of it
    line = None  # the line printed last
    normal: set[int] = set()  # ids of input nodes found normal
    steps = 0
    # the ancestors of ``e``, whose held text is ``held``: frames [None,
    # level, operand texts, node, operand slot, operands normal, slot of
    # the trace text, held text of the node]. A frame whose node the walk
    # made is that node's held text; one whose operands are not known
    # normal holds an input node, rebuilt only when an operand changes
    path: list[list] = []
    e, held, operands_normal = body, None, False
    while True:
        if not operands_normal and isinstance(e, (ast.Infix, ast.Prefix)) \
                and id(e) not in normal:
            path.append([None, head(e)[1], [None, None], e, 0, False, None,
                         held])
            e, held = e.lhs if type(e) is ast.Infix else e.operand, None
            continue
        if operands_normal:
            if type(e) is ast.Infix:
                new = _root_rewrite(e.op, e.lhs, e.rhs)
            else:
                new = _root_rewrite(e.op, e.operand)
            if new is not None:
                if type(new) is tuple:
                    new = _distributed(new)
                    held = _laid_out(new, e, held)
                else:
                    held = [*head(new), None]
                steps += 1
                line = _traced_line(path, lefts, rights, new, held, line)
                trace(line)
                if steps > max_steps:
                    raise RewriteLimitExceeded(
                        f"more than {max_steps} rewrite steps")
                if type(new) is ast.Infix:
                    # C*B + D*B: the products' operands are normal
                    first, second = held[2]
                    path.append([None, held[1], [None, second], new, 0, True,
                                 None, _REMADE])
                    e, held = new.lhs, first
                    continue
                e = new  # a folded leaf
        # e is normal: hand it to its parent
        if not path:
            return e
        frame = path[-1]
        _, _, texts, parent, slot, operands_normal, _, _ = frame
        siblings = (parent.lhs, parent.rhs) if type(parent) is ast.Infix \
            else (parent.operand,)
        if e is not siblings[slot]:
            parent = frame[3] = with_operand(parent, slot, e)
            frame[7] = _REMADE
        elif not operands_normal and isinstance(e, (ast.Infix, ast.Prefix)):
            normal.add(id(e))  # body keeps it, so its id stays unique
        texts[slot] = held
        if slot + 1 < len(siblings):
            frame[4] = slot + 1
            e, held, texts[slot + 1] = siblings[slot + 1], texts[slot + 1], None
        else:
            path.pop()
            e, operands_normal = parent, True
            held = frame if frame[7] is _REMADE else frame[7]


def simplify(v: Value, max_steps: int = DEFAULT_REWRITE_LIMIT,
             trace: Optional[Callable[[str], None]] = None) -> Value:
    """Normal form of a value. Values other than thunks are already normal
    forms. A thunk's body is rewritten as built: its leaves are concrete
    values and its own free variables, and rewriting neither adds nor
    drops an identifier, so the normal form keeps the thunk's captures. A
    fold gives a value of its operands' joined type, so it keeps the type.

    Rewriting is innermost-leftmost, by the rules of ``_root_rewrite``,
    on an explicit stack, so a body of any depth is walked without
    recursion. Whether ``trace`` is given selects the walk. Untraced,
    ``_normalise`` walks each distinct input node once and makes each node
    of the normal form once, which shares a repeated subterm's normal form.
    Traced, ``_traced_normalise`` makes each step's term, which ``trace``
    gets as a line, in O(DAG size + steps) node visits. Both count the same
    steps and raise the same error at the same step. A walk's stacks, ids
    and kept normal forms are freed when it returns, before the result
    thunk is built, so they stay out of the peak allocation."""
    if not isinstance(v, ThunkV):
        return v
    if trace is None:
        e = _normalise(v.body, max_steps)
    else:
        e = _traced_normalise(v.body, max_steps, trace)
    leaf = _concrete_leaf(e)
    if leaf is not None:
        return leaf
    return thunk(e, v.captures)


# --- prelude installation ---

def _native_distribute(args, interp):
    """``Algebra.infix*``. Native because an interpreted body would
    evaluate ``C * B`` eagerly and fold products a rewrite chain must show."""
    return distribute(args[0], args[1])


def _complex_native(op: str):
    """Complex ``op``: the kernel on promoted operands, else a thunk."""
    def native(args, interp):
        result = arith(op, [promote(a) for a in args])
        return result if result is not None else interp.make_thunk(op, args)
    return native


def _native_register_mul(args, interp):
    product = _fold("*", args)
    return product if product is not None else distribute(*args)


def builtin_args(name: str, args: list[Value], arities: tuple[int, ...],
                 kind: Optional[type] = None, what: str = "") -> list[Value]:
    """Arity and argument type check of a builtin call: each argument is
    exactly of type ``kind``, if one is given. The interpreter adds the
    call's span to the error."""
    if len(args) not in arities:
        plural = "s" if arities[-1] > 1 else ""
        raise EvalError(f"{name} takes {' or '.join(map(str, arities))} "
                        f"argument{plural}, got {len(args)}")
    if kind is not None and not all(type(a) is kind for a in args):
        raise EvalError(f"{name} expects {what}")
    return args


def _builtin_mono(args, interp, env):
    ints = builtin_args("mono", args, (4,), int, "integer components")
    return RegisterV(MonomialRegister(*ints))


def _builtin_complex(args, interp, env):
    ints = builtin_args("Complex", args, (1, 2), int, "integer components")
    return ComplexV(ints[0], ints[1] if len(ints) == 2 else 0)


def _builtin_conjugate(args, interp, env):
    (arg,) = builtin_args("conjugate", args, (1,), RegisterV,
                          "a monomial register")
    return RegisterV(register_conjugate(arg.register))


def _builtin_eval(args, interp, env):
    (arg,) = builtin_args("EVAL", args, (1,))
    return interp.force(arg, env)


def _builtin_simplify(args, interp, env):
    (arg,) = builtin_args("simplify", args, (1,))
    return simplify(arg, interp.max_rewrites, interp.trace)


def install_prelude(interp: Interpreter):
    """Run the parsed prelude, then attach the native kernels and the
    constant i = Complex(0, 1)."""
    interp.run_program(PRELUDE)
    attach = interp.registry.attach_method
    attach("Algebra", "*", "infix", _native_distribute)
    for op, fixity in (("+", "infix"), ("-", "infix"), ("-", "prefix")):
        attach("Complex", op, fixity, _complex_native(op))
    attach("Monomial", "*", "infix", _native_register_mul)
    interp.globals["i"] = ComplexV(0, 1)


def install_builtins(interp: Interpreter):
    interp.builtins.update({
        "mono": _builtin_mono,
        "Complex": _builtin_complex,
        "conjugate": _builtin_conjugate,
        "EVAL": _builtin_eval,
        "simplify": _builtin_simplify,
    })


def make_interpreter(prelude: bool = True,
                     max_rewrites: int = DEFAULT_REWRITE_LIMIT,
                     trace: bool = False,
                     emit: Callable[[str], None] = print) -> Interpreter:
    interp = Interpreter(max_rewrites=max_rewrites, trace=trace, emit=emit)
    install_builtins(interp)
    if prelude:
        install_prelude(interp)
    return interp
