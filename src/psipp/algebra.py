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
repeated subterm's normal form. Traced, the walk is small-step, since
each step's term is printed, and it rewrites a shared subterm that is not
normal at each place: O(DAG size + steps) node visits, plus the printed
lines. A step slices the texts it needs out of the line before, lays out
only the nodes it made, and splices their text into that line.
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
from .pretty import expr_text, extent, head, layout
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


def _leaf_record(e: ast.Expr) -> list:
    """The record ``[length, level]`` of a leaf's text."""
    text, level = head(e)
    return [len(text if text is not None else expr_text(e, True)[0]), level]


def _offset(frame: list, kid: ast.Expr, entry: list) -> int:
    """Where the text of ``kid``, of record ``entry``, starts in the line
    in the slot of ``frame``."""
    node, slot, _, start, record = frame
    if type(node) is not ast.Infix:
        return start + extent(node, (kid,), (entry,))[2]
    if slot:
        return start + extent(node, (node.lhs, kid), (record[2], entry))[3]
    rhs = record[3]
    if rhs is None:  # not walked yet: only a value leaf can print first
        rhs = _leaf_record(node.rhs) if type(node.rhs) is ast.ValueLeaf \
            else entry
    return start + extent(node, (kid, node.rhs), (entry, rhs))[2]


def _distributed_text(new: ast.Infix, old: ast.Infix, record: list,
                      line: str, at: int) -> tuple[str, list]:
    """The text and record of ``new``, the distribution ``C*B + D*B`` or
    ``A*E + A*F`` of ``old``, from the factors' texts, sliced out of
    ``line`` where ``old``'s text, at ``at``, and the records put them."""
    lhs, rhs = record[2], record[3]
    lhs_at, rhs_at = at + record[4], at + record[5]
    if new.lhs.lhs is old.lhs:  # A * (E + F)
        a = c = lhs
        a_text = c_text = line[lhs_at:lhs_at + lhs[0]]
        b, d, b_at, d_at = rhs[2], rhs[3], rhs_at + rhs[4], rhs_at + rhs[5]
        b_text, d_text = line[b_at:b_at + b[0]], line[d_at:d_at + d[0]]
    else:  # (C + D) * B
        b = d = rhs
        b_text = d_text = line[rhs_at:rhs_at + rhs[0]]
        a, c, a_at, c_at = lhs[2], lhs[3], lhs_at + lhs[4], lhs_at + lhs[5]
        a_text, c_text = line[a_at:a_at + a[0]], line[c_at:c_at + c[0]]
    p, q = new.lhs, new.rhs
    p_text, p_level, a_at, b_at = layout(p, (p.lhs, p.rhs),
                                         ((a_text, a[1]), (b_text, b[1])))
    q_text, q_level, c_at, d_at = layout(q, (q.lhs, q.rhs),
                                         ((c_text, c[1]), (d_text, d[1])))
    text, level, p_at, q_at = layout(new, (p, q), ((p_text, p_level),
                                                   (q_text, q_level)))
    return text, [len(text), level,
                  [len(p_text), p_level, a, b, a_at, b_at],
                  [len(q_text), q_level, c, d, c_at, d_at], p_at, q_at]


def _spliced(line: str, frame: list, record: list, at: int, new: ast.Expr,
             text: str, new_record: list) -> tuple[str, int]:
    """``line`` with ``text``, of ``new``, in place of the text at ``at``
    in the slot of ``frame``, in the slot's parentheses for its level, and
    where ``text`` starts. A fold that turns the frame's scalar-first swap
    on or off moves it further: the frame's node is laid out again, with
    the text of its other operand, which is finished or a scalar leaf."""
    new_at = _offset(frame, new, new_record)
    moved = new_at - at
    if -1 <= moved <= 1:  # parentheses came, stayed or went
        lo, hi = at - (moved < 0), at + record[0] + (moved < 0)
        piece = f"({text})" if moved > 0 else text
        return "".join((line[:lo], piece, line[hi:])), new_at
    node, slot, start = frame[0], frame[1], frame[3]
    if slot:
        kids, sizes = (node.lhs, new), (frame[4][2], record)
    else:  # the right operand is a scalar leaf
        kids, sizes = (new, node.rhs), (record, _leaf_record(node.rhs))
    length, _, *offsets = extent(node, (node.lhs, node.rhs), sizes)
    other, other_at = sizes[1 - slot], start + offsets[1 - slot]
    texts = [(text, new_record[1]),
             (line[other_at:other_at + other[0]], other[1])]
    laid = layout(node, kids, texts[::-1] if slot else texts)[0]
    return "".join((line[:start], laid, line[start + length:])), new_at


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

    ``line`` is the text of the term. A node the walk finished has a record
    ``[length, level, operand records, operand offsets]`` of its text, and
    a frame of the path keeps where its node's text starts, which no step
    below it moves. A step slices the texts it needs out of ``line``, lays
    out the nodes it made and splices their text in: O(1) frames plus the
    line."""
    line = ""  # rendered whole at the first step
    normal: dict[int, list] = {}  # input leaves and nodes found normal
    steps = 0
    # frames [node, slot, operands normal, start, record], the ancestors of
    # ``e``; a record's length and offsets are 0 until its frame pops, but
    # for a node the walk made. Where ``e``'s operands are normal, its text
    # starts at ``at``
    path: list[list] = []
    e, record, operands_normal, at = body, None, False, 0
    while True:
        if not operands_normal:
            record = normal.get(id(e))
            if record is None:
                if type(e) is ast.Infix or type(e) is ast.Prefix:
                    record = [0, head(e)[1], None, None, 0, 0]
                    path.append([e, 0, False, _offset(path[-1], e, record)
                                 if path else 0, record])
                    e = e.lhs if type(e) is ast.Infix else e.operand
                    continue
                record = normal[id(e)] = _leaf_record(e)
        else:
            new = _root_rewrite(e.op, e.lhs, e.rhs) if type(e) is ast.Infix \
                else _root_rewrite(e.op, e.operand)
            if new is not None:
                if not steps:
                    line = expr_text(body, True)[0]
                steps += 1
                if type(new) is tuple:
                    new = _distributed(new)
                    text, new_record = _distributed_text(new, e, record,
                                                         line, at)
                else:
                    text, level = head(new)
                    new_record = [len(text), level]
                line, at = _spliced(line, path[-1], record, at, new, text,
                                    new_record) if path else (text, 0)
                trace(line)
                if steps > max_steps:
                    raise RewriteLimitExceeded(
                        f"more than {max_steps} rewrite steps")
                if type(new) is ast.Infix:  # C*B + D*B, of normal operands
                    path.append([new, 0, True, at, new_record])
                    e, record = new.lhs, new_record[2]  # first, and bare
                    continue
                e, record = new, new_record  # a folded leaf
        # e is normal: hand it to its parent
        if not path:
            return e
        frame = path[-1]
        node, slot, operands_normal, _, parent = frame
        siblings = (node.lhs, node.rhs) if type(node) is ast.Infix \
            else (node.operand,)
        if e is not siblings[slot]:
            node = frame[0] = with_operand(node, slot, e)
            parent[0] = 0
        elif not operands_normal:  # an input node, which body keeps
            normal[id(e)] = record
        parent[2 + slot] = record
        if slot + 1 < len(siblings):
            frame[1] = 1
            e, record = siblings[1], parent[3]
            if operands_normal:  # D*B: the sum's extent holds until then
                parent[0], _, parent[4], parent[5] = extent(
                    node, (node.lhs, e), (parent[2], record))
                at = frame[3] + parent[5]
        else:
            path.pop()
            if not parent[0]:
                parent[0], _, *parent[4:6] = extent(node, operands(node),
                                                    parent[2:4])
            e, record, operands_normal, at = node, parent, True, frame[3]


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
    Traced, ``_traced_normalise`` gives ``trace`` each step's term as a
    line. Both count the same steps and raise the same error at the same
    step. A walk's stacks, ids, records and kept normal forms are freed
    when it returns, before the result thunk is built."""
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
