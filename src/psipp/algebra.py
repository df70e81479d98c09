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
summand order are never changed. Its one walk is big-step: operands are
normalised before their root is tried, a distribution's products are
tried as factor pairs before they are made, and its sum is made after
them, so each node of the normal form is made once. An input node found
normal is not walked again where the body shares it. Untraced, one
rewritten keeps its normal form and its steps, which count again, against
the limit, at each later place: O(DAG size + steps) time, with the steps
below a shared node taken once, and the normal form shares a repeated
subterm's normal form. Traced, each step's term is printed, so a shared
subterm that is not normal is rewritten at each place, and the walk keeps
the term's text beside its stacks: a step slices the texts it needs out
of the line before, lays out only the nodes it made, a distribution's
sum and two products in one call, and splices their text into that line.
Untraced, the walk tests for the sink once a root try.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import ast
from .errors import EvalError, RewriteLimitExceeded
from .evaluator import DEFAULT_REWRITE_LIMIT, Interpreter, as_repr
from .lexer import tokenize
from .monomials import MonomialRegister, register_conjugate, register_mul
from .parser import parse_program
from .pretty import expr_text, extent, head, layout, layout_distribution
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

def distribute_expr(lhs: ast.Expr, rhs: ast.Expr) -> Optional[ast.Infix]:
    """One layer of distributivity on trees: (C + D) * B -> C*B + D*B, or
    A * (E + F) -> A*E + A*F; None when neither factor is a sum. Two value
    leaves are no sum, and are not folded."""
    if type(lhs) is ast.ValueLeaf and type(rhs) is ast.ValueLeaf:
        return None
    split = _root_rewrite("*", lhs, rhs)
    if split is None:
        return None
    (a, b), (c, d) = split
    return ast.Infix("+", ast.Infix("*", a, b), ast.Infix("*", c, d))


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
                  ) -> Optional[ast.ValueLeaf | list[tuple]]:
    """One rewrite at the root of an application of ``op`` to normal
    operands, ``rhs`` None for a prefix one: fold concrete operands to a
    leaf, else split a product over a sum, one layer of distributivity, into
    a list of two factor pairs: (C + D) * B into (C, B) and (D, B),
    A * (E + F) into (A, E) and (A, F). Factor order is preserved
    (noncommutative-safe). None when the root is no redex. A value leaf is
    always concrete, and never a sum."""
    if type(lhs) is ast.ValueLeaf \
            and (rhs is None or type(rhs) is ast.ValueLeaf):
        folded = _fold(op, [lhs.value] if rhs is None
                       else [lhs.value, rhs.value])
        return None if folded is None else ast.ValueLeaf(folded)
    if op == "*":
        if type(lhs) is ast.Infix and lhs.op == "+":
            return [(lhs.lhs, rhs), (lhs.rhs, rhs)]
        if type(rhs) is ast.Infix and rhs.op == "+":
            return [(lhs, rhs.lhs), (lhs, rhs.rhs)]
    return None


def _leaf_record(e: ast.Expr) -> list:
    """The record ``[length, level]`` of a leaf's text."""
    text, level = head(e)
    return [len(text if text is not None else expr_text(e, True)[0]), level]


def _frame(node: ast.Expr, path: list[list], records: dict) -> list:
    """The frame ``[op, operands, slot, start, record]`` of the input
    application ``node`` as the walk enters it, inside the innermost frame
    of ``path``. Its leaf operands' records, kept by id in ``records``, are
    in its record from the start, so no leaf is handed to it, and its slot
    starts at its first operand that is not a leaf."""
    kids = [node.lhs, node.rhs] if type(node) is ast.Infix \
        else [node.operand]
    record = [0, head(node)[1], None, None, 0, 0]
    for slot, kid in enumerate(kids):
        if type(kid) is not ast.Infix and type(kid) is not ast.Prefix:
            leaf = records.get(id(kid))
            if leaf is None:
                leaf = records[id(kid)] = _leaf_record(kid)
            record[2 + slot] = leaf
    return [node.op, kids, 0 if record[2] is None else 1,
            _offset(path[-1], node, record) if path else 0, record]


def _offset(frame: list, kid, entry: list) -> int:
    """Where the text of ``kid``, of record ``entry``, starts in the line
    in the slot of ``frame``."""
    op, kids, slot, start, record = frame
    if len(kids) == 1:
        return start + extent(op, (kid,), (entry,))[2]
    if slot:
        return start + extent(op, (kids[0], kid), (record[2], entry))[3]
    # an operand not walked yet is no leaf, so it cannot print first
    return start + extent(op, (kid, kids[1]), (entry, record[3] or entry))[2]


def _measured(frame: list) -> list:
    """The record of ``frame``'s application, its length and offsets found
    again if a step in one of its slots zeroed its length."""
    record = frame[4]
    if not record[0]:
        record[0], _, *record[4:6] = extent(frame[0], frame[1], record[2:4])
    return record


def _distributed_text(split: list[tuple], right: bool,
                      record: list, line: str, at: int) -> tuple[str, list]:
    """The text and record of the sum of the products of ``split``'s two
    factor pairs, the distribution of a product over the sum on its
    ``right`` (``A*E + A*F``) or left (``C*B + D*B``), from the factors'
    texts, sliced out of ``line`` where the product's text, at ``at``, and
    its ``record`` put them."""
    lhs, rhs = record[2], record[3]
    lhs_at, rhs_at = at + record[4], at + record[5]
    if right:  # A * (E + F)
        a_text = line[lhs_at:lhs_at + lhs[0]]
        b, d, b_at, d_at = rhs[2], rhs[3], rhs_at + rhs[4], rhs_at + rhs[5]
        return layout_distribution(split, a_text, lhs,
                                   line[b_at:b_at + b[0]], b, a_text, lhs,
                                   line[d_at:d_at + d[0]], d)
    # (C + D) * B
    b_text = line[rhs_at:rhs_at + rhs[0]]
    a, c, a_at, c_at = lhs[2], lhs[3], lhs_at + lhs[4], lhs_at + lhs[5]
    return layout_distribution(split, line[a_at:a_at + a[0]], a, b_text, rhs,
                               line[c_at:c_at + c[0]], c, b_text, rhs)


def _spliced(line: str, frame: list, record: list, at: int, new,
             text: str, new_record: list) -> tuple[str, int]:
    """``line`` with ``text``, of ``new``, in place of the text at ``at``
    in the slot of ``frame``, in the slot's parentheses for its level, and
    where ``text`` starts. A fold that turns the frame's scalar-first swap
    on or off moves it further: the frame's application is laid out again,
    with the text of its other operand, which is finished or a scalar
    leaf."""
    new_at = _offset(frame, new, new_record)
    moved = new_at - at
    if -1 <= moved <= 1:  # parentheses came, stayed or went
        lo, hi = at - (moved < 0), at + record[0] + (moved < 0)
        piece = f"({text})" if moved > 0 else text
        return "".join((line[:lo], piece, line[hi:])), new_at
    op, kids, slot, start, parent = frame
    sizes = parent[2:4]
    sizes[slot] = record
    length, _, *offsets = extent(op, kids, sizes)
    other, other_at = sizes[1 - slot], start + offsets[1 - slot]
    texts = [(text, new_record[1]),
             (line[other_at:other_at + other[0]], other[1])]
    laid = layout(op, (kids[0], new) if slot else (new, kids[1]),
                  texts[::-1] if slot else texts)[0]
    return "".join((line[:start], laid, line[start + length:])), new_at


def _hand(frame: list, node: ast.Expr, record: list) -> None:
    """Give ``frame`` its finished operand ``node``, of ``record``, and
    move its slot on."""
    slot = frame[2]
    frame[1][slot] = node
    frame[4][2 + slot] = record
    frame[2] = slot + 1


_SUM = object()  # on the big-step stack above the factor pairs of a split
_KEEP = object()  # below them, when the split is an input application's


def _normalise(body: ast.Expr, max_steps: int,
               trace: Optional[Callable[[str], None]] = None) -> ast.Expr:
    """The normal form of ``body``: a big-step walk that normalises an
    application's operands first and then tries its root once. A
    distribution gives two factor pairs, not nodes: each is tried as a
    product before it is made, and the sum is made after both products are
    normal, so each node of the normal form is made once. An input node
    whose operands stay as they are is kept, and not walked again where
    the body shares it. Untraced, an input application that was rewritten
    keeps its normal form and the steps it took, which are counted again
    and checked against the limit where the body shares it: each distinct
    input node is walked once. Untraced, a root try tests for the sink
    once, after the try, and so does the entry of an input application.

    Traced, ``trace`` is given the whole term, ``line``, after each step,
    and no kept normal form is read, since each step is a line at each
    place. A finished operand has a record ``[length, level, operand
    records, operand offsets]`` of its text. A frame ``[op, operands, slot,
    start, record]`` is pushed when the walk enters an input application,
    with its leaf operands' records, so no leaf is handed to it; or when
    a split makes a sum, whose slots then hold its factor pairs, and the
    split's layout its products' records. A product tried without a step
    only moves its sum's slot on: a sum never swaps, so no rule reads its
    operands. A frame keeps where its text starts in ``line``, which no
    step below it moves, and is popped when its root is tried; a product's
    record and offset are read only when a step follows. A step lays out
    the nodes it made from texts sliced out of ``line`` and splices them
    into the innermost frame, whose length is found again when it is next
    read: O(1) frames plus the line."""
    # id of an input application found normal: its record, traced, else
    # None; traced, id of an input leaf: its record
    normal: dict[int, Optional[list]] = {}
    # id of an input application rewritten: its normal form, and the steps
    # that took; read untraced only
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
    # traced: the line, the frames, and the record of the node finished
    line, path, record = "", [], None
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
        elif kind is not ast.Infix and kind is not ast.Prefix:  # a leaf
            done.append(task)
            continue
        elif id(task) in normal:  # an input application found normal
            done.append(task)
            if path:
                _hand(path[-1], task, normal[id(task)])
            continue
        else:  # an input application
            if trace is None:
                if id(task) in kept:  # rewritten before: count its steps
                    new, taken = kept[id(task)]
                    steps += taken
                    if steps > max_steps:
                        raise RewriteLimitExceeded(
                            f"more than {max_steps} rewrite steps")
                    done.append(new)
                    continue
            else:
                path.append(_frame(task, path, normal))
            todo.append([task, steps])
            if kind is ast.Infix:
                todo += (task.rhs, task.lhs)
            else:
                todo.append(task.operand)
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
            done.append(new)
            if trace is not None:
                if kind is tuple:  # its record, the layout's, is in its slot
                    path[-1][2] += 1
                    continue
                record = _measured(path.pop())
                if path:
                    _hand(path[-1], new, record)
            if node is None:  # a product or sum made
                continue
            if new is node:  # body keeps it, so its id stays unique
                normal[id(node)] = record
            else:
                kept[id(node)] = new, steps - task[1]
            continue
        steps += 1
        if trace is not None:
            if steps == 1:
                line = expr_text(body, True)[0]
            if kind is tuple:  # the product in its sum's slot
                frame = path[-1]
                slot, total = frame[2], _measured(frame)
                at, record = frame[3] + total[4 + slot], total[2 + slot]
            else:
                tried = path.pop()
                at, record = tried[3], _measured(tried)
                frame = path[-1] if path else None
            if type(new) is list:
                text, new_record = _distributed_text(
                    new, new[0][0] is lhs, record, line, at)
            else:
                text, level = head(new)
                new_record = [len(text), level]
            if frame is None:
                line, at = text, 0
            else:
                line, at = _spliced(line, frame, record, at, new, text,
                                    new_record)
                frame[4][0] = 0
            if type(new) is list:  # the sum, whose slots are its pairs
                path.append(["+", new, 0, at, new_record])
            elif frame is not None:
                _hand(frame, new, new_record)
            trace(line)
        if steps > max_steps:
            raise RewriteLimitExceeded(
                f"more than {max_steps} rewrite steps")
        if type(new) is list:
            if node is not None:
                splits.append(task)
                todo.append(_KEEP)
            todo += (_SUM, new[1], new[0])
            continue
        if node is not None:
            kept[id(node)] = new, steps - task[1]
        done.append(new)  # a folded leaf, normal
    return done[0]


def simplify(v: Value, max_steps: int = DEFAULT_REWRITE_LIMIT,
             trace: Optional[Callable[[str], None]] = None) -> Value:
    """Normal form of a value. Values other than thunks are already normal
    forms. A thunk's body is rewritten as built: its leaves are concrete
    values and its own free variables, and rewriting neither adds nor
    drops an identifier, so the normal form keeps the thunk's captures. A
    fold gives a value of its operands' joined type, so it keeps the type.

    Rewriting is innermost-leftmost, by the rules of ``_root_rewrite``, in
    the one walk ``_normalise``, on explicit stacks, so a body of any depth
    is walked without recursion. It makes each node of the normal form
    once. Untraced, it walks each distinct input node once, which shares a
    repeated subterm's normal form; traced, it gives ``trace`` each step's
    term as a line, and rewrites a shared subterm at each place. Both
    modes count the same steps and raise the same error at the same step.
    The walk's stacks, ids, records and kept normal forms are freed when
    it returns, before the result thunk is built."""
    if not isinstance(v, ThunkV):
        return v
    e = _normalise(v.body, max_steps, trace)
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
