"""The Group -> Algebra -> Complex prelude and the rewriting engine.

The prelude ships as source in the surface language and is loaded through
the ordinary parser, so the hierarchy and the Complex multiplication body
are genuinely interpreted. Natives implement the abstract ``Algebra.infix*``
(distributivity, one layer per call), Complex ``+``/``-`` and the monomial
register product. Concrete arithmetic is the one kernel in ``values``, and
distributivity is one tree rule shared by ``distribute`` and the rewriter.

``simplify`` runs bottom-up rewriting to a fixed point: distribute
products over sums, fold all-concrete applications, promote integers that
meet complex values. Factor and summand order are never changed.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import ast
from .errors import EvalError, RewriteLimitExceeded
from .evaluator import Interpreter, as_repr, free_idents, operator_thunk
from .monomials import MonomialRegister, register_conjugate, register_mul
from .parser import parse_program
from .values import (FAIL, ComplexV, FreeVarV, IntegerV, RegisterV, ThunkV,
                     Value, arith, complex_mul, join_types, promote, thunk,
                     type_name_of)

DEFAULT_REWRITE_LIMIT = 10_000

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


# --- distributivity ---

def distribute_expr(lhs: ast.Expr, rhs: ast.Expr) -> Optional[ast.Infix]:
    """One layer of distributivity on trees: (C + D) * B -> C*B + D*B, or
    A * (E + F) -> A*E + A*F; None when neither factor is a sum. Factor
    order is preserved (noncommutative-safe)."""
    if isinstance(lhs, ast.Infix) and lhs.op == "+":
        return ast.Infix("+", ast.Infix("*", lhs.lhs, rhs),
                         ast.Infix("*", lhs.rhs, rhs))
    if isinstance(rhs, ast.Infix) and rhs.op == "+":
        return ast.Infix("+", ast.Infix("*", lhs, rhs.lhs),
                         ast.Infix("*", lhs, rhs.rhs))
    return None


def distribute(a: Value, b: Value) -> Value:
    """One layer of distributivity on values, or fail when neither operand
    is a sum-rooted thunk. The factor that is not a sum wins a capture
    clash."""
    if not (isinstance(a, ThunkV) or isinstance(b, ThunkV)):
        return FAIL  # only a thunk can be a sum
    (a_expr, a_caps), (b_expr, b_caps) = as_repr(a), as_repr(b)
    body = distribute_expr(a_expr, b_expr)
    if body is None:
        return FAIL
    a_is_sum = body.lhs.rhs is b_expr  # (C + D) * B -> C*B + ...
    return thunk(body, join_types([type_name_of(a), type_name_of(b)]),
                 *((a_caps, b_caps) if a_is_sum else (b_caps, a_caps)))


def complex_method_mul(a: Value, b: Value) -> Value:
    """The Complex multiplication protocol: inherited distributivity first,
    then concrete multiplication, otherwise a residual product thunk."""
    distributed = distribute(a, b)
    if distributed is not FAIL:
        return distributed
    if isinstance(a, (IntegerV, ComplexV)) and isinstance(b, (IntegerV, ComplexV)):
        return complex_mul(promote(a) if isinstance(a, IntegerV) else a,
                           promote(b) if isinstance(b, IntegerV) else b)
    if isinstance(a, (FreeVarV, ThunkV)) or isinstance(b, (FreeVarV, ThunkV)):
        return operator_thunk("*", "infix", [a, b])
    return FAIL


# --- the rewriter ---

def _fold(op: str, args: list[Value]) -> Optional[Value]:
    """Concrete evaluation of one application, or None if no kernel. The
    register product folds here only: without the prelude, evaluating
    ``mono(..) * mono(..)`` stays a dispatch error."""
    if op == "*" and all(isinstance(a, RegisterV) for a in args):
        return RegisterV(register_mul(args[0].register, args[1].register))
    return arith(op, args)


def _concrete_leaf(e: ast.Expr) -> Optional[Value]:
    if isinstance(e, ast.ValueLeaf) and not isinstance(e.value,
                                                       (ThunkV, FreeVarV)):
        return e.value
    return None


def _rewrite_once(e: ast.Expr) -> Optional[ast.Expr]:
    """Apply one rewrite at the first redex in post-order, or None."""
    if isinstance(e, ast.Infix):
        lhs = _rewrite_once(e.lhs)
        if lhs is not None:
            return ast.Infix(e.op, lhs, e.rhs)
        rhs = _rewrite_once(e.rhs)
        if rhs is not None:
            return ast.Infix(e.op, e.lhs, rhs)
        left = _concrete_leaf(e.lhs)
        right = _concrete_leaf(e.rhs)
        if left is not None and right is not None:
            folded = _fold(e.op, [left, right])
            if folded is not None:
                return ast.ValueLeaf(folded)
        if e.op == "*":
            return distribute_expr(e.lhs, e.rhs)
        return None
    if isinstance(e, ast.Prefix):
        inner = _rewrite_once(e.operand)
        if inner is not None:
            return ast.Prefix(e.op, inner)
        operand = _concrete_leaf(e.operand)
        if operand is not None:
            folded = _fold(e.op, [operand])
            if folded is not None:
                return ast.ValueLeaf(folded)
        return None
    return None


def _inline(e: ast.Expr, captures: dict[str, Value]) -> ast.Expr:
    """Splice capture-bound concrete values and nested thunks into the
    tree so the rewriter sees them."""
    if isinstance(e, ast.Ident):
        bound = captures.get(e.name)
        if isinstance(bound, ThunkV):
            return _inline(bound.fo.body, bound.fo.capture_map())
        if bound is not None and not isinstance(bound, FreeVarV):
            return ast.ValueLeaf(bound)
        return e
    if isinstance(e, ast.ValueLeaf):
        if isinstance(e.value, ThunkV):
            return _inline(e.value.fo.body, e.value.fo.capture_map())
        return e
    if isinstance(e, ast.Infix):
        return ast.Infix(e.op, _inline(e.lhs, captures),
                         _inline(e.rhs, captures))
    if isinstance(e, ast.Prefix):
        return ast.Prefix(e.op, _inline(e.operand, captures))
    return e


def simplify(v: Value, max_steps: int = DEFAULT_REWRITE_LIMIT,
             trace: Optional[Callable[[str], None]] = None) -> Value:
    """Fixed-point normalization of a value. Values other than thunks are
    already normal forms."""
    if not isinstance(v, ThunkV):
        return v
    from .pretty import render_expr
    captures = v.fo.capture_map()
    body = _inline(v.fo.body, captures)
    steps = 0
    while True:
        rewritten = _rewrite_once(body)
        if rewritten is None:
            break
        body = rewritten
        steps += 1
        if trace is not None:
            trace(render_expr(body, spaced=True))
        if steps > max_steps:
            raise RewriteLimitExceeded(f"more than {max_steps} rewrite steps")
    leaf = _concrete_leaf(body)
    if leaf is not None:
        return leaf
    return thunk(body, v.fo.result_type,
                 {name: captures.get(name, FreeVarV(name))
                  for name in free_idents(body)})


# --- prelude installation ---

def _native_distribute(args, interp):
    """``Algebra.infix*``. Native because an interpreted body would
    evaluate ``C * B`` eagerly and fold products a rewrite chain must show."""
    return distribute(args[0], args[1])


def _complex_native(op: str, fixity: str):
    """Complex ``op``: the kernel on promoted operands, else a thunk."""
    def native(args, interp):
        result = arith(op, [promote(a) if isinstance(a, IntegerV) else a
                            for a in args])
        return result if result is not None \
            else interp.make_thunk(op, fixity, args)
    return native


def _native_register_mul(args, interp):
    a, b = args
    if isinstance(a, RegisterV) and isinstance(b, RegisterV):
        return RegisterV(register_mul(a.register, b.register))
    return distribute(a, b)


def builtin_args(name: str, args: list[Value], arities: tuple[int, ...],
                 kind: type = Value, what: str = "") -> list[Value]:
    """Arity and argument type check of a builtin call; the interpreter
    adds the call's span to the error."""
    if len(args) not in arities:
        plural = "s" if arities[-1] > 1 else ""
        raise EvalError(f"{name} takes {' or '.join(map(str, arities))} "
                        f"argument{plural}, got {len(args)}")
    if not all(isinstance(a, kind) for a in args):
        raise EvalError(f"{name} expects {what}")
    return args


def _builtin_mono(args, interp, env):
    ints = builtin_args("mono", args, (4,), IntegerV, "integer components")
    return RegisterV(MonomialRegister(*(a.n for a in ints)))


def _builtin_complex(args, interp, env):
    ints = [a.n for a in builtin_args("Complex", args, (1, 2), IntegerV,
                                      "integer components")]
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
    return simplify(arg)


def install_prelude(interp: Interpreter):
    """Load the prelude source, then attach the native kernels and the
    constant i = Complex(0, 1)."""
    interp.run_program(parse_program(PRELUDE_SOURCE))
    interp.registry.set_native("Algebra", "*", "infix", _native_distribute, 2)
    for op, fixity, arity in (("+", "infix", 2), ("-", "infix", 2),
                              ("-", "prefix", 1)):
        interp.registry.set_native("Complex", op, fixity,
                                   _complex_native(op, fixity), arity)
    interp.registry.set_native("Monomial", "*", "infix",
                               _native_register_mul, 2)
    interp.globals.define("i", ComplexV(0, 1), "Complex")


def install_builtins(interp: Interpreter):
    interp.builtins.update({
        "mono": _builtin_mono,
        "Complex": _builtin_complex,
        "conjugate": _builtin_conjugate,
        "EVAL": _builtin_eval,
        "simplify": _builtin_simplify,
    })


def make_interpreter(prelude: bool = True) -> Interpreter:
    interp = Interpreter()
    install_builtins(interp)
    if prelude:
        install_prelude(interp)
    return interp
