"""Tree-walking evaluator with lazy functional objects.

Evaluation is eager on concrete operands and lazy otherwise: the first
operator application that sees a free variable or a thunk among its
operands becomes a thunk itself, without invoking any user code. ``fail``
is absorbing in operand position. Method bodies run in a fresh frame with
``par`` pattern variables scoped to one activation.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import ast
from .errors import (EvalError, NoSuchMethod, ReboundParVariable,
                     UnassignedReturn, UnknownIdentifier)
from .objects import INTEGER, KindedType, NativeMethod, Registry, UserMethod
from .values import (FAIL, ComplexV, Environment, FreeVarV, FunctionalObject,
                     IntegerV, ThunkV, Value, arith, classify_binding,
                     int_arith, join_types, promote, thunk, type_name_of)


def is_concrete(v: Value) -> bool:
    return not isinstance(v, (ThunkV, FreeVarV))


def as_repr(v: Value) -> tuple[ast.Expr, dict[str, Value]]:
    """Operand representation for thunk bodies: sub-thunks inline their
    body, free variables stay identifier leaves, values become leaves."""
    if isinstance(v, ThunkV):
        return v.fo.body, v.fo.capture_map()
    if isinstance(v, FreeVarV):
        return ast.Ident(v.name), {v.name: v}
    return ast.ValueLeaf(v), {}


def value_of_repr(expr: ast.Expr, captures: dict[str, Value]) -> Value:
    """Inverse of as_repr for one operand subtree."""
    if isinstance(expr, ast.ValueLeaf):
        return expr.value
    if isinstance(expr, ast.Ident) and expr.name in captures:
        return captures[expr.name]
    return thunk(expr, join_types([_repr_type(expr, captures)]),
                 {name: captures.get(name, FreeVarV(name))
                  for name in free_idents(expr)})


def operator_thunk(op: str, fixity: str, args: list[Value]) -> ThunkV:
    """The symbolic application ``op(args)``; on a capture clash the
    right operand wins."""
    reprs = [as_repr(a) for a in args]
    if fixity == "infix":
        body: ast.Expr = ast.Infix(op, reprs[0][0], reprs[1][0])
    else:
        body = ast.Prefix(op, reprs[0][0])
    return thunk(body, join_types([type_name_of(a) for a in args]),
                 *(caps for _, caps in reprs))


def free_idents(expr: ast.Expr) -> set[str]:
    out: set[str] = set()

    def walk(e: ast.Expr):
        if isinstance(e, ast.Ident):
            out.add(e.name)
        elif isinstance(e, ast.Infix):
            walk(e.lhs)
            walk(e.rhs)
        elif isinstance(e, ast.Prefix):
            walk(e.operand)
        elif isinstance(e, ast.Call):
            for a in e.args:
                walk(a)
        elif isinstance(e, ast.FieldAccess):
            walk(e.obj)
        elif isinstance(e, ast.PairLit):
            walk(e.first)
            walk(e.second)
        elif isinstance(e, ast.InheritedCall):
            walk(e.expr)

    walk(expr)
    return out


def _repr_type(expr: ast.Expr, captures: dict[str, Value]) -> str:
    if isinstance(expr, ast.ValueLeaf):
        return type_name_of(expr.value)
    if isinstance(expr, ast.Ident):
        v = captures.get(expr.name)
        return type_name_of(v) if v is not None else "Algebra"
    if isinstance(expr, ast.IntLit):
        return INTEGER
    if isinstance(expr, ast.Infix):
        return join_types([_repr_type(expr.lhs, captures),
                           _repr_type(expr.rhs, captures)])
    if isinstance(expr, ast.Prefix):
        return _repr_type(expr.operand, captures)
    return "Algebra"


def substitute(fo: FunctionalObject, name: str, v: Value) -> FunctionalObject:
    """Rebind one capture; the original functional object is unchanged."""
    captures = fo.capture_map()
    if name not in captures:
        raise UnknownIdentifier(f"{name!r} is not captured by this "
                                f"functional object")
    captures[name] = v
    return FunctionalObject(fo.body, tuple(sorted(captures.items())),
                            fo.result_type)


def value_equal(a: Value, b: Value) -> bool:
    if a is FAIL or b is FAIL:
        return a is b
    if isinstance(a, IntegerV) and isinstance(b, ComplexV):
        a = promote(a)
    elif isinstance(a, ComplexV) and isinstance(b, IntegerV):
        b = promote(b)
    return a == b


class Interpreter:
    """One evaluation session: a type registry, a global environment, and
    the output stream produced by ``print``/``kind`` statements."""

    def __init__(self, registry: Optional[Registry] = None):
        self.registry = registry if registry is not None else Registry()
        self.globals = Environment()
        self.functions: dict[str, UserMethod] = {}
        self.output: list[str] = []
        self.builtins: dict[str, Callable] = {}

    # --- program execution ---

    def run_program(self, program: ast.Program):
        for item in program.items:
            self.run_item(item)

    def run_item(self, item: ast.Item):
        if isinstance(item, ast.ObjectDecl):
            self.registry.define_object(item)
        elif isinstance(item, ast.FunctionDecl):
            self.define_function(item)
        elif isinstance(item, ast.VarBlock):
            for name, type_name in item.decls:
                self.globals.define(name, FreeVarV(name, type_name), type_name)
        elif isinstance(item, ast.Stmt):
            self.exec_stmt(item, self.globals)
        else:
            raise EvalError(f"cannot execute {type(item).__name__}")

    def define_function(self, decl: ast.FunctionDecl):
        method = UserMethod(decl)
        if decl.owner is not None:
            self.registry.attach_method(decl.owner, decl.symbol, decl.fixity,
                                        method)
        elif decl.fixity in ("infix", "prefix"):
            # unqualified operator definitions attach to the first
            # parameter's type
            owner = decl.params[0][1]
            self.registry.attach_method(owner, decl.symbol, decl.fixity,
                                        method)
        else:
            self.functions[decl.symbol] = method

    # --- statements ---

    def exec_stmt(self, stmt: ast.Stmt, env: Environment):
        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.expr, env)
            env.assign(stmt.target, value)
        elif isinstance(stmt, ast.If):
            if self.eval_condition(stmt.cond, env):
                self.exec_stmt(stmt.then, env)
            elif stmt.els is not None:
                self.exec_stmt(stmt.els, env)
        elif isinstance(stmt, ast.Compound):
            for inner in stmt.body:
                self.exec_stmt(inner, env)
        elif isinstance(stmt, ast.CallStmt):
            self.exec_call_stmt(stmt, env)
        else:
            raise EvalError(f"cannot execute {type(stmt).__name__}", stmt.span)

    def exec_call_stmt(self, stmt: ast.CallStmt, env: Environment):
        from .pretty import render_value
        if stmt.name == "print":
            if len(stmt.args) != 1:
                raise EvalError("print takes exactly one argument", stmt.span)
            self.output.append(render_value(self.eval_expr(stmt.args[0], env)))
            return
        if stmt.name == "kind":
            if len(stmt.args) != 1 or not isinstance(stmt.args[0], ast.Ident):
                raise EvalError("kind takes one identifier", stmt.span)
            name = stmt.args[0].name
            value = env.lookup(name)
            self.output.append(f"{name}: {classify_binding(value)}")
            return
        self.eval_expr(ast.Call(stmt.name, stmt.args, stmt.span), env)

    # --- expressions ---

    def eval_expr(self, expr: ast.Expr, env: Environment) -> Value:
        if isinstance(expr, ast.IntLit):
            return IntegerV(expr.value)
        if isinstance(expr, ast.FailLit):
            return FAIL
        if isinstance(expr, ast.ValueLeaf):
            return expr.value
        if isinstance(expr, ast.Ident):
            binding = env.find(expr.name)
            if binding is None:
                if expr.name == "Return":
                    raise UnassignedReturn("Return read before assignment",
                                           expr.span)
                raise UnknownIdentifier(f"unknown identifier {expr.name!r}",
                                        expr.span)
            return binding.value
        if isinstance(expr, ast.Prefix):
            operand = self.eval_expr(expr.operand, env)
            return self.apply_operator(expr.op, "prefix", [operand], expr)
        if isinstance(expr, ast.Infix):
            if expr.op == "=":
                raise EvalError("'=' is only valid in an if condition",
                                expr.span)
            lhs = self.eval_expr(expr.lhs, env)
            rhs = self.eval_expr(expr.rhs, env)
            return self.apply_operator(expr.op, "infix", [lhs, rhs], expr)
        if isinstance(expr, ast.FieldAccess):
            obj = self.eval_expr(expr.obj, env)
            return self.eval_field(obj, expr.field, expr)
        if isinstance(expr, ast.PairLit):
            return self.eval_pair(expr, env)
        if isinstance(expr, ast.InheritedCall):
            return self.eval_inherited(expr, env)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, env)
        raise EvalError(f"cannot evaluate {type(expr).__name__}")

    def eval_field(self, obj: Value, field: str, expr: ast.Expr) -> Value:
        if obj is FAIL:
            return FAIL
        if isinstance(obj, ComplexV):
            if field == "Re":
                return IntegerV(obj.re)
            if field == "Im":
                return IntegerV(obj.im)
            raise UnknownIdentifier(f"Complex has no field {field!r}",
                                    expr.span)
        if isinstance(obj, (ThunkV, FreeVarV)):
            body, captures = as_repr(obj)
            return thunk(ast.FieldAccess(body, field), INTEGER, captures)
        raise EvalError(f"no field {field!r} on this value", expr.span)

    def eval_pair(self, expr: ast.PairLit, env: Environment) -> Value:
        first = self.eval_expr(expr.first, env)
        second = self.eval_expr(expr.second, env)
        if first is FAIL or second is FAIL:
            return FAIL
        components = []
        for part in (first, second):
            if isinstance(part, IntegerV):
                components.append(part.n)
            elif isinstance(part, ComplexV) and part.im == 0:
                components.append(part.re)
            else:
                raise EvalError("complex components must be integers",
                                expr.span)
        return ComplexV(components[0], components[1])

    def eval_inherited(self, expr: ast.InheritedCall, env: Environment) -> Value:
        inner = expr.expr
        if isinstance(inner, ast.Infix):
            args = [self.eval_expr(inner.lhs, env),
                    self.eval_expr(inner.rhs, env)]
            symbol, fixity = inner.op, "infix"
        elif isinstance(inner, ast.Prefix):
            args = [self.eval_expr(inner.operand, env)]
            symbol, fixity = inner.op, "prefix"
        else:
            raise EvalError("inherited call requires an operator application",
                            expr.span)
        if any(a is FAIL for a in args):
            return FAIL
        impl = self.registry.resolve_method(expr.ancestor, symbol, fixity,
                                            span=expr.span)
        return self.invoke_method(impl, args, env)

    def eval_call(self, expr: ast.Call, env: Environment) -> Value:
        builtin = self.builtins.get(expr.name)
        if builtin is not None:
            args = [self.eval_expr(a, env) for a in expr.args]
            try:
                return builtin(args, self, env)
            except EvalError as err:
                err.span = err.span or expr.span
                raise
        method = self.functions.get(expr.name)
        if method is not None:
            args = [self.eval_expr(a, env) for a in expr.args]
            return self.invoke_method(method, args, env)
        raise UnknownIdentifier(f"unknown function {expr.name!r}", expr.span)

    # --- operator application ---

    def apply_operator(self, op: str, fixity: str, args: list[Value],
                       expr: ast.Expr) -> Value:
        if any(a is FAIL for a in args):
            return FAIL
        if not all(is_concrete(a) for a in args):
            return self.make_thunk(op, fixity, args)
        if all(isinstance(a, IntegerV) for a in args):
            return int_arith(op, args)
        return self.dispatch(op, fixity, args, expr)

    def dispatch(self, op: str, fixity: str, args: list[Value],
                 expr: ast.Expr) -> Value:
        receiver = type_name_of(args[0])
        if receiver == INTEGER:
            # mixed integer/object operands dispatch on the promoted type
            others = [type_name_of(a) for a in args[1:]]
            receiver = others[0] if others else INTEGER
            if receiver == "Complex":
                args = [promote(a) if isinstance(a, IntegerV) else a
                        for a in args]
        span = getattr(expr, "span", None)
        if receiver not in self.registry.types:
            native = arith(op, args)
            if native is not None:
                return native
            raise NoSuchMethod(f"no {fixity} {op!r} for {receiver}", span)
        impl = self.registry.resolve_method(
            receiver, op, fixity, lambda m: self._args_fit(m, args), span)
        return self.invoke_method(impl, args, None)

    def _args_fit(self, impl, args) -> bool:
        """Whether the parameter types of ``impl`` accept the actual
        arguments (after integer promotion)."""
        if isinstance(impl, NativeMethod):
            return impl.arity == len(args)
        params = impl.decl.params
        if len(params) != len(args):
            return False
        for (_, slot_type), arg in zip(params, args):
            if not self.registry.kind_compatible(KindedType(slot_type),
                                                 KindedType(type_name_of(arg))):
                return False
        return True

    def make_thunk(self, op: str, fixity: str, args: list[Value]) -> Value:
        return operator_thunk(op, fixity, args)

    # --- method invocation ---

    def invoke_method(self, impl, args: list[Value],
                      env: Optional[Environment]) -> Value:
        if isinstance(impl, NativeMethod):
            return impl.fn(args, self)
        decl = impl.decl
        if decl.body is None:
            # abstract signature: the application stays symbolic
            return self.make_thunk(decl.symbol, decl.fixity, args)
        frame = Environment(parent=self.globals)
        for (name, slot_type), arg in zip(decl.params, args):
            if slot_type == "Complex" and isinstance(arg, IntegerV):
                arg = promote(arg)
            frame.define(name, arg, slot_type)
        par_frame = Environment(parent=frame, is_par=True)
        for name, type_name in decl.par_decls:
            par_frame.declare_par(name, type_name)
        self.exec_stmt(decl.body, par_frame)
        result = par_frame.find("Return")
        if result is None:
            raise UnassignedReturn(f"{decl.symbol!r} never assigned Return",
                                   decl.span)
        return result.value

    # --- conditions and pattern matching ---

    def eval_condition(self, cond: ast.Expr, env: Environment) -> bool:
        if isinstance(cond, ast.Infix) and cond.op == "=":
            subject = self.eval_expr(cond.lhs, env)
            return self.match_pattern(subject, cond.rhs, env)
        value = self.eval_expr(cond, env)
        if value is FAIL:
            return False
        if isinstance(value, IntegerV):
            return value.n != 0
        return True

    def match_pattern(self, subject: Value, pattern: ast.Expr,
                      env: Environment) -> bool:
        """Match a subject value against a pattern whose unbound leaves are
        ``par`` variables. On success the variables are bound; on failure
        the environment is untouched. ``= fail`` is an identity test and a
        pattern without par variables is a structural equality test."""
        if isinstance(pattern, ast.FailLit):
            return subject is FAIL
        if not self._has_unbound_par(pattern, env):
            return value_equal(subject, self.eval_expr(pattern, env))
        trial: dict[str, Value] = {}
        if self._match(subject, pattern, env, trial):
            for name, value in trial.items():
                frame = env.par_frame_declaring(name)
                frame.define(name, value, frame.par_types[name])
            return True
        return False

    def _has_unbound_par(self, pattern: ast.Expr, env: Environment) -> bool:
        return any(env.par_frame_declaring(name) is not None
                   and env.find(name) is None
                   for name in free_idents(pattern))

    def _match(self, subject: Value, pattern: ast.Expr, env: Environment,
               trial: dict[str, Value]) -> bool:
        if isinstance(pattern, ast.Ident):
            frame = env.par_frame_declaring(pattern.name)
            if frame is not None:
                if env.find(pattern.name) is not None:
                    raise ReboundParVariable(
                        f"par variable {pattern.name!r} already bound",
                        pattern.span)
                if pattern.name in trial:
                    return value_equal(subject, trial[pattern.name])
                trial[pattern.name] = subject
                return True
            return value_equal(subject, self.eval_expr(pattern, env))
        if isinstance(pattern, (ast.IntLit, ast.FailLit, ast.ValueLeaf)):
            return value_equal(subject, self.eval_expr(pattern, env))
        if isinstance(pattern, (ast.Infix, ast.Prefix)):
            if not isinstance(subject, ThunkV):
                return False
            body = subject.fo.body
            captures = subject.fo.capture_map()
            if isinstance(pattern, ast.Infix):
                if not (isinstance(body, ast.Infix) and body.op == pattern.op):
                    return False
                return (self._match(value_of_repr(body.lhs, captures),
                                    pattern.lhs, env, trial)
                        and self._match(value_of_repr(body.rhs, captures),
                                        pattern.rhs, env, trial))
            if not (isinstance(body, ast.Prefix) and body.op == pattern.op):
                return False
            return self._match(value_of_repr(body.operand, captures),
                               pattern.operand, env, trial)
        raise EvalError(f"unsupported pattern {type(pattern).__name__}")

    # --- forcing ---

    def force(self, v: Value, env: Optional[Environment] = None) -> Value:
        """Re-evaluate a thunk with current bindings overlaid on its
        captures. Thunks with remaining free variables come back as
        residual thunks; non-thunks are returned unchanged. A free
        variable that has since been assigned yields its current value."""
        env = env if env is not None else self.globals
        if isinstance(v, FreeVarV):
            binding = env.find(v.name)
            if binding is not None and not isinstance(binding.value, FreeVarV):
                return self.force(binding.value, env)
            return v
        if not isinstance(v, ThunkV):
            return v
        overlay = Environment()
        for name, captured in v.fo.captures:
            binding = env.find(name)
            if binding is not None and not isinstance(binding.value, FreeVarV):
                overlay.define(name, self.force(binding.value, env),
                               binding.declared_type)
            else:
                overlay.define(name, captured)
        return self.eval_expr(v.fo.body, overlay)
