"""Evaluator with lazy functional objects: a tree walker for statements,
expressions and forcing, and the shapes of the Complex product in user
method bodies compiled to closures.

Evaluation is eager on concrete operands and lazy otherwise: the first
operator application that sees a free variable or a thunk among its
operands becomes a thunk itself, without invoking any user code. ``fail``
is absorbing in operand position. A method body runs in a fresh frame,
a dict of its parameters, locals and ``par`` pattern variables, read
before the globals; ``Return`` is the frame's own. A body runs once per
call, so it is compiled at its first run and its code is kept with its
``UserMethod``. One rule picks what is compiled: a node is compiled where
``concrete`` shows it pays, in the shapes that ``Complex.infix*`` runs,
and walked elsewhere; a compiled node applies its rule through the
walker's helper. A level of nesting costs one Python frame either way.
An application on concrete operands, not all integers, runs the method
that ``Registry.decide`` picks for their types; the decision, and an
inherited call's method, are memoised in the registry by operator and
operand types until a type or a method is added.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Optional

from . import ast
from .errors import (EvalError, NoSuchMethod, PsiError, ReboundParVariable,
                     UnassignedReturn, UnknownIdentifier)
from .objects import Registry, UserMethod
from .pretty import render_value
from .values import (FAIL, INT_INFIX, CaptureSource, ComplexV, FreeVarV,
                     ThunkV, Value, arith, classify_binding, int_arith,
                     promote, thunk, type_name_of)

DEFAULT_REWRITE_LIMIT = 10_000
# calls that are statements writing to the line sink, never expressions
STATEMENT_CALLS = ("print", "kind")
_OPERATORS = (ast.Infix, ast.Prefix)
# the fields of a complex value, each an integer component
_COMPLEX_FIELDS = {"Re": attrgetter("re"), "Im": attrgetter("im")}
Frame = dict[str, Value]  # a method's names, or the globals at top level


def as_repr(v: Value) -> tuple[ast.Expr, CaptureSource]:
    """Operand representation for thunk bodies and the source of its
    captures: sub-thunks inline their body and hand over their captures
    record, free variables stay identifier leaves and capture themselves,
    values become leaves and capture nothing."""
    if isinstance(v, ThunkV):
        return v.body, v.captures
    if isinstance(v, FreeVarV):
        return ast.Ident(v.name), v
    return ast.ValueLeaf(v), {}


def value_of_repr(expr: ast.Expr, captures: dict[str, Value]) -> Value:
    """Inverse of as_repr for one operand subtree."""
    if isinstance(expr, ast.ValueLeaf):
        return expr.value
    if isinstance(expr, ast.Ident) and expr.name in captures:
        return captures[expr.name]
    return thunk(expr, {name: captures[name] for name in free_idents(expr)})


def operator_thunk(op: str, args: list[Value]) -> ThunkV:
    """The symbolic application ``op(args)``, infix on two operands and
    prefix on one, over its operands' captures, merged when first read; on
    a capture clash the right operand wins."""
    if len(args) == 2:
        (lhs, lhs_captures), (rhs, rhs_captures) = map(as_repr, args)
        return thunk(ast.Infix(op, lhs, rhs), lhs_captures, rhs_captures)
    operand, captures = as_repr(args[0])
    return thunk(ast.Prefix(op, operand), captures)


def free_idents(expr: ast.Expr) -> set[str]:
    """Names of the identifiers in ``expr``. A subtree shared by several
    parents is visited once; nodes are told apart by ``id``, because
    hashing a node walks it as a tree."""
    out: set[str] = set()
    seen: set[int] = set()
    pending = [expr]
    while pending:
        e = pending.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, ast.Ident):
            out.add(e.name)
        else:
            pending.extend(ast.operands(e))
    return out


def value_equal(a: Value, b: Value) -> bool:
    if a is FAIL or b is FAIL:
        return a is b
    if isinstance(a, ComplexV) or isinstance(b, ComplexV):
        a, b = promote(a), promote(b)
    if not (isinstance(a, ThunkV) and isinstance(b, ThunkV)):
        return a == b
    if a.captures != b.captures:
        return False
    # ``==`` would unfold bodies built apart into trees: compare each pair
    # of nodes once, by type and every field but the operands
    seen: set[tuple[int, int]] = set()
    pending = [(a.body, b.body)]
    while pending:
        x, y = pending.pop()
        if x is not y and (id(x), id(y)) not in seen:
            seen.add((id(x), id(y)))
            xs, ys = ast.operands(x), ast.operands(y)
            if type(x) is not type(y) or len(xs) != len(ys) or any(
                    v != getattr(y, name) for name in x.__slots__
                    if (v := getattr(x, name)) is not xs  # a call's args
                    and not isinstance(v, ast.Expr)):
                return False
            pending += zip(xs, ys)
    return True


def pair_value(first: Value, second: Value, expr: ast.PairLit) -> Value:
    """The complex value ``(first, second)``, of the components' values;
    ``fail`` if either is."""
    if first is FAIL or second is FAIL:
        return FAIL
    components = []
    for part in (first, second):
        if type(part) is int:
            components.append(part)
        elif isinstance(part, ComplexV) and part.im == 0:
            components.append(part.re)
        else:
            raise EvalError("complex components must be integers", expr.span)
    return ComplexV(components[0], components[1])


class Interpreter:
    """One evaluation session: a type registry, the globals, the
    line sink ``emit`` that ``print``/``kind`` statements write to, and the
    settings of ``simplify``: its step limit and its trace into the sink."""

    def __init__(self, max_rewrites: int = DEFAULT_REWRITE_LIMIT,
                 trace: bool = False, emit: Callable[[str], None] = print):
        self.registry = Registry()
        self.globals: Frame = {}
        self.functions: dict[str, UserMethod] = {}
        self.emit = emit
        self.builtins: dict[str, Callable] = {}
        self.max_rewrites = max_rewrites
        self.trace = emit if trace else None  # step hook
        # user method bodies run so far; a node whose evaluation ran one
        # (a print, a global assignment) is not memoised
        self.method_runs = 0

    # --- program execution ---

    def run_program(self, program: ast.Program):
        for item in program.items:
            self.run_item(item)

    def run_item(self, item: ast.Item):
        """Run one top-level item. An error raised without a span gets the
        item's; so does nesting too deep for the Python stack."""
        kind = type(item)
        try:
            if kind is ast.ObjectDecl:
                self.registry.define_object(item)
            elif kind is ast.FunctionDecl:
                self.define_function(item)
            elif kind is ast.VarBlock:
                for name, type_name in item.decls:
                    self.globals[name] = FreeVarV(name, type_name)
            else:
                self.exec_stmt(item, self.globals)
        except PsiError as err:
            err.span = item.span if err.span is None else err.span
            raise
        except RecursionError:
            raise EvalError("expression nested too deeply",
                            item.span) from None

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

    # --- statements and expressions, walked ---

    def scope(self, env: Frame, name: str) -> Frame:
        """Where ``name`` is read and assigned from the frame ``env``: the
        frame if it binds the name, else the globals if they do, else the
        frame. ``Return`` is always the frame's own."""
        if name in env or name == "Return" or name not in self.globals:
            return env
        return self.globals

    def exec_stmt(self, stmt: ast.Stmt, env: Frame,
                  par_names: frozenset[str] = frozenset()):
        """Run ``stmt`` in ``env``, with the par variables ``par_names``."""
        kind = type(stmt)
        if kind is ast.Assign:
            # the value first: evaluating it may bind the target
            target, value = stmt.target, self.eval_expr(stmt.expr, env)
            # a target the frame binds is assigned here (scope's first rule)
            (env if target in env else self.scope(env, target))[target] = value
        elif kind is ast.Call:
            if stmt.name not in STATEMENT_CALLS:
                self.eval_expr(stmt, env)
            elif stmt.name == "print":
                if len(stmt.args) != 1:
                    raise EvalError("print takes exactly one argument",
                                    stmt.span)
                value = self.eval_expr(stmt.args[0], env)
                try:
                    self.emit(render_value(value))
                except EvalError as err:
                    err.span = stmt.span if err.span is None else err.span
                    raise
            else:  # kind
                if len(stmt.args) != 1 \
                        or not isinstance(stmt.args[0], ast.Ident):
                    raise EvalError("kind takes one identifier", stmt.span)
                value = self.eval_expr(stmt.args[0], env)
                self.emit(f"{stmt.args[0].name}: {classify_binding(value)}")
        elif kind is ast.If:
            cond = stmt.cond
            if type(cond) is ast.Infix and cond.op == "=":
                holds = self.match_pattern(self.eval_expr(cond.lhs, env),
                                           cond.rhs, env, par_names)
            else:
                value = self.eval_expr(cond, env)
                holds = value is not FAIL and value != 0  # not on fail or 0
            if holds:
                self.exec_stmt(stmt.then, env, par_names)
            elif stmt.els is not None:
                self.exec_stmt(stmt.els, env, par_names)
        elif kind is ast.Compound:
            for inner in stmt.body:
                self.exec_stmt(inner, env, par_names)
        else:
            raise EvalError(f"cannot execute {kind.__name__}", stmt.span)

    def eval_expr(self, expr: ast.Expr, env: Frame) -> Value:
        """The value of ``expr``; each operand is evaluated by
        ``eval_expr`` again, so a level of nesting costs one frame."""
        kind = type(expr)
        if kind is ast.Ident:
            value = self.scope(env, expr.name).get(expr.name)
            if value is None:
                if expr.name == "Return":
                    raise UnassignedReturn("Return read before assignment",
                                           expr.span)
                raise UnknownIdentifier(f"unknown identifier {expr.name!r}",
                                        expr.span)
            return value
        if kind is ast.Infix:
            if expr.op == "=":
                raise EvalError("'=' is only valid in an if condition",
                                expr.span)
            # an identifier operand the frame binds is read here (scope's
            # first rule), and any other operand evaluated
            lhs, rhs = expr.lhs, expr.rhs
            a = env[lhs.name] if type(lhs) is ast.Ident and lhs.name in env \
                else self.eval_expr(lhs, env)
            b = env[rhs.name] if type(rhs) is ast.Ident and rhs.name in env \
                else self.eval_expr(rhs, env)
            return self.apply_operator(expr.op, [a, b], expr)
        if kind is ast.FieldAccess:
            return self.field_of(self.eval_expr(expr.obj, env), expr)
        if kind is ast.PairLit:
            return pair_value(self.eval_expr(expr.first, env),
                              self.eval_expr(expr.second, env), expr)
        if kind is ast.Prefix:
            operand = self.eval_expr(expr.operand, env)
            return self.apply_operator(expr.op, [operand], expr)
        if kind is ast.Call:
            return self.eval_call(expr, env)
        if kind is ast.InheritedCall:
            if type(expr.expr) not in _OPERATORS:
                raise EvalError("inherited call requires an operator "
                                "application", expr.span)
            args = [self.eval_expr(a, env) for a in ast.operands(expr.expr)]
            return self.apply_inherited(expr, args)
        if kind is ast.IntLit or kind is ast.ValueLeaf:
            return expr.value
        if kind is ast.FailLit:
            return FAIL
        raise EvalError(f"cannot evaluate {kind.__name__}")

    def field_of(self, obj: Value, expr: ast.FieldAccess) -> Value:
        """The field ``expr.field`` of ``obj``, the value of ``expr.obj``."""
        field = expr.field
        if obj is FAIL:
            return FAIL
        if isinstance(obj, ComplexV):
            part = _COMPLEX_FIELDS.get(field)
            if part is None:
                raise UnknownIdentifier(f"Complex has no field {field!r}",
                                        expr.span)
            return part(obj)
        if isinstance(obj, (ThunkV, FreeVarV)):
            body, captures = as_repr(obj)
            return thunk(ast.FieldAccess(body, field), captures)
        raise EvalError(f"no field {field!r} on this value", expr.span)

    def eval_call(self, expr: ast.Call, env: Frame) -> Value:
        builtin = self.builtins.get(expr.name)
        if builtin is not None:
            args = [self.eval_expr(a, env) for a in expr.args]
            try:
                return builtin(args, self, env)
            except EvalError as err:
                err.span = expr.span if err.span is None else err.span
                raise
        method = self.functions.get(expr.name)
        if method is not None:
            args = [self.eval_expr(a, env) for a in expr.args]
            return self.invoke_method(method, args, expr.span)
        raise UnknownIdentifier(f"unknown function {expr.name!r}", expr.span)

    # --- operator application ---

    def apply_inherited(self, expr: ast.InheritedCall,
                        args: list[Value]) -> Value:
        """``Ancestor.(op args)``: the operator resolved from the ancestor
        on, on the values ``args`` of the operands of ``expr.expr``. The
        method is memoised in the registry until it changes."""
        if args[0] is FAIL or args[-1] is FAIL:  # one or two operands
            return FAIL
        registry, op = self.registry, expr.expr.op
        key = (expr.ancestor, op, len(args))
        impl = registry.memo.get(key)
        if impl is None:
            impl = registry.memo[key] = registry.resolve_method(
                expr.ancestor, op, ast.FIXITY[len(args)], span=expr.span)
        return self.invoke_method(impl, args, expr.span)

    def apply_operator(self, op: str, args: list[Value],
                       expr: ast.Expr) -> Value:
        concrete = integers = True
        for a in args:
            if a is FAIL:
                return FAIL
            kind = type(a)
            if kind is ThunkV or kind is FreeVarV:
                concrete = False
            elif kind is not int:
                integers = False
        if not concrete:
            return self.make_thunk(op, args)
        if integers:
            try:
                return int_arith(op, args)
            except EvalError as err:  # the product bound, at the product
                err.span = expr.span
                raise
        return self.dispatch(op, args, expr)

    def dispatch(self, op: str, args: list[Value], expr: ast.Expr) -> Value:
        """``op`` on concrete operands, integers, complex values and
        registers, not all integers, as ``Registry.decide`` decides for
        their types. The decision is memoised in the registry by the
        operator and the operands' Python types, which fix their type
        names, until the registry changes; an error is raised every time."""
        registry, span = self.registry, expr.span
        key = (op, *map(type, args))
        decision = registry.memo.get(key)
        if decision is None:
            decision = registry.memo[key] = registry.decide(
                op, [type_name_of(a) for a in args], span)
        impl, promotes, receiver = decision
        if promotes:
            args = [promote(a) if p else a for a, p in zip(args, promotes)]
        if impl is not None:
            return self.invoke_method(impl, args, span)
        native = arith(op, args)
        if native is None:
            raise NoSuchMethod(f"no {ast.FIXITY[len(args)]} {op!r} for "
                               f"{receiver}", span)
        return native

    def make_thunk(self, op: str, args: list[Value]) -> Value:
        return operator_thunk(op, args)

    # --- method invocation ---

    def invoke_method(self, impl, args: list[Value], span=None) -> Value:
        """Run ``impl`` on ``args``. An error that leaves the method
        without a span gets ``span``, that of the application: the
        prelude's methods have no positions of their own. An error that
        leaves a user body is named after the innermost one."""
        try:
            if type(impl) is not UserMethod:
                return impl(args, self)  # a native
            decl = impl.decl
            if decl.body is None:
                # abstract signature: the application stays symbolic
                return self.make_thunk(decl.symbol, args)
            self.method_runs += 1
            # one frame for the parameters, the locals and the par
            # variables; an integer in a Complex slot is promoted
            frame = {name: promote(arg)
                     if slot == "Complex" and type(arg) is int else arg
                     for (name, slot), arg in zip(decl.params, args)}
            self.run_body(impl, frame)
        except PsiError as err:
            err.span = span if err.span is None else err.span
            if err.method is None and isinstance(impl, UserMethod):
                owner = f"{decl.owner}." if decl.owner else ""
                fixity = "" if decl.fixity == "ordinary" else decl.fixity
                err.method = owner + fixity + decl.symbol
            raise
        result = frame.get("Return")
        if result is None:
            raise UnassignedReturn(f"{decl.symbol!r} never assigned Return",
                                   decl.span)
        return result

    def run_body(self, impl: UserMethod, frame: Frame):
        """Run a user body in its frame, compiled at the body's first run."""
        (impl.code or impl.compile(compile_stmt))(self, frame)

    # --- pattern matching ---

    def match_pattern(self, subject: Value, pattern: ast.Expr, env: Frame,
                      par_names: frozenset[str] = frozenset()) -> bool:
        """Match a subject value against a pattern whose leaves among
        ``par_names`` not bound in ``env`` are ``par`` variables. On
        success the variables are bound in ``env``; on failure nothing
        changes. ``= fail`` is an identity test and a pattern without par
        variables is a structural equality test."""
        if isinstance(pattern, ast.FailLit):
            return subject is FAIL
        if not any(name in par_names and name not in env
                   for name in free_idents(pattern)):
            return value_equal(subject, self.eval_expr(pattern, env))
        trial: dict[str, Value] = {}
        if self._match(subject, pattern, env, par_names, trial):
            env.update(trial)
            return True
        return False

    def _match(self, subject: Value, pattern: ast.Expr, env: Frame,
               par_names: frozenset[str], trial: dict[str, Value]) -> bool:
        if isinstance(pattern, ast.Ident):
            if pattern.name in par_names:
                if pattern.name in env:
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
            body = subject.body
            if type(body) is not type(pattern) or body.op != pattern.op:
                return False
            captures = subject.capture_map()
            pairs = zip(ast.operands(body), ast.operands(pattern))
            return all(self._match(value_of_repr(part, captures), sub, env,
                                   par_names, trial) for part, sub in pairs)
        raise EvalError(f"unsupported pattern {type(pattern).__name__}")

    # --- forcing ---

    def force(self, v: Value, env: Optional[Frame] = None) -> Value:
        """Re-evaluate a thunk with the bindings seen from ``env``, by
        default the globals, overlaid on its captures. Thunks with
        remaining free variables come back as residual thunks; non-thunks
        are returned unchanged. A free variable that has since been
        assigned yields its current value. Every identifier of a body is
        captured, so the overlay binds each name the body reads and no
        read falls through it to the globals.

        A subterm shared by several parents is evaluated once per force,
        so the cost is linear in the body's DAG. A subterm whose
        evaluation ran a user method body is evaluated again at each
        occurrence, so its effects happen once per occurrence."""
        env = self.globals if env is None else env
        if isinstance(v, FreeVarV):
            bound = self.scope(env, v.name).get(v.name)
            if bound is not None and not isinstance(bound, FreeVarV):
                return self.force(bound, env)
            return v
        if not isinstance(v, ThunkV):
            return v
        overlay: Frame = {}
        for name, captured in v.captures:
            bound = self.scope(env, name).get(name)
            if bound is not None and not isinstance(bound, FreeVarV):
                overlay[name] = self.force(bound, env)
            else:
                overlay[name] = captured
        # post-order on an explicit stack of (node, None) to enter and
        # (node, method runs at its entry) to apply to its operands' values;
        # the memo's keys are ids of body nodes, which outlive it
        memo: dict[int, Value] = {}
        values: list[Value] = []
        pending: list[tuple[ast.Expr, Optional[int]]] = [(v.body, None)]
        while pending:
            e, runs = pending.pop()
            if runs is None:
                value = memo.get(id(e))
                if value is not None:
                    values.append(value)
                    continue
                runs = self.method_runs
                kind = type(e)  # eval_expr rejects an '=' application
                if kind in _OPERATORS and e.op != "=" \
                        or kind is ast.FieldAccess:
                    pending.append((e, runs))
                    pending.extend((a, None) for a in reversed(ast.operands(e)))
                    continue
                value = self.eval_expr(e, overlay)
            elif type(e) is ast.FieldAccess:
                value = self.field_of(values.pop(), e)
            else:
                args = values[-len(ast.operands(e)):]
                del values[-len(args):]
                value = self.apply_operator(e.op, args, e)
            if runs == self.method_runs:
                memo[id(e)] = value
            values.append(value)
        return values[0]


# --- user method bodies: compiled where ``concrete`` shows it pays ---
#
# A body runs once per call, so at its first run it is compiled once to a
# tree of closures ``(interp, env) -> Value`` (Feeley and Lapalme, "Using
# closures for code generation", 1987); a statement's closure returns
# None. The rule: compiled where ``concrete`` shows it pays, walked
# elsewhere. ``Complex.infix*`` runs an assignment, a compound, an ``if``
# on ``X = fail``, and two-operand infix operators, pairs and inherited
# calls, so those are compiled: each closure applies its node's rule by
# the helper the walker calls, after testing inline the helper's case that
# the product runs. An identifier operand, and the complex field of an
# operand, are read in place by the closure that uses them, which runs
# the operand's code or ``field_of`` for any other case (see ``in_place``).
# ``Return`` is assigned in the frame, whose own it always is. Every other
# node compiles to one run of the walker, given the body's par variables,
# which raises the node's error when, and only if, it is reached; so
# compiling raises nothing.

Code = Callable[[Interpreter, Frame], Optional[Value]]


def compile_stmt(stmt: ast.Stmt,
                 par_names: frozenset[str] = frozenset()) -> Code:
    kind = type(stmt)
    if kind is ast.Assign:
        target, value = stmt.target, compile_expr(stmt.expr)
        own = target == "Return"

        def assign(interp, env):
            result = value(interp, env)  # first: it may bind the target
            # scope's first two rules: the frame's own Return, a name it binds
            (env if own or target in env
             else interp.scope(env, target))[target] = result
        return assign
    if kind is ast.Compound:
        body = tuple(compile_stmt(inner, par_names) for inner in stmt.body)

        def run_compound(interp, env):
            for inner in body:
                inner(interp, env)
        return run_compound
    cond = stmt.cond if kind is ast.If else None
    if type(cond) is ast.Infix and cond.op == "=" \
            and type(cond.rhs) is ast.FailLit:
        lhs = cond.lhs
        name, part, node = in_place(lhs)
        subject = compile_expr(node)
        then = compile_stmt(stmt.then, par_names)
        els = compile_stmt(stmt.els, par_names) if stmt.els else None

        def run_if(interp, env):
            a = env[name] if name in env else subject(interp, env)
            if part is not None:
                a = part(a) if type(a) is ComplexV else interp.field_of(a, lhs)
            if a is FAIL:  # match_pattern's case
                then(interp, env)
            elif els is not None:
                els(interp, env)
        return run_if
    return lambda interp, env: interp.exec_stmt(stmt, env, par_names)


def in_place(expr: ast.Expr) -> tuple[Optional[str], Optional[Callable],
                                      ast.Expr]:
    """How the closure that uses the operand ``expr`` reads it in place:
    the name it reads in the frame, if it reads an identifier, else None;
    the getter of the complex field it then takes, or None; and the node
    whose code it runs when the frame does not bind the name. The closure
    takes the field of a value that is no ``ComplexV`` by ``field_of``."""
    part = None
    if type(expr) is ast.FieldAccess and expr.field in _COMPLEX_FIELDS:
        part, expr = _COMPLEX_FIELDS[expr.field], expr.obj
    return expr.name if type(expr) is ast.Ident else None, part, expr


def compile_expr(expr: ast.Expr) -> Code:
    kind = type(expr)
    if not (kind is ast.Infix and expr.op != "=" or kind is ast.PairLit
            or kind is ast.InheritedCall and type(expr.expr) is ast.Infix):
        return lambda interp, env: interp.eval_expr(expr, env)
    # two operands, each read in place; an integer kernel on two integers,
    # the case the helper tests first; else the helper
    lhs, rhs = ast.operands(expr.expr if kind is ast.InheritedCall else expr)
    (an, ap, a_node), (bn, bp, b_node) = in_place(lhs), in_place(rhs)
    ac, bc = compile_expr(a_node), compile_expr(b_node)
    if kind is ast.Infix:
        op, kernel = expr.op, INT_INFIX.get(expr.op)

        def rest(interp, a, b):
            return interp.apply_operator(op, [a, b], expr)
    elif kind is ast.PairLit:
        kernel = ComplexV  # two integer components

        def rest(interp, a, b):
            return pair_value(a, b, expr)
    else:
        kernel = None

        def rest(interp, a, b):
            return interp.apply_inherited(expr, [a, b])

    def binary(interp, env):
        a = env[an] if an in env else ac(interp, env)
        if ap is not None:
            a = ap(a) if type(a) is ComplexV else interp.field_of(a, lhs)
        b = env[bn] if bn in env else bc(interp, env)
        if bp is not None:
            b = bp(b) if type(b) is ComplexV else interp.field_of(b, rhs)
        if kernel is not None and type(a) is int and type(b) is int:
            try:
                return kernel(a, b)
            except EvalError as err:  # the product bound, at the product
                err.span = expr.span
                raise
        return rest(interp, a, b)
    return binary
