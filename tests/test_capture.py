"""Captures are free variables: a functional object captures exactly the
free variables of its body, each as the ``FreeVarV`` of its own name, and
a value leaf holds only a concrete value. A name bound when an object is
made is spliced into its body as that value, so combining such objects
never mixes up their variables."""

from hypothesis import example, given, settings, strategies as st

from psipp import ast
from psipp.algebra import make_interpreter, simplify
from psipp.cli import Session
from psipp.errors import PsiError, RewriteLimitExceeded
from psipp.evaluator import (DEFAULT_REWRITE_LIMIT, free_idents,
                             operator_thunk, value_equal)
from psipp.parser import parse_expression, parse_program
from psipp.pretty import render_value
from psipp.values import ComplexV, FreeVarV, ThunkV

from bindings import lookup
from test_force import run, shared_programs, steps_needed
from test_totality import near_valid

DECLS = "var x, y : Algebra; var z : Complex;"


def session():
    interp = make_interpreter()
    interp.run_program(parse_program(DECLS))
    return interp


def ev(interp, source):
    return interp.eval_expr(parse_expression(source), interp.globals)


# --- the invariant ---

def assert_captures_are_free_variables(v):
    """Every capture of ``v`` is the free variable of its name, the captured
    names are exactly the body's identifiers, and every value leaf of the
    body is concrete."""
    if not isinstance(v, ThunkV):
        return
    for name, captured in v.captures:
        assert isinstance(captured, FreeVarV) and captured.name == name, \
            (name, captured)
    assert {name for name, _ in v.captures} == free_idents(v.body)
    seen: set[int] = set()
    pending = [v.body]
    while pending:
        e = pending.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, ast.ValueLeaf):
            assert not isinstance(e.value, (ThunkV, FreeVarV)), e.value
        pending.extend(ast.operands(e))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(near_valid())
def test_programs_build_only_free_variable_captures(source):
    for trace in (False, True):
        run_session = Session(trace=trace)
        try:
            run_session.run_source(source)
        except PsiError:
            pass
        for value in run_session.interp.globals.values():
            assert_captures_are_free_variables(value)


@settings(max_examples=100, deadline=None)
@given(shared_programs())
@example(("var z : Complex;\nt0 := z + z;\nt1 := t0 + t0;\nt2 := t1 + t1;\n"
          "t3 := t2 + t2;\nt4 := t3 * t3;\nt5 := t4 * t4;", [],
          ["t0", "t1", "t2", "t3", "t4", "t5"]))
def test_shared_temporaries_capture_free_variables(program):
    source, rebinds, temps = program
    interp = run(source)
    for rebind in ["", *rebinds]:
        interp.run_program(parse_program(rebind))
        for name in temps:
            value = lookup(interp.globals, name)
            assert_captures_are_free_variables(value)
            try:
                assert_captures_are_free_variables(simplify(value))
            except RewriteLimitExceeded:
                # a chain of squarings outgrows any rewrite limit
                assert steps_needed(value.body) > DEFAULT_REWRITE_LIMIT
            assert_captures_are_free_variables(interp.force(value))


# --- substitution ---

def test_substitution_survives_combination():
    # a5 is x + y made with x bound to 5; b, made before, keeps x free
    interp = session()
    b = ev(interp, "x * y")
    interp.run_program(parse_program("x := 5; a5 := x + y;"))
    a5 = lookup(interp.globals, "a5")
    a5_b = simplify(operator_thunk("*", [a5, b]))
    b_a5 = simplify(operator_thunk("*", [b, a5]))
    assert render_value(a5_b) == "5*(x*y) + y*(x*y)"
    assert render_value(b_a5) == "5*(x*y) + x*y*y"
    # forcing binds only the free variables left: a later x := 7 is b's x
    interp.run_program(parse_program("x := 7;"))
    assert render_value(interp.force(a5)) == "5 + y"
    assert render_value(interp.force(b)) == "7*y"


def test_substituted_object_keeps_declared_types():
    interp = session()
    interp.run_program(parse_program("x := z + y; nested := x * y;"))
    simplified = simplify(lookup(interp.globals, "nested"))
    assert render_value(simplified) == "z*y + y*y"
    assert dict(simplified.captures) == {"y": FreeVarV("y", "Algebra"),
                                         "z": FreeVarV("z", "Complex")}


# --- forcing commutes with combining, under substitution ---

NAMES = ("x", "y", "z")
small = st.integers(-3, 3)


def sources(max_leaves=6):
    leaf = st.one_of(st.sampled_from(NAMES), small.map(str), st.just("i"))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(sub, st.sampled_from("+-*"), sub)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            sub.map(lambda s: f"(-{s})")),
        max_leaves=max_leaves)


gaussian = st.one_of(small.map(lambda n: ("int", n)),
                     st.tuples(small, small).map(lambda c: ("complex", c)))
# what a name is bound to: a concrete value, a variable, or an expression
replacements = st.one_of(gaussian, st.sampled_from(NAMES).map(
    lambda n: ("var", n)), sources(3).map(lambda s: ("expr", s)))


def make_value(interp, spec):
    kind, data = spec
    if kind == "int":
        return data
    if kind == "complex":
        return ComplexV(*data)
    if kind == "var":
        return lookup(interp.globals, data)
    return ev(interp, data)


def ev_bound(interp, source, substitutions):
    """``source`` evaluated with each name of ``substitutions`` bound first,
    to its value made over the free variables; a name's first binding
    wins."""
    env = {}  # a frame, read before the globals
    for name, spec in substitutions:
        if name not in env:
            env[name] = make_value(interp, spec)
    return interp.eval_expr(parse_expression(source), env)


substitution_lists = st.lists(st.tuples(st.sampled_from(NAMES), replacements),
                              max_size=3)


@settings(max_examples=200, deadline=None)
@given(sources(), sources(), st.sampled_from("+-*"), substitution_lists,
       substitution_lists,
       st.dictionaries(st.sampled_from(NAMES), gaussian, max_size=2))
@example("x + y", "x * y", "*", [("x", ("int", 5))], [], {})
@example("x * y", "x + y", "*", [], [("x", ("int", 5))], {})
def test_force_commutes_with_combining(a_src, b_src, op, a_subs, b_subs,
                                       bound):
    interp = session()
    a = ev_bound(interp, a_src, a_subs)
    b = ev_bound(interp, b_src, b_subs)
    assert_captures_are_free_variables(a)
    assert_captures_are_free_variables(b)
    env = {name: make_value(interp, spec) for name, spec in bound.items()}
    combined = interp.force(operator_thunk(op, [a, b]), env)
    separately = operator_thunk(op, [interp.force(a, env),
                                     interp.force(b, env)])
    assert value_equal(simplify(combined), simplify(separately))
