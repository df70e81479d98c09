"""Captures are free variables: a functional object captures exactly the
free variables of its body, each as the ``FreeVarV`` of its own name, and
a value leaf holds only a concrete value. ``substitute`` splices a value
into the body, so combining substituted objects never mixes up their
variables."""

from hypothesis import example, given, settings, strategies as st

from psipp import ast
from psipp.algebra import make_interpreter, simplify
from psipp.cli import Session
from psipp.errors import PsiError
from psipp.evaluator import free_idents, operator_thunk, substitute, value_equal
from psipp.parser import parse_expression, parse_program
from psipp.pretty import render_value
from psipp.values import ComplexV, Environment, FreeVarV, ThunkV

from bindings import lookup
from test_force import budget, doubling_chain, run, shared_programs
from test_totality import near_valid

DECLS = "var x, y : Algebra; var z : Complex;"


def session():
    interp = make_interpreter()
    interp.run_program(parse_program(DECLS))
    return interp


def ev(interp, source):
    return interp.eval_expr(parse_expression(source), interp.globals)


def substituted(v, name, value):
    return ThunkV(substitute(v.fo, name, value))


# --- the invariant ---

def assert_captures_are_free_variables(v):
    """Every capture of ``v`` is the free variable of its name, the captured
    names are exactly the body's identifiers, and every value leaf of the
    body is concrete."""
    if not isinstance(v, ThunkV):
        return
    for name, captured in v.fo.captures:
        assert isinstance(captured, FreeVarV) and captured.name == name, \
            (name, captured)
    assert {name for name, _ in v.fo.captures} == free_idents(v.fo.body)
    seen: set[int] = set()
    pending = [v.fo.body]
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
        for value in run_session.interp.globals.bindings.values():
            assert_captures_are_free_variables(value)


@settings(max_examples=100, deadline=None)
@given(shared_programs())
def test_shared_temporaries_capture_free_variables(program):
    source, rebinds, temps = program
    interp = run(source)
    for rebind in ["", *rebinds]:
        interp.run_program(parse_program(rebind))
        for name in temps:
            value = lookup(interp.globals, name)
            assert_captures_are_free_variables(value)
            assert_captures_are_free_variables(simplify(value))
            assert_captures_are_free_variables(interp.force(value))


# --- substitution ---

def test_substitution_survives_combination():
    # a5 is x + y with x := 5; b's x is still free
    interp = session()
    a5 = substituted(ev(interp, "x + y"), "x", 5)
    b = ev(interp, "x * y")
    a5_b = simplify(operator_thunk("*", "infix", [a5, b]))
    b_a5 = simplify(operator_thunk("*", "infix", [b, a5]))
    assert render_value(a5_b) == "5*(x*y) + y*(x*y)"
    assert render_value(b_a5) == "5*(x*y) + x*y*y"
    # forcing binds only the free variables left: a later x := 7 is b's x
    interp.run_program(parse_program("x := 7;"))
    assert render_value(interp.force(a5)) == "5 + y"
    assert render_value(interp.force(b)) == "7*y"


def test_substituted_object_keeps_declared_types():
    interp = session()
    nested = substituted(ev(interp, "x * y"), "x", ev(interp, "z + y"))
    simplified = simplify(nested)
    assert render_value(simplified) == "z*y + y*y"
    assert dict(simplified.fo.captures) == {"y": FreeVarV("y", "Algebra"),
                                            "z": FreeVarV("z", "Complex")}


def test_substitute_reaches_field_access():
    interp = session()
    spliced = substituted(ev(interp, "z.Re * y"), "z", ComplexV(2, 3))
    assert_captures_are_free_variables(spliced)
    assert render_value(interp.force(spliced)) == "2*y"


def test_substitute_into_shared_chain_is_linear(monkeypatch):
    # the assertions name no node: the repr of one unfolds the whole DAG
    depth = 40
    interp = run(doubling_chain(depth))
    chain = lookup(interp.globals, f"a{depth}").fo
    monkeypatch.setattr(ast, "operands",
                        budget(10 * depth, ast.operands))
    spliced = substitute(chain, "x", 1)
    sharing_kept = spliced.body.lhs is spliced.body.rhs
    assert sharing_kept
    spliced_captures, chain_captures = spliced.captures, chain.captures
    assert spliced_captures == ()
    assert chain_captures == (("x", FreeVarV("x", "integer")),)
    monkeypatch.undo()
    forced = interp.force(ThunkV(spliced))
    assert forced == 1


def test_substitute_into_a_body_1500_deep():
    interp = run("var x : integer;\na := x;\n" + "a := a + x;\n" * 1500)
    spliced = substitute(lookup(interp.globals, "a").fo, "x", 1)
    assert interp.force(ThunkV(spliced)) == 1501
    interp.run_program(parse_program("x := 1;"))
    assert ev(interp, "EVAL(a)") == 1501


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
# what is substituted: a concrete value, a variable, or an expression
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


def substitute_all(interp, v, substitutions):
    for name, spec in substitutions:
        if isinstance(v, ThunkV) and name in dict(v.fo.captures):
            v = substituted(v, name, make_value(interp, spec))
    return v


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
    a = substitute_all(interp, ev(interp, a_src), a_subs)
    b = substitute_all(interp, ev(interp, b_src), b_subs)
    assert_captures_are_free_variables(a)
    assert_captures_are_free_variables(b)
    env = Environment()
    for name, spec in bound.items():
        env.define(name, make_value(interp, spec))
    combined = interp.force(operator_thunk(op, "infix", [a, b]), env)
    separately = operator_thunk(op, "infix", [interp.force(a, env),
                                              interp.force(b, env)])
    assert value_equal(simplify(combined), simplify(separately))
