"""Captures are free variables: a functional object captures exactly the
free variables of its body, each as the ``FreeVarV`` of its own name, and
a value leaf holds only a concrete value. A name bound when an object is
made is spliced into its body as that value, so combining such objects
never mixes up their variables. An object's captures are merged from its
operands' once, when first read, by the rule an eager merge at each
application follows."""

import pytest
from hypothesis import example, given, settings, strategies as st

from psipp import algebra, ast, evaluator
from psipp.algebra import make_interpreter, simplify
from psipp.cli import Session
from psipp.errors import PsiError, RewriteLimitExceeded
from psipp.evaluator import (DEFAULT_REWRITE_LIMIT, free_idents,
                             operator_thunk, value_equal)
from psipp.parser import parse_expression, parse_program
from psipp.pretty import render_value
from psipp.values import ComplexV, FreeVarV, ThunkV, type_name_of

from bindings import lookup
from test_force import budget, run, shared_programs, steps_needed
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


# --- merging captures when first read, against the eager merge ---

def eager_thunk(body, *sources):
    """The reference merge: at each application, the sources' captures in
    turn, each a tuple of pairs, a dict or a free variable, the later
    source winning a clash."""
    merged = {}
    for source in sources:
        if isinstance(source, FreeVarV):
            merged[source.name] = source
        else:
            merged.update(source)
    return ThunkV(body, tuple(sorted(merged.items())))


TYPES = ("Algebra", "Complex")
SHAPES = ("{a} + {b}", "{a} - {b}", "{a} * {b}", "-{a}", "{a} * 2",
          "{a} * ({b} - {a})", "{a}.Re", "{a}.Im * {b}",
          "Algebra.({a} * {b})", "simplify({a} * {b})", "EVAL({a}) + {b}")


@st.composite
def clashing_programs(draw):
    """Objects built from earlier objects and the variables ``x`` and
    ``y``, where ``x`` is declared again between them, each time with the
    other of two types, so that operands bind ``x`` to different types.
    Operands are ``x`` or one of the two latest names, so an object is
    often both operands of one application, or one and part of the
    other; forcing an object reads its captures before later objects are
    built on it."""
    lines, names = ["var x, y : Algebra;"], ["x", "y"]
    redeclared = 0
    for k in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            redeclared += 1
            lines.append(f"var x : {TYPES[redeclared % 2]};")
        earlier = st.sampled_from(["x", *names[-2:]])
        a = draw(earlier)
        b = draw(st.one_of(st.just(a), earlier))
        shape = draw(st.sampled_from(SHAPES))
        lines.append(f"t{k} := {shape.format(a=a, b=b)};")
        names.append(f"t{k}")
    return "\n".join(lines)


def describe(source: str) -> list:
    """What a session shows of each name ``source`` binds: its captures,
    ``kind``, ``:type`` and printed text, or the error it ends in."""
    lines = []
    session = Session(emit=lines.append)
    try:
        session.run_source(source)
    except PsiError as err:
        return [err.message]
    shown = []
    # the latest first, so that no record it reaches has been read before
    for name, value in reversed(session.interp.globals.items()):
        session.run_source(f"kind({name}); print({name});")
        session.repl_step(f":type {name}")
        captures = list(value.captures) if isinstance(value, ThunkV) else []
        shown.append((name, captures))
    return shown + lines


@settings(max_examples=200, deadline=None)
@given(clashing_programs())
@example("var x, y : Algebra;\ns := x + y;\nvar x : Complex;\n"
         "u := x + s;\nt := s + u;")
def test_captures_merged_when_read_match_the_eager_merge(source):
    # t's operands s and u share s, which binds x to Algebra on the
    # right, so t captures x as Algebra: a merge that takes s once,
    # at its first place from the left, finds u's x : Complex later
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "thunk", eager_thunk)
        patch.setattr(algebra, "thunk", eager_thunk)
        expected = describe(source)
    assert describe(source) == expected


def test_the_factor_that_is_no_sum_wins_a_distribution_s_clash():
    # the eager merge above takes its sources in the order distribute
    # gives them, so it cannot check that order
    interp = run("var x, y : Algebra; s := x + y; var x : Complex;"
                 "d := Algebra.(x * s); e := Algebra.(s * x);")
    for name, text in (("d", "x*x + x*y"), ("e", "x*x + y*x")):
        value = lookup(interp.globals, name)
        assert render_value(value) == text
        assert value.capture_map()["x"] == FreeVarV("x", "Complex")


def sum_of_variables(n: int, limit: int) -> int:
    """The capture entries touched in building ``x0 + ... + x(n-1)`` and
    reading its captures once; the test fails past ``limit`` of them. Each
    entry stored in or looked up in a dict hashes its name once."""
    hashes = budget(limit, str.__hash__)
    name = type("CountedName", (str,), {"__hash__": hashes})
    v = FreeVarV(name("x0"))
    for k in range(1, n):
        v = operator_thunk("+", [v, FreeVarV(name(f"x{k}"))])
    assert len(dict(v.captures)) == n
    return hashes.calls


def test_building_a_sum_and_reading_its_captures_is_linear():
    # an eager merge at each application touches every capture below it,
    # about n**2/2 in all
    at_400 = sum_of_variables(400, 10 * 400)
    assert sum_of_variables(800, int(2.2 * at_400)) <= 2.2 * at_400


def test_captures_of_an_object_50000_applications_deep():
    # each object's captures record holds its operand's: the first read
    # walks 50 000 of them, beyond the default recursion limit of 1000
    x, y = FreeVarV("x"), FreeVarV("y", "Complex")
    v = x
    for k in range(50_000):
        v = operator_thunk("-", [v]) if k % 3 else operator_thunk(
            "+", [FreeVarV("y"), v] if k % 2 else [v, y])
    assert v.capture_map() == {"x": x, "y": y}
    assert type_name_of(v) == "Algebra"
