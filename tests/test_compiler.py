"""User method bodies run as closures compiled once, at their first run.
The tree walker is the reference: a program prints the same output and
errors, and ends with the same exit code, whether each body is compiled or
walked. Compiling happens once per body and interpreter, never before the
body runs."""

import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from psipp import algebra, evaluator
from psipp.cli import Session, run_file
from psipp.evaluator import Interpreter

from test_totality import near_valid, token_soup


class WalkingInterpreter(Interpreter):
    """The reference: every user body runs on the tree walker."""

    def run_body(self, impl, frame):
        par_names = frozenset(name for name, _ in impl.decl.par_decls)
        self.exec_stmt(impl.decl.body, frame, par_names)


def run_both(source: str, trace: bool = False):
    """``(stdout, stderr, exit code)`` of ``source`` with compiled bodies,
    then with walked ones."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.psi"
        path.write_text(source)
        for interpreter in (Interpreter, WalkingInterpreter):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(algebra, "Interpreter", interpreter):
                code = run_file(str(path), trace=trace, stdout=out,
                                stderr=err)
            results.append((out.getvalue(), err.getvalue(), code))
    return results


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(token_soup, near_valid()), st.booleans())
def test_compiled_bodies_match_the_walker_on_totality_input(source, trace):
    compiled, walked = run_both(source, trace)
    assert compiled == walked


# --- generated programs ---
#
# Operator methods neither call functions nor apply an operator to two
# operands that may dispatch, and a function calls only the functions
# numbered below it, so no program recurses without bound: how deep a
# body recurses before Python's stack runs out differs between the two.

OPERATORS = ["Complex.infix*", "Complex.infix+", "Complex.infix-",
             "Complex.prefix-", "Monomial.infix*", "infix*"]
METHOD_STATEMENTS = [
    "Return := Algebra.(A * B)",
    "Return := Group.(A + B)",
    "Return := Algebra.(-A)",
    "if Return = fail then "
    "Return := (A.Re * B.Re - A.Im * B.Im, A.Re * B.Im + A.Im * B.Re)",
    "if Return = fail then Return := (A.Re + 1, 0)",
    "Return := fail",
    "Return := (A.Re, B.Im)",
    "Return := x * A",
    "Return := A",
    "print(A)",
    "print(A.Re * 10 - B.Im)",
    "kind(A)",
    "if A.Re then print(1) else print(0)",
    "if A = fail then Return := B",
    "if B = (1, 2) then Return := (9, 9)",
    "Return := (A.Re, 0)",
    "if A.Im = fail then Return := B",
    "begin print(B); Return := B end",
    # operands read in place: fields of parameters and of a global
    "Return := A.Re * B.Im - z.Re",
    "Return := (A.Im * n, z.Im)",
    "Return := Algebra.(A.Re * z)",
]
FUNCTION_STATEMENTS = [
    "Return := A * A",
    "Return := A + (1, 1)",
    "Return := -A",
    "Return := Complex.(A * (2, 0))",
    "Return := Algebra.(A * (x + y))",
    "if A = C + D then Return := C * D else Return := A",
    "if A = C * C then Return := C",
    "if A = C * D then if A = C then Return := D",
    "if A = x then Return := fail",
    "if A = fail then Return := 0",
    "if A then Return := 1 else Return := 2",
    "Return := EVAL(A)",
    "Return := simplify(A * A)",
    "print(A)",
    "kind(A)",
    "kind(Return)",
    "Return := A",
    "Return := mono(1, 0, 1, 0) * A",
    # a field of a thunk or of fail: walked as a condition, read in place
    # in a pair and in an identity test
    "if A.Re then print(1) else print(0)",
    "Return := (A.Re, 0)",
    "if A.Im = fail then Return := A",
    "Return := A.Re * A.Im - z.Re",
    "Return := (z.Re, A.Im * n)",
]
# each fails at run time, if it is reached
FAILING_STATEMENTS = [
    "Return := A.Foo",
    "Return := A.Re",
    "Return := (A, x)",
    "Return := zz",
    "Return := A = B",
    "Return := Complex.(A)",
    "Return := Return",
    "Return := Return + 1",
    "Return := unknown(A)",
    "if A = C then if A = C + D then Return := D",
]
ARGUMENTS = ["(1, 2)", "3", "i", "x + y", "x * y", "mono(1, 2, 0, 1)",
             "fail", "(0, 0)", "(x + y) * i", "n", "z", "0", "-1"]
TOP_LEVEL = [
    "print({a} * {b});", "print({a} + {b});", "print({a} - {b});",
    "print(-{a});", "print(Complex.({a} * {b}));",
    "print(Algebra.({a} * {b}));", "z := {a} * {b};", "print(EVAL(z));",
    "kind(z);", "n := 2;", "Return := 5;",
]
# every function is defined before the items, so that a call reaches it
HEADER = ["var x, y : Algebra;", "var n : integer;", "z := (1, 2);"] + [
    f"function f{k}(A : Algebra) : Algebra; begin Return := A end;"
    for k in range(3)]


@st.composite
def method_body(draw, pool):
    """Up to four statements; one body in three has a statement that fails
    if it is reached."""
    statements = draw(st.lists(st.sampled_from(pool), max_size=4))
    if draw(st.integers(0, 2)) == 0:
        statements.insert(draw(st.integers(0, len(statements))),
                          draw(st.sampled_from(FAILING_STATEMENTS)))
    return "begin " + "; ".join(statements) + " end"


@st.composite
def declaration(draw):
    if draw(st.booleans()):
        name = draw(st.sampled_from(OPERATORS))
        owner, _, op = name.rpartition(".")
        slot = owner or "Complex"
        params = f"(A : {slot})" if op.startswith("prefix") else \
            f"(A, B : {slot})"
        body = draw(method_body(METHOD_STATEMENTS))
        return f"function {name} {params} : {slot};\n{body};"
    k = draw(st.integers(0, 2))
    calls = [f"Return := f{j}(A)" for j in range(k)] + \
        [f"print(f{j}(A * A))" for j in range(k)]
    body = draw(method_body(FUNCTION_STATEMENTS + calls))
    return (f"function f{k}(A : Algebra) : Algebra;\n"
            f"par C, D : Algebra;\n{body};")


@st.composite
def use(draw):
    template = draw(st.sampled_from(
        TOP_LEVEL + [f"print(f{k}({{a}}));" for k in range(3)]))
    return template.format(a=draw(st.sampled_from(ARGUMENTS)),
                           b=draw(st.sampled_from(ARGUMENTS)))


@st.composite
def program(draw):
    """Up to six declarations, each followed by one to three uses."""
    items = list(HEADER)
    for _ in range(draw(st.integers(1, 6))):
        items.append(draw(declaration()))
        items += draw(st.lists(use(), min_size=1, max_size=3))
    return "\n".join(items) + "\n"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(program(), st.booleans())
def test_compiled_bodies_match_the_walker_on_generated_programs(source,
                                                                trace):
    compiled, walked = run_both(source, trace)
    assert compiled == walked


def test_a_program_of_the_generated_kind_runs_the_same_both_ways():
    """Pinned, so that both ways are known to run a body that prints and
    falls back on fail, a par match, a redefinition and an error raised in
    a body."""
    source = (
        "var x, y : Algebra;\n"
        "function Complex.infix* (A, B : Complex) : Complex;\n"
        "begin print(A); Return := Algebra.(A * B); if Return = fail then "
        "Return := (A.Re * B.Re - A.Im * B.Im, A.Re * B.Im + A.Im * B.Re) "
        "end;\n"
        "function f0(A : Algebra) : Algebra;\npar C, D : Algebra;\n"
        "begin if A = C + D then Return := C * D else Return := A end;\n"
        "print((1, 2) * (3, 4));\nprint(f0(x + y));\n"
        "function f0(A : Algebra) : Algebra;\npar C, D : Algebra;\n"
        "begin print(A) end;\nprint(f0(1));\n")
    compiled, walked = run_both(source)
    assert compiled == walked == (
        "1 + 2*i\n-5 + 10*i\nx*y\n1\n",
        "error: 9:1: 'f0' never assigned Return\n", 3)


def test_each_inlined_case_and_its_fallback_runs_the_same_both_ways():
    """A field of a complex value and ``= fail`` are inlined in the
    closures: a field of fail and of a thunk takes ``field_of``'s other
    cases, and the cases run beside a zero field as a condition, ``= fail``
    on fail and on a thunk, and a pair of integers, of fail and of a
    thunk."""
    source = (
        "var x : Algebra;\n"
        "function f(A : Algebra) : Algebra;\n"
        "begin if A.Re then print(1) else print(0);\n"
        "if A.Im = fail then Return := 7 else Return := (A.Re, 0) end;\n"
        "print(f((0, 5)));\nprint(f((2, 0)));\nprint(f(fail));\n"
        "print(f(x + 1));\n")
    compiled, walked = run_both(source)
    assert compiled == walked == (
        "0\n0\n1\n2\n0\n7\n1\n",
        "error: 4:48: complex components must be integers (in f)\n", 3)


@pytest.mark.parametrize("statement, argument, expected", [
    ("Return := A.Im", "fail", ("fail\n", "", 0)),
    ("Return := A.Re", "x", ("x.Re\n", "", 0)),
    ("Return := x.Im", "1", ("x.Im\n", "", 0)),
    ("Return := A.Re", "3",
     ("", "error: 2:53: no field 'Re' on this value (in f)\n", 3)),
    ("Return := A.Foo", "(1, 2)",
     ("", "error: 2:53: Complex has no field 'Foo' (in f)\n", 3)),
    ("Return := zz.Re", "(1, 2)",
     ("", "error: 2:52: unknown identifier 'zz' (in f)\n", 3)),
    ("Return := Return.Re", "(1, 2)",
     ("", "error: 2:52: Return read before assignment (in f)\n", 3)),
], ids=["of-fail", "of-a-free-variable-argument", "of-a-free-variable",
        "of-an-integer", "no-such-field", "of-an-unbound-name",
        "of-an-unassigned-Return"])
def test_a_field_of_a_name_runs_the_same_both_ways(statement, argument,
                                                    expected):
    """A standalone ``Name.Field`` is walked; read in place as an operand
    it takes a complex value's field inline. Each case of a field reaches
    the walker's value, error and span either way."""
    source = ("var x : Algebra;\n"
              f"function f(A : Algebra) : Algebra; begin {statement} end;\n"
              f"print(f({argument}));\n")
    compiled, walked = run_both(source)
    assert compiled == walked == expected


# a global named like the parameter A, which the parameter shadows
IN_PLACE_HEADER = ("var x : Algebra;\ng := (5, 6);\nA := (7, 0);\n"
                   "function f(A, B : Algebra) : Algebra; begin {} end;\n")


@pytest.mark.parametrize("statement, rest, expected", [
    ("Return := A.Re * B.Re + 1", "print(f(fail, (1, 2)));\n",
     ("fail\n", "", 0)),
    ("Return := A.Re * B.Im", "print(f(x, (1, 2)));\n", ("2*x.Re\n", "", 0)),
    ("Return := Algebra.(A.Re * B)", "print(f(3, (1, 2)));\n",
     ("", "error: 4:65: no field 'Re' on this value (in f)\n", 3)),
    ("Return := (A.Foo * B, 0)", "print(f((1, 2), 3));\n",
     ("", "error: 4:57: Complex has no field 'Foo' (in f)\n", 3)),
    ("Return := (B.Re, zz * A)", "print(f((1, 2), (3, 4)));\n",
     ("", "error: 4:62: unknown identifier 'zz' (in f)\n", 3)),
    ("Return := A.Re * B.Im - g.Re", "print(f((1, 2), (3, 4)));\n",
     ("-1\n", "", 0)),
    ("Return := A.Re * A.Im + B.Re", "print(f((2, 3), (4, 0)));\n",
     ("10\n", "", 0)),
    ("if Return.Re = fail then Return := A", "print(f(1, 2));\n",
     ("", "error: 4:48: Return read before assignment (in f)\n", 3)),
    # 3^(2^19) has 830 979 bits: the product of two is past the bound
    ("Return := (A.Re * B.Re, 0)",
     "p := 3;\n" + "p := p * p;\n" * 19 + "print(f((p, 0), (p, 1)));\n",
     ("", "error: 4:61: integer product exceeds 1048576 bits (in f)\n", 3)),
], ids=["field-of-fail", "field-of-a-free-variable", "field-of-an-integer",
        "no-such-field", "unbound-name", "field-of-a-global",
        "parameter-shadows-a-global", "Return-before-assignment",
        "product-bound"])
def test_an_operand_read_in_place_falls_back_as_the_walker_does(
        statement, rest, expected):
    """An operator, a pair, an inherited call and ``= fail`` read a name
    and a complex field of one in place; every other case takes the
    walker's way, with its value, its error and its span."""
    compiled, walked = run_both(IN_PLACE_HEADER.format(statement) + rest)
    assert compiled == walked == expected


def test_a_walked_statement_in_a_compiled_one_sees_the_par_variables():
    """The ``else`` of a compiled ``if A = fail`` is a walked ``if`` whose
    pattern binds the par variables ``C`` and ``D``; a prefix minus and a
    standalone ``A.Re`` are walked from compiled assignments."""
    source = (
        "var x, y : Algebra;\n"
        "function f(A : Algebra) : Algebra;\npar C, D : Algebra;\n"
        "begin Return := -A; if A = fail then Return := 0 "
        "else if A = C * D then Return := C - D else Return := A.Re end;\n"
        "print(f(x * y));\nprint(f((1, 2)));\nprint(f(fail));\n"
        "print(f(x + y));\nprint(f(3));\n")
    compiled, walked = run_both(source)
    assert compiled == walked == (
        "x - y\n1\n0\n(x + y).Re\n",
        "error: 4:105: no field 'Re' on this value (in f)\n", 3)


def test_a_body_sum_of_900_terms_runs_the_same_both_ways():
    # compiling, running the closures and walking each cost one Python
    # frame per level of nesting
    source = ("function f(A : integer) : integer; begin Return := "
              + " + ".join(["A"] * 900) + " end;\nprint(f(2));\n")
    compiled, walked = run_both(source)
    assert compiled == walked == ("1800\n", "", 0)


# --- compiling once, and only when a body runs ---

def counting_compiles(monkeypatch) -> list:
    """The statements ``compile_stmt`` is called on, from now on."""
    calls = []
    original = evaluator.compile_stmt

    def compile_stmt(stmt, *par_names):
        calls.append(stmt)
        return original(stmt, *par_names)
    monkeypatch.setattr(evaluator, "compile_stmt", compile_stmt)
    return calls


def test_a_body_is_compiled_once_however_often_it_runs(monkeypatch):
    calls = counting_compiles(monkeypatch)
    session = Session()
    body = session.interp.registry.resolve_method(
        "Complex", "*", "infix").decl.body
    # the shape of the concrete benchmark: each product runs Complex.infix*
    session.run_source("".join(f"z{k} := ({k}, 1) * ({k % 7}, -2);\n"
                               for k in range(1200)))
    assert session.interp.method_runs == 1200
    assert sum(stmt is body for stmt in calls) == 1
    # the body's own statements are compiled once each, with it
    assert len(calls) == 1 + 3


def test_a_session_compiles_nothing_before_a_body_runs(monkeypatch):
    calls = counting_compiles(monkeypatch)
    session = Session()
    session.run_source("function f(A : Algebra) : Algebra; "
                       "begin Return := A end;\n"
                       "x := (1, 2) + (3, 4);\nprint(-x);\n")
    assert calls == []
    session.run_source("print(f(1));\n")
    assert len(calls) == 2  # the body and its one statement


def test_each_session_compiles_the_prelude_body_again(monkeypatch):
    calls = counting_compiles(monkeypatch)
    for _ in range(2):
        Session().run_source("print((1, 2) * (3, 4));\n")
    assert len(calls) == 2 * 4
