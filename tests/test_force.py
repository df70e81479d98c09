"""Forcing shared functional objects: one evaluation per shared subterm,
user method bodies once per occurrence, and agreement with an unmemoised
tree walk. Comparing them: one comparison per pair of shared subterms, and
agreement with the dataclass ``==``."""

import dataclasses
import itertools
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from psipp import ast
from psipp.algebra import make_interpreter, simplify
from psipp.errors import EvalError, RewriteLimitExceeded
from psipp.evaluator import DEFAULT_REWRITE_LIMIT, Interpreter, value_equal
from psipp.parser import parse_program
from psipp.values import FAIL, ComplexV, FreeVarV, ThunkV, type_name_of

from bindings import lookup


def run(source: str, output: Optional[list[str]] = None) -> Interpreter:
    """An interpreter that has run ``source``, writing its output lines to
    ``output`` when given."""
    interp = make_interpreter(emit=print if output is None else output.append)
    interp.run_program(parse_program(source))
    return interp


def doubling_chain(depth: int) -> str:
    """``a{j+1} := a{j} * a{j}``: a DAG of depth + 1 operator nodes whose
    tree unfolding has 2**depth leaves."""
    lines = ["var x : integer;", "a0 := x * 1;"]
    lines += [f"a{j + 1} := a{j} * a{j};" for j in range(depth)]
    return "\n".join(lines)


# --- the unmemoised reference ---

def tree_force(interp: Interpreter, v):
    """Force ``v`` by walking its body as a tree: every occurrence of a
    shared node is evaluated again, as forcing did before memoisation."""
    if isinstance(v, FreeVarV):
        bound = interp.globals.get(v.name)
        return v if isinstance(bound, (ThunkV, FreeVarV)) else bound
    if not isinstance(v, ThunkV):
        return v
    overlay = {}
    for name, captured in v.captures:
        bound = interp.globals.get(name)
        if bound is not None and not isinstance(bound, FreeVarV):
            overlay[name] = tree_force(interp, bound)
        else:
            overlay[name] = captured

    def walk(e: ast.Expr):
        if isinstance(e, ast.Infix):
            return interp.apply_operator(e.op, [walk(e.lhs), walk(e.rhs)],
                                         e)
        if isinstance(e, ast.Prefix):
            return interp.apply_operator(e.op, [walk(e.operand)], e)
        return interp.eval_expr(e, overlay)

    return walk(v.body)


# --- differential test ---

INT_VARS = ("x0", "x1")
COMPLEX_VARS = ("z0", "z1")


@st.composite
def shared_programs(draw):
    """Statements that build temporaries over earlier names (so later
    temporaries share earlier ones), interleaved with assignments to the
    free variables. Returns the statements and the temporaries' names."""
    names = [*INT_VARS, *COMPLEX_VARS]
    lines = [f"var {', '.join(INT_VARS)} : integer;",
             f"var {', '.join(COMPLEX_VARS)} : Complex;"]
    temps = []
    small = st.integers(-3, 3)
    for k in range(draw(st.integers(1, 9))):
        if draw(st.integers(0, 4)) == 0:
            var = draw(st.sampled_from([*INT_VARS, *COMPLEX_VARS]))
            if var in COMPLEX_VARS and draw(st.booleans()):
                lines.append(f"{var} := ({draw(small)}, {draw(small)});")
            else:
                lines.append(f"{var} := {draw(small)};")
        operand = st.one_of(st.just(names[-1]), st.sampled_from(names))
        op = draw(st.sampled_from(["+", "-", "*", "neg"]))
        if op == "neg":
            expr = f"-{draw(operand)}"
        else:
            expr = f"{draw(operand)} {op} {draw(operand)}"
        name = f"t{k}"
        lines.append(f"{name} := {expr};")
        names.append(name)
        temps.append(name)
    rebinds = [f"{var} := {draw(small)};"
               for var in INT_VARS if draw(st.booleans())]
    rebinds += [f"{var} := ({draw(small)}, {draw(small)});"
                for var in COMPLEX_VARS if draw(st.booleans())]
    return "\n".join(lines), rebinds, temps


@settings(max_examples=150, deadline=None)
@given(shared_programs())
def test_memoised_force_matches_tree_walk(program):
    source, rebinds, temps = program
    output = []
    interp = run(source, output)
    thunks = [lookup(interp.globals, name) for name in temps]
    for rebind in ["", *rebinds]:
        interp.run_program(parse_program(rebind))
        for value in thunks:
            assert interp.force(value) == tree_force(interp, value)
    assert output == []


def steps_needed(body: ast.Expr) -> int:
    """A lower bound on the rewrite steps from ``body`` to its normal form.
    Operands are normalised first. The product of normal forms of m and n
    summands has a normal form of mn summands, and a step adds at most one
    summand to the sum at its root, so it takes mn - 1 steps at least. An
    all-concrete subterm folds to one summand."""
    memo: dict = {}

    def walk(e) -> tuple[int, int, bool]:  # (steps, summands, all concrete)
        if id(e) not in memo:
            kids = [walk(k) for k in ast.operands(e)]
            steps = sum(k[0] for k in kids)
            if isinstance(e, ast.ValueLeaf) or kids and all(
                    k[2] for k in kids):
                memo[id(e)] = (0, 1, True)
            elif isinstance(e, ast.Infix) and e.op == "+":
                memo[id(e)] = (steps, kids[0][1] + kids[1][1], False)
            elif isinstance(e, ast.Infix) and e.op == "*":
                summands = kids[0][1] * kids[1][1]
                memo[id(e)] = (steps + summands - 1, summands, False)
            else:
                memo[id(e)] = (steps, 1, False)
        return memo[id(e)]

    return walk(body)[0]


def test_squaring_chain_exceeds_the_rewrite_limit_but_keeps_its_type():
    interp = run("""\
var z1 : Complex;
t0 := z1 + z1;
t1 := t0 + t0;
t2 := t1 + t1;
t3 := t2 + t2;
t4 := t3 * t3;
t5 := t4 * t4;
""")
    t4, t5 = (lookup(interp.globals, name) for name in ("t4", "t5"))
    steps: list[str] = []
    assert type_name_of(simplify(t4, trace=steps.append)) == "Complex"
    # 16 summands squared: from 1 summand to 256, one step each
    assert len(steps) == steps_needed(t4.body) == 255
    assert type_name_of(t4) == "Complex"
    # both operands normalised, then 256 * 256 summands
    assert steps_needed(t5.body) == 2 * 255 + 256 * 256 - 1
    assert steps_needed(t5.body) > DEFAULT_REWRITE_LIMIT
    with pytest.raises(RewriteLimitExceeded):
        simplify(t5)
    assert type_name_of(t5) == "Complex"
    interp.run_program(parse_program("z1 := (1, 1);"))
    assert type_name_of(interp.force(t5)) == "Complex"


@settings(max_examples=200, deadline=None)
@given(shared_programs(), st.data())
def test_type_predicts_simplify_and_force(program, data):
    """A temporary's type is the type of its normal form, and of the value
    it forces to once every integer and Complex variable is bound. Where
    every rewriter must exceed the rewrite limit (a chain of squarings
    outgrows any limit), ``simplify`` raises instead."""
    source, _, temps = program
    interp = run(source)
    values = [lookup(interp.globals, name) for name in temps]
    types = [type_name_of(v) for v in values]
    for value, type_name in zip(values, types):
        try:
            assert type_name_of(simplify(value)) == type_name
        except RewriteLimitExceeded:
            assert steps_needed(value.body) > DEFAULT_REWRITE_LIMIT
    small = st.integers(-3, 3)
    binds = [f"{var} := {data.draw(small)};" for var in INT_VARS]
    binds += [f"{var} := ({data.draw(small)}, {data.draw(small)});"
              for var in COMPLEX_VARS]
    interp.run_program(parse_program("\n".join(binds)))
    assert [type_name_of(interp.force(v)) for v in values] == types


# --- pinned behaviour ---

def test_user_operator_prints_once_per_occurrence():
    output = []
    run("""\
function Complex.infix* (A, B : Complex) : Complex;
begin
  print(A);
  Return := (A.Re * B.Re - A.Im * B.Im, A.Re * B.Im + A.Im * B.Re)
end;
var z : Complex;
a := z * z;
b := a * a;
z := (1, 1);
print(EVAL(b));
""", output)
    # a occurs twice in b: its body runs twice, then b's once
    assert output == ["1 + i", "1 + i", "2*i", "-4"]


def test_forcing_an_abstract_comparison_is_the_condition_error():
    # an abstract infix = leaves its application symbolic; forcing it
    # reports the comparison outside a condition, as evaluating it does
    interp = run("Foo = Object;\n"
                 "  function infix =(A, B : Foo) : Foo;\n"
                 "end;\n"
                 "var x : Foo;\n"
                 "y := Foo.(x = x);\n"
                 "x := 1;\n")
    with pytest.raises(EvalError, match="'=' is only valid in an if "
                                        "condition"):
        interp.run_program(parse_program("print(EVAL(y));"))


def budget(limit: int, fn):
    """``fn``, failing the test on call ``limit + 1``: a walk that unfolds
    the DAG into a tree fails at once instead of running for hours. Its
    ``calls`` are the calls so far, so that a test can check the budget
    was not met by a walk that no longer calls ``fn``."""
    def counted(*args):
        counted.calls += 1
        assert counted.calls <= limit, f"more than {limit} calls"
        return fn(*args)

    counted.calls = 0
    return counted


def test_shared_chain_forces_in_linear_eval_calls():
    depth = 40
    output = []
    interp = run(doubling_chain(depth) + "\nx := 1;", output)
    interp.eval_expr = budget(10 * depth, interp.eval_expr)
    interp.run_program(parse_program(f"print(EVAL(a{depth}));"))
    assert output == ["1"]


def test_match_against_shared_chain(monkeypatch):
    depth = 40
    monkeypatch.setattr(ast, "operands",
                        budget(10 * depth, ast.operands))
    output = []
    interp = run(doubling_chain(depth) + f"""
function left(A : Algebra) : Algebra;
par
  P, Q : Algebra;
begin
  if A = P * Q then Return := P else Return := fail
end;
b := left(a{depth});
kind(b);
""", output)
    assert output == ["b: functional object"]
    assert lookup(interp.globals, "b").body is \
        lookup(interp.globals, f"a{depth - 1}").body
    interp.run_program(parse_program("x := 1;"))
    assert interp.force(lookup(interp.globals, "b")) == 1


# --- structural equality ---

SPANS = st.sampled_from([None, 0, 1])
# one pool for operators, fields, ancestors and function names, so that
# nodes of different types can agree on every field but their type
WORDS = st.sampled_from(["-", "Re"])
LEAVES = st.one_of(
    st.builds(ast.Ident, st.sampled_from(["x", "y"]), SPANS),
    st.builds(ast.IntLit, st.integers(0, 1), SPANS),
    st.builds(ast.ValueLeaf, st.sampled_from(
        [1, 2, ComplexV(1, 0), FAIL]), SPANS))
CAPTURES = st.sampled_from([(), (("x", FreeVarV("x")),),
                            (("x", FreeVarV("x", "Complex")),)])


@st.composite
def dags(draw):
    """An expression body whose nodes take their operands from the nodes
    drawn before them, so that subterms are often shared."""
    nodes = [draw(LEAVES) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 7))):
        pick, word, span = st.sampled_from(nodes), draw(WORDS), draw(SPANS)
        kind = draw(st.integers(0, 5))
        if kind == 0:
            node = ast.Infix(draw(st.sampled_from("+-*")), draw(pick),
                             draw(pick), span)
        elif kind == 1:
            node = ast.Prefix(word, draw(pick), span)
        elif kind == 2:
            node = ast.FieldAccess(draw(pick), word, span)
        elif kind == 3:
            node = ast.Call(word, tuple(draw(st.lists(pick, max_size=2))),
                            span)
        elif kind == 4:
            node = ast.PairLit(draw(pick), draw(pick), span)
        else:
            node = ast.InheritedCall(word, draw(pick), span)
        nodes.append(node)
    return nodes[-1]


def edited(name: str, value):
    """A value of the field ``name`` that differs from ``value``."""
    if name == "args":
        return value[:-1] if value else (ast.IntLit(0),)
    if name == "span":
        return (9, 9, 9)
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, int):
        return value + 7
    return 7  # a value leaf's value


# node types with fields of the same kinds in the same order
TWINS = {ast.Prefix: ast.InheritedCall, ast.InheritedCall: ast.Prefix}


def tree_copy(e: ast.Expr, edit_at: int = -1, field: int = 0) -> ast.Expr:
    """``e`` unfolded into a tree of new nodes. The ``edit_at``-th node
    built gets its ``field``-th field edited; a call's arguments count as
    one field, which loses or gains an argument, and a twin's type as one
    more."""
    built = itertools.count()

    def copy(node):
        fields = {f.name: getattr(node, f.name)
                  for f in dataclasses.fields(node)}
        for name, value in fields.items():
            if isinstance(value, ast.Expr):
                fields[name] = copy(value)
            elif isinstance(node, ast.Call) and name == "args":
                fields[name] = tuple(map(copy, value))
        kind = type(node)
        if next(built) == edit_at:
            editable = [name for name, value in fields.items()
                        if not isinstance(value, ast.Expr)]
            name = (editable + ["type"] * (kind in TWINS))[
                field % (len(editable) + (kind in TWINS))]
            if name == "type":
                kind = TWINS[kind]
            else:
                fields[name] = edited(name, fields[name])
        return kind(*fields.values())

    return copy(e)


def tree_size(e: ast.Expr) -> int:
    return 1 + sum(map(tree_size, ast.operands(e)))


@settings(max_examples=300, deadline=None)
@given(dags(), dags(), CAPTURES, CAPTURES)
def test_value_equal_agrees_with_dataclass_equality(body, other, caps, caps2):
    """Against the same body, a tree copy of it that shares nothing, that
    copy with any one field edited, and an independent body."""
    seconds = [body, tree_copy(body), other]
    seconds += [tree_copy(body, at, field)
                for at in range(min(tree_size(body), 30))
                for field in range(3)]
    a = ThunkV(body, caps)
    for second in seconds:
        b = ThunkV(second, caps2)
        assert value_equal(a, b) is value_equal(b, a) is (a == b)


def test_equal_chains_built_apart_compare_in_linear_calls(monkeypatch):
    depth = 22
    output = []
    interp = run(doubling_chain(depth) + "\nb0 := x * 1;\n" + "\n".join(
        f"b{j + 1} := b{j} * b{j};" for j in range(depth)), output)
    # the dataclass == unfolds both chains: 2**22 calls of Infix.__eq__
    monkeypatch.setattr(ast.Infix, "__eq__",
                        budget(10 * depth, ast.Infix.__eq__))
    monkeypatch.setattr(ast, "operands", budget(10 * depth, ast.operands))
    interp.run_program(parse_program(f"""
if a{depth} = b{depth} then print(1) else print(0);
if a{depth} = b{depth - 1} then print(1) else print(0);
"""))
    assert output == ["1", "0"]
