import pytest
from hypothesis import given, settings, strategies as st

from psipp import ast, cli, evaluator
from psipp.algebra import make_interpreter, simplify
from psipp.errors import (EvalError, UnassignedReturn, UnknownIdentifier,
                          line_col)
from psipp.evaluator import value_equal
from psipp.parser import parse_expression, parse_program
from psipp.pretty import render_value
from psipp.values import (FAIL, ComplexV, FreeVarV, ThunkV, classify_binding,
                          thunk, type_name_of)

from bindings import lookup, snapshot


@pytest.fixture
def interp():
    session = make_interpreter()
    session.run_program(parse_program("var x, y : Algebra;"))
    return session


def ev(interp, source):
    return interp.eval_expr(parse_expression(source), interp.globals)


# --- eval_expr ---

def test_literal(interp):
    assert ev(interp, "1") == 1
    assert classify_binding(ev(interp, "1")) == "value"


def subclasses(cls):
    """The node classes below ``cls`` that ``psipp.ast`` binds under their
    own name. ``dataclass(slots=True)`` replaces the class it decorates,
    and the replaced one stays a subclass until a garbage collection."""
    for sub in cls.__subclasses__():
        if getattr(ast, sub.__name__, None) is sub:
            yield sub
        yield from subclasses(sub)


# a minimal instance of every node type, each of which runs without error
EXPRS = [
    ast.IntLit(1), ast.Ident("x"), ast.FailLit(),
    ast.Infix("+", ast.IntLit(1), ast.IntLit(2)),
    ast.Prefix("-", ast.IntLit(1)),
    ast.FieldAccess(ast.Ident("x"), "Re"),
    ast.InheritedCall("Group", ast.Infix("+", ast.Ident("x"), ast.Ident("y"))),
    ast.PairLit(ast.IntLit(1), ast.IntLit(2)),
    ast.ValueLeaf(1),
    ast.Call("EVAL", (ast.IntLit(1),)),
]
STMTS = [
    ast.Assign("z", ast.IntLit(1)),
    ast.If(ast.IntLit(1), ast.Assign("z", ast.IntLit(2))),
    ast.Call("kind", (ast.Ident("x"),)),
    ast.Compound((ast.Assign("z", ast.IntLit(3)),)),
]


def test_every_node_type_has_a_case_walked_and_compiled(interp):
    assert {type(e) for e in EXPRS} == set(subclasses(ast.Expr))
    assert {type(s) for s in STMTS} == set(subclasses(ast.Stmt))
    env = interp.globals
    for expr in EXPRS:
        walked = interp.eval_expr(expr, env)
        assert value_equal(evaluator.compile_expr(expr)(interp, env), walked)
    for stmt in STMTS:
        interp.exec_stmt(stmt, env)
        walked = snapshot(env)
        evaluator.compile_stmt(stmt)(interp, env)
        assert snapshot(env) == walked


def test_a_node_without_a_handler_is_an_eval_error(interp):
    with pytest.raises(EvalError, match="^cannot evaluate Assign$"):
        interp.eval_expr(ast.Assign("x", ast.IntLit(1)), interp.globals)
    block = ast.VarBlock((("x", "Algebra"),), 0)
    with pytest.raises(EvalError, match="^cannot execute VarBlock$") as err:
        interp.exec_stmt(block, interp.globals)
    assert line_col("var x : Algebra;", err.value.span) == (1, 1)


def test_unbound_operands_build_thunk():
    interp = make_interpreter()
    interp.run_program(parse_program("var c, d : integer;"))
    value = ev(interp, "c + d")
    assert isinstance(value, ThunkV)
    assert value.body == ast.Infix("+", ast.Ident("c"), ast.Ident("d"))
    assert dict(value.captures) == {"c": FreeVarV("c", "integer"),
                                       "d": FreeVarV("d", "integer")}
    assert type_name_of(value) == "integer"


def test_thunk_built_without_invoking_user_code(interp):
    # no distribution happens at evaluation time
    value = ev(interp, "(i + x) * i")
    assert isinstance(value, ThunkV)
    assert isinstance(value.body, ast.Infix) and value.body.op == "*"


def test_fail_absorbs(interp):
    assert ev(interp, "fail + 1") is FAIL
    assert ev(interp, "1 * fail") is FAIL
    assert ev(interp, "-(fail)") is FAIL


def test_unknown_identifier(interp):
    with pytest.raises(UnknownIdentifier):
        ev(interp, "nope + 1")


def test_eager_inner_concrete_subexpressions(interp):
    value = ev(interp, "2*3 + x")
    assert isinstance(value, ThunkV)
    assert value.body == ast.Infix("+", ast.ValueLeaf(6), ast.Ident("x"))


def test_a_value_leaf_types_the_body():
    # a name bound when the object is made is a value leaf, typed by its
    # value; the free d stays an integer capture
    interp = make_interpreter()
    interp.run_program(parse_program(
        "var d : integer; c := (1, 2); b := c + d; c := 1; e := c + d;"))
    assert type_name_of(lookup(interp.globals, "b")) == "Complex"
    assert type_name_of(lookup(interp.globals, "e")) == "integer"


def test_an_integer_is_a_python_int_at_every_exit(interp, tmp_path, capsys,
                                                  monkeypatch):
    """Evaluation, a field, forcing, a fold of the rewriter, ``EVAL`` and
    ``simplify`` of 0 and a REPL ``:eval`` each give an ``int``, never a
    ``bool`` nor a box around one."""
    interp.run_program(parse_program("var c, d : integer;\n"
                                     "b := c * d + 1;\nz := (0, 2);"))
    results = [ev(interp, source) for source in (
        "0", "1 + 2", "3 * 0", "2 - 5", "-4", "-0", "z.Re", "z.Im",
        "EVAL(0)", "simplify(0)", "EVAL(1 - 1)", "simplify(2 * 3)")]
    results.append(interp.field_of(ComplexV(0, 1),
                                   parse_expression("z.Re")))
    interp.run_program(parse_program("c := 0;\nd := 5;"))
    results += [interp.force(lookup(interp.globals, "b")), interp.force(0)]
    results += [simplify(thunk(ast.Infix("*", ast.ValueLeaf(2),
                                         ast.ValueLeaf(0)))),
                simplify(thunk(ast.Prefix("-", ast.ValueLeaf(0))))]
    assert results == [0, 3, 0, -3, -4, 0, 0, 2, 0, 0, 0, 6, 0, 1, 0, 0, 0]
    assert all(type(v) is int for v in results), results

    evaluated = []

    def recording(v, spaced=False):
        evaluated.append(v)
        return render_value(v, spaced)
    monkeypatch.setattr(cli, "render_value", recording)
    session = cli.Session(emit=lambda text: None)
    for line in (":eval 0", "c := 2;", "d := 3;", "e := c + d;", ":eval e",
                 ":eval (1, 2).Re", ":eval EVAL(0)"):
        session.repl_step(line)
    assert evaluated == [0, 5, 1, 0]
    assert all(type(v) is int for v in evaluated), evaluated

    script = tmp_path / "zero.psi"
    script.write_text("print(EVAL(0));\nprint(simplify(0));\n")
    assert cli.main(["run", str(script)]) == 0
    assert capsys.readouterr() == ("0\n0\n", "")


# --- classify_binding ---

def test_classify_examples(interp):
    assert classify_binding(1) == "value"
    assert classify_binding(FAIL) == "value"
    assert classify_binding(FreeVarV("x")) == "variable"
    assert classify_binding(ev(interp, "x + x")) == "functional object"


def test_kind_listing():
    interp = make_interpreter()
    interp.run_program(parse_program("""\
var
  a, b, c, d : integer;
a := 1;
b := c + d;
"""))
    env = interp.globals
    assert classify_binding(lookup(env, "a")) == "value"
    assert classify_binding(lookup(env, "b")) == "functional object"
    assert classify_binding(lookup(env, "c")) == "variable"
    assert classify_binding(lookup(env, "d")) == "variable"


# --- match_pattern ---

def test_match_binds_operands(interp):
    subject = ev(interp, "i + x")
    env = {}
    assert interp.match_pattern(subject, parse_expression("C + D"), env,
                                frozenset({"C", "D"}))
    assert lookup(env, "C") == ComplexV(0, 1)
    assert lookup(env, "D") == FreeVarV("x", "Algebra")


def test_non_thunk_never_matches_structurally(interp):
    env = {}
    before = snapshot(env, interp.globals)
    assert not interp.match_pattern(3, parse_expression("C + D"),
                                    env, frozenset({"C", "D"}))
    assert snapshot(env, interp.globals) == before


def test_fail_pattern_is_identity_test(interp):
    env = {}
    assert interp.match_pattern(FAIL, parse_expression("fail"), env)
    assert not interp.match_pattern(0, parse_expression("fail"),
                                    env)


def test_structural_equality_between_bound_values(interp):
    env = {"A": ComplexV(2, 4)}
    assert interp.match_pattern(ComplexV(2, 4), parse_expression("A"), env)
    assert not interp.match_pattern(ComplexV(2, 5), parse_expression("A"),
                                    env)


def test_failed_match_leaves_par_frame_unchanged(interp):
    # the left operand matches C but the literal 7 does not match the i
    # inside the subject, so the partial binding of C must be rolled back
    subject = ev(interp, "x + i")
    env = {}
    before = snapshot(env, interp.globals)
    assert not interp.match_pattern(subject, parse_expression("C + 7"), env,
                                    frozenset({"C"}))
    assert snapshot(env, interp.globals) == before


# --- invoke_method ---

def test_algebra_mul_distributes_unfolded(interp):
    impl = interp.registry.resolve_method("Algebra", "*", "infix")
    result = interp.invoke_method(impl, [ev(interp, "i + x"),
                                         ComplexV(0, 1)], None)
    assert isinstance(result, ThunkV)
    assert render_value(result, spaced=True) == "i * i + i * x"


def test_algebra_mul_fails_on_atoms(interp):
    impl = interp.registry.resolve_method("Algebra", "*", "infix")
    assert interp.invoke_method(impl, [ComplexV(0, 1), ComplexV(0, 1)],
                                None) is FAIL


def test_complex_mul_native_path(interp):
    # oracle: (0+1j) * (0+1j) == -1+0j
    assert complex(0, 1) * complex(0, 1) == complex(-1, 0)
    impl = interp.registry.resolve_method("Complex", "*", "infix")
    assert interp.invoke_method(impl, [ComplexV(0, 1), ComplexV(0, 1)],
                                None) == ComplexV(-1, 0)


def test_unassigned_return():
    interp = make_interpreter()
    interp.run_program(parse_program("""\
function noop(A : Algebra) : Algebra;
begin
  A := A
end;
"""))
    with pytest.raises(UnassignedReturn):
        ev(interp, "noop(1)")


# --- force ---

def test_force_after_assignment():
    interp = make_interpreter()
    interp.run_program(parse_program("var c, d : integer;\nb := c + d;"))
    thunk = lookup(interp.globals, "b")
    interp.run_program(parse_program("c := 1;\nd := 2;"))
    assert interp.force(thunk) == 3
    assert 1 + 2 == 3  # addition oracle


def test_force_identity_on_values(interp):
    assert interp.force(5) == 5
    assert interp.force(FAIL) is FAIL


def test_force_residual_with_free_variable(interp):
    value = interp.force(ev(interp, "i * x"))
    assert isinstance(value, ThunkV)
    assert render_value(value) == "i*x"


def test_force_idempotent(interp):
    for source in ("i * x", "x + y", "(i + x) * i", "1 + 2"):
        once = interp.force(ev(interp, source))
        assert value_equal(interp.force(once), once)


# --- laziness soundness ---

ops = st.sampled_from(["+", "-", "*"])


def exprs(depth):
    leaf = st.one_of(
        st.integers(min_value=-9, max_value=9).map(ast.IntLit),
        st.sampled_from(["u", "v"]).map(ast.Ident))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(ops, sub, sub).map(lambda t: ast.Infix(*t)),
            sub.map(lambda e: ast.Prefix("-", e))),
        max_leaves=2 ** 6)


def direct_int_eval(expr, env):
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Ident):
        return env[expr.name]
    if isinstance(expr, ast.Prefix):
        return -direct_int_eval(expr.operand, env)
    a = direct_int_eval(expr.lhs, env)
    b = direct_int_eval(expr.rhs, env)
    return {"+": a + b, "-": a - b, "*": a * b}[expr.op]


@settings(max_examples=200, deadline=None)
@given(exprs(6), st.integers(-9, 9), st.integers(-9, 9))
def test_laziness_soundness(expr, u, v):
    interp = make_interpreter()
    interp.run_program(parse_program("var u, v : integer;"))
    thunk = interp.eval_expr(expr, interp.globals)
    interp.run_program(parse_program(f"u := {u}; v := {v};"))
    forced = interp.force(thunk)
    expected = direct_int_eval(expr, {"u": u, "v": v})
    assert forced == expected

