import itertools
import random

import pytest
from hypothesis import given, strategies as st

from psipp import ast
from psipp.algebra import (complex_mul, distribute, make_interpreter, promote,
                           simplify)
from psipp.errors import EvalError, RewriteLimitExceeded
from psipp.evaluator import free_idents
from psipp.parser import parse_expression, parse_program
from psipp.pretty import render_value
from psipp.values import (FAIL, ComplexV, FreeVarV, RegisterV,
                          ThunkV)
from psipp.monomials import MonomialRegister

from bindings import lookup


@pytest.fixture
def interp():
    session = make_interpreter()
    session.run_program(parse_program("var x, y : Algebra;"))
    return session


def ev(interp, source):
    return interp.eval_expr(parse_expression(source), interp.globals)


# --- distribute ---

def test_distribute_left_sum(interp):
    result = distribute(ev(interp, "i + x"), ComplexV(0, 1))
    assert render_value(result, spaced=True) == "i * i + i * x"


def test_distribute_right_sum(interp):
    result = distribute(FreeVarV("x"), ev(interp, "y + y"))
    assert isinstance(result, ThunkV)
    body = result.body
    assert body.op == "+"
    assert body.lhs == ast.Infix("*", ast.Ident("x"), ast.Ident("y"))
    assert body.rhs == ast.Infix("*", ast.Ident("x"), ast.Ident("y"))


def test_distribute_atoms_fail():
    assert distribute(ComplexV(0, 1), ComplexV(0, 1)) is FAIL


def test_distribute_fail_iff_not_sum_rooted(interp):
    sums = [ev(interp, "i + x"), ev(interp, "x + y"), ev(interp, "1 + x")]
    atoms = [3, ComplexV(2, 1), FreeVarV("x"),
             RegisterV(MonomialRegister(1, 2, 0, 0)),
             ev(interp, "x * y"), ev(interp, "-x"), FAIL]
    for a, b in itertools.product(sums + atoms, repeat=2):
        result = distribute(a, b)
        sum_rooted = a in sums or b in sums
        assert (result is FAIL) == (not sum_rooted)


def test_distribute_single_layer(interp):
    # only the root is distributed; the inner sum survives in the terms
    nested = ev(interp, "(x + y) + x")
    result = distribute(nested, FreeVarV("y"))
    body = result.body
    assert body.lhs == ast.Infix(
        "*", ast.Infix("+", ast.Ident("x"), ast.Ident("y")), ast.Ident("y"))


# --- complex arithmetic ---

def test_complex_mul_i_squared():
    assert complex_mul(ComplexV(0, 1), ComplexV(0, 1)) == ComplexV(-1, 0)


def test_complex_mul_promotion_example():
    # hand application of the componentwise formula to 2 * (1 + 2i)
    assert complex_mul(ComplexV(2, 0), ComplexV(1, 2)) == ComplexV(2, 4)


def test_complex_mul_identity():
    assert complex_mul(ComplexV(1, 0), ComplexV(-7, 3)) == ComplexV(-7, 3)


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_complex_mul_matches_python_complex(a, b, c, d):
    product = complex(a, b) * complex(c, d)
    assert complex_mul(ComplexV(a, b), ComplexV(c, d)) \
        == ComplexV(int(product.real), int(product.imag))


def test_promote():
    assert promote(2) == ComplexV(2, 0)
    assert promote(0) == ComplexV(0, 0)
    assert promote(-3) == ComplexV(-3, 0)


# --- the prelude's Complex.infix* fallback protocol ---

def complex_method(interp, a, b):
    """The interpreted ``Complex.infix*`` of the prelude, run on ``(a, b)``."""
    method = interp.registry.resolve_method("Complex", "*", "infix")
    return interp.invoke_method(method, [a, b])


def test_method_mul_inherited_path(interp):
    result = complex_method(interp, ev(interp, "i + x"), ComplexV(0, 1))
    expected = distribute(ev(interp, "i + x"), ComplexV(0, 1))
    assert result == expected


def test_method_mul_native_path(interp):
    assert complex_method(interp, ComplexV(0, 1), ComplexV(0, 1)) \
        == ComplexV(-1, 0)


def test_product_with_a_free_variable_stays_lazy(interp):
    # the operator application becomes a thunk without running the method,
    # which would demand integer components of x
    runs = interp.method_runs
    result = ev(interp, "i * x")
    assert isinstance(result, ThunkV)
    assert result.body == ast.Infix(
        "*", ast.ValueLeaf(ComplexV(0, 1)), ast.Ident("x"))
    assert render_value(result) == "i*x"
    assert interp.method_runs == runs
    with pytest.raises(EvalError, match="complex components must be integers"):
        complex_method(interp, ComplexV(0, 1), FreeVarV("x"))


@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_fallback_equals_native_on_concrete_pairs(a, b, c, d):
    lhs, rhs = ComplexV(a, b), ComplexV(c, d)
    assert complex_method(make_interpreter(), lhs, rhs) \
        == complex_mul(lhs, rhs)


# --- simplify ---

def test_simplify_worked_example(interp):
    steps = []
    result = simplify(ev(interp, "(i + x) * i"), trace=steps.append)
    assert steps == ["i * i + i * x", "-1 + i * x"]
    assert render_value(result) == "-1 + i*x"


def test_simplify_value_is_normal_form():
    assert simplify(ComplexV(2, 4)) == ComplexV(2, 4)
    assert simplify(7) == 7
    assert simplify(FAIL) is FAIL


def test_simplify_promotion_chain(interp):
    # the interpreter folds 2*(1+2*i) eagerly; keep it symbolic by
    # routing the factors through free variables before simplifying
    interp.run_program(parse_program("var p, q : Algebra;\n"
                                     "e := p * (q + 2*i);"))
    thunk = lookup(interp.globals, "e")
    interp.run_program(parse_program("p := 2; q := 1;"))
    forced = interp.force(thunk)
    assert simplify(forced) == ComplexV(2, 4)


def test_simplify_rewrite_limit(interp):
    with pytest.raises(RewriteLimitExceeded):
        simplify(ev(interp, "(x + y) * (x + y) * (x + y)"), max_steps=1)


def test_simplify_no_like_term_collection(interp):
    result = simplify(ev(interp, "x + x"))
    assert render_value(result) == "x + x"


# --- soundness and safety oracles ---

def random_source(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["x", "y", "i", str(rng.randrange(0, 5))])
    shape = rng.randrange(5)
    if shape == 0:
        return f"(-{random_source(rng, depth - 1)})"
    op = rng.choice(["+", "*", "-"])
    return (f"({random_source(rng, depth - 1)} {op} "
            f"{random_source(rng, depth - 1)})")


def oracle_eval(expr, captures, assignment):
    """Exact evaluation in the assignment's ring. Values are whatever the
    assignment maps atoms to; operations come from the ring itself."""
    ring = assignment["__ring__"]
    if isinstance(expr, ast.IntLit):
        return ring["scalar"](complex(expr.value))
    if isinstance(expr, ast.ValueLeaf):
        v = expr.value
        if type(v) is int:
            return ring["scalar"](complex(v))
        if isinstance(v, ComplexV):
            return ring["scalar"](complex(v.re, v.im))
        if isinstance(v, FreeVarV):
            return assignment[v.name]
        if isinstance(v, ThunkV):
            return oracle_eval(v.body, v.capture_map(), assignment)
        raise AssertionError(v)
    if isinstance(expr, ast.Ident):
        bound = captures.get(expr.name)
        if bound is None or isinstance(bound, FreeVarV):
            return assignment[expr.name]
        return oracle_eval(ast.ValueLeaf(bound), captures, assignment)
    if isinstance(expr, ast.Prefix):
        return ring["neg"](oracle_eval(expr.operand, captures, assignment))
    a = oracle_eval(expr.lhs, captures, assignment)
    b = oracle_eval(expr.rhs, captures, assignment)
    return ring[expr.op](a, b)


def scalar_ring():
    return {"scalar": lambda c: c, "neg": lambda a: -a,
            "+": lambda a, b: a + b, "-": lambda a, b: a - b,
            "*": lambda a, b: a * b}


def matrix_ring():
    def scalar(c):
        return ((c, 0), (0, c))

    def add(a, b):
        return tuple(tuple(x + y for x, y in zip(ra, rb))
                     for ra, rb in zip(a, b))

    def neg(a):
        return tuple(tuple(-x for x in row) for row in a)

    def mul(a, b):
        return tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2))
            for r in range(2))

    return {"scalar": scalar, "neg": neg, "+": add,
            "-": lambda x, y: add(x, neg(y)), "*": mul}


def value_in_ring(v, assignment):
    ring = assignment["__ring__"]
    if isinstance(v, ThunkV):
        return oracle_eval(v.body, v.capture_map(), assignment)
    if type(v) is int:
        return ring["scalar"](complex(v))
    if isinstance(v, ComplexV):
        return ring["scalar"](complex(v.re, v.im))
    if isinstance(v, FreeVarV):
        return assignment[v.name]
    raise AssertionError(v)


def test_simplify_soundness_commutative(interp):
    rng = random.Random(4242)
    for _ in range(300):
        source = random_source(rng, rng.randrange(0, 6))
        expr = parse_expression(source)
        original = interp.eval_expr(expr, interp.globals)
        simplified = simplify(original)
        assignment = {"x": complex(rng.randrange(-5, 6), rng.randrange(-5, 6)),
                      "y": complex(rng.randrange(-5, 6), rng.randrange(-5, 6)),
                      "i": complex(0, 1), "__ring__": scalar_ring()}
        assert value_in_ring(original, assignment) \
            == value_in_ring(simplified, assignment)


def test_simplify_noncommutative_safety(interp):
    # evaluating in a ring of 2x2 matrices with noncommuting x and y
    # detects any swapped product factors; complex constants stay central
    # as scalar matrices
    rng = random.Random(777)
    ring = matrix_ring()
    for _ in range(300):
        source = random_source(rng, rng.randrange(0, 6))
        expr = parse_expression(source)
        original = interp.eval_expr(expr, interp.globals)
        simplified = simplify(original)
        def rand_matrix():
            return tuple(tuple(complex(rng.randrange(-3, 4))
                               for _ in range(2)) for _ in range(2))
        assignment = {"x": rand_matrix(), "y": rand_matrix(),
                      "i": ring["scalar"](complex(0, 1)), "__ring__": ring}
        assert value_in_ring(original, assignment) \
            == value_in_ring(simplified, assignment)


def test_simplify_captures_exactly_its_free_identifiers(interp):
    # simplify keeps the thunk's captures as they are: no rewrite may add
    # or drop an identifier
    interp.run_program(parse_program("var z : Complex;"))
    rng = random.Random(5)
    sources = [f"{random_source(rng, rng.randrange(1, 6))} * "
               f"{rng.choice(['z.Re', 'x', '2'])}" for _ in range(200)]
    for source in ["(z.Re + y) * (y + 2)", *sources]:
        simplified = simplify(ev(interp, source))
        if isinstance(simplified, ThunkV):
            assert {name for name, _ in simplified.captures} \
                == free_idents(simplified.body)


def test_simplify_reaches_fixed_point(interp):
    rng = random.Random(11)
    for _ in range(100):
        source = random_source(rng, rng.randrange(0, 5))
        simplified = simplify(interp.eval_expr(parse_expression(source),
                                               interp.globals))
        again = simplify(simplified)
        assert again == simplified
