"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import itertools
import random

from psipp import ast
from psipp.algebra import (complex_mul, distribute, make_interpreter,
                           simplify)
from psipp.cli import run_repl
from psipp.monomials import (MonomialRegister, format_monomial,
                             parse_monomial, register_conjugate,
                             register_mul, rep_label)
from psipp.parser import parse_expression, parse_juxtaposition, parse_program
from psipp.pretty import render_expr
from psipp.values import (FAIL, ComplexV, FreeVarV, RegisterV,
                          ThunkV, classify_binding)

import test_parser
from bindings import lookup


def report(number, description):
    print(f"PASS criterion {number}: {description}")


def fresh_interp():
    interp = make_interpreter()
    interp.run_program(parse_program("var x, y : Algebra;"))
    return interp


def test_criterion_1_worked_example_with_trace():
    out = io.StringIO()
    run_repl(stdin=io.StringIO("var x : Algebra;\n:eval (i + x) * i\n:quit\n"),
             stdout=out, stderr=io.StringIO(), trace=True)
    lines = out.getvalue().splitlines()
    assert lines[-1] == "-1 + i*x"
    assert lines[:-1] == ["i * i + i * x", "-1 + i * x"]
    report(1, ":eval (i + x) * i prints -1 + i*x; --trace shows exactly "
              "the two rewrite steps")


def test_criterion_2_promotion_example():
    # independent oracle first
    oracle = complex(2, 0) * complex(1, 2)
    assert (int(oracle.real), int(oracle.imag)) == (2, 4)
    interp = fresh_interp()
    value = interp.eval_expr(parse_expression("2*(1+2*i)"), interp.globals)
    assert value == ComplexV(2, 4)
    report(2, "2*(1+2*i) evaluates to ComplexValue(2, 4)")


def test_criterion_3_kind_classification():
    interp = make_interpreter()
    interp.run_program(parse_program(
        "var\n  a, b, c, d : integer;\na := 1;\nb := c + d;\n"))
    assert classify_binding(lookup(interp.globals, "a")) == "value"
    assert classify_binding(lookup(interp.globals, "b")) == "functional object"
    report(3, "four-line kind program yields a: value, b: functional object")


def _gauss(re, im=0):
    return (re, im)


def _gauss_ops():
    return {
        "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
        "-": lambda a, b: (a[0] - b[0], a[1] - b[1]),
        "*": lambda a, b: (a[0] * b[0] - a[1] * b[1],
                           a[0] * b[1] + a[1] * b[0]),
        "neg": lambda a: (-a[0], -a[1]),
    }


def _gauss_eval(expr, captures, assignment):
    ops = _gauss_ops()
    if isinstance(expr, ast.IntLit):
        return _gauss(expr.value)
    if isinstance(expr, ast.ValueLeaf):
        v = expr.value
        if type(v) is int:
            return _gauss(v)
        if isinstance(v, ComplexV):
            return _gauss(v.re, v.im)
        if isinstance(v, FreeVarV):
            return assignment[v.name]
        if isinstance(v, ThunkV):
            return _gauss_eval(v.body, v.capture_map(), assignment)
        raise AssertionError(v)
    if isinstance(expr, ast.Ident):
        bound = captures.get(expr.name)
        if bound is None or isinstance(bound, FreeVarV):
            return assignment[expr.name]
        return _gauss_eval(ast.ValueLeaf(bound), captures, assignment)
    if isinstance(expr, ast.Prefix):
        return ops["neg"](_gauss_eval(expr.operand, captures, assignment))
    return ops[expr.op](_gauss_eval(expr.lhs, captures, assignment),
                        _gauss_eval(expr.rhs, captures, assignment))


def _gauss_value(v, assignment):
    if isinstance(v, ThunkV):
        return _gauss_eval(v.body, v.capture_map(), assignment)
    if type(v) is int:
        return _gauss(v)
    if isinstance(v, ComplexV):
        return _gauss(v.re, v.im)
    if isinstance(v, FreeVarV):
        return assignment[v.name]
    raise AssertionError(v)


def _random_expr_source(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["x", "y", "i", str(rng.randrange(0, 7))])
    if rng.randrange(4) == 0:
        return f"(-{_random_expr_source(rng, depth - 1)})"
    op = rng.choice(["+", "*"])
    return (f"({_random_expr_source(rng, depth - 1)} {op} "
            f"{_random_expr_source(rng, depth - 1)})")


def test_criterion_4_rewriter_soundness():
    interp = fresh_interp()
    rng = random.Random(20260824)
    failures = 0
    for _ in range(1000):
        source = _random_expr_source(rng, rng.randrange(0, 6))
        expr = parse_expression(source)
        original = interp.eval_expr(expr, interp.globals)
        simplified = simplify(original)
        assignment = {
            "x": _gauss(rng.randrange(-9, 10), rng.randrange(-9, 10)),
            "y": _gauss(rng.randrange(-9, 10), rng.randrange(-9, 10)),
            "i": _gauss(0, 1)}
        if _gauss_value(original, assignment) \
                != _gauss_value(simplified, assignment):
            failures += 1
    assert failures == 0
    report(4, "simplify is sound on 1000 random expressions under exact "
              "Gaussian-integer evaluation (0 failures)")


def test_criterion_5_fail_protocol():
    interp = fresh_interp()

    def ev(source):
        return interp.eval_expr(parse_expression(source), interp.globals)

    sums = [ev("i + x"), ev("x + y"), ev("1 + x"), ev("(x + y) + i")]
    non_sums = [0, 7, ComplexV(0, 1), ComplexV(2, -3),
                FreeVarV("x"), FreeVarV("y"),
                RegisterV(MonomialRegister(1, 2, 0, 1)),
                ev("x * y"), ev("i * x"), ev("-x")]
    corpus = sums + non_sums
    assert len(corpus) >= 14 and len(list(
        itertools.product(corpus, repeat=2))) >= 20
    checked = 0
    for a, b in itertools.product(corpus, repeat=2):
        sum_rooted = a in sums or b in sums
        assert (distribute(a, b) is FAIL) == (not sum_rooted)
        checked += 1
    rng = random.Random(5)
    method = interp.registry.resolve_method("Complex", "*", "infix")
    for _ in range(500):
        a = ComplexV(rng.randrange(-50, 51), rng.randrange(-50, 51))
        b = ComplexV(rng.randrange(-50, 51), rng.randrange(-50, 51))
        assert interp.invoke_method(method, [a, b]) == complex_mul(a, b)
    report(5, f"distribute fails exactly on non-sum-rooted pairs "
              f"({checked} structured cases); the prelude's interpreted "
              f"Complex fallback matches native multiplication on 500 "
              f"random pairs")


def test_criterion_6_monomial_laws():
    rng = random.Random(6)

    def rand_register():
        l = rng.randrange(0, 21)
        n = rng.randrange(0, 21)
        return MonomialRegister(rng.randrange(0, l + 1), l,
                                rng.randrange(0, n + 1), n)

    identity = MonomialRegister(0, 0, 0, 0)
    for _ in range(1000):
        a, b, c = rand_register(), rand_register(), rand_register()
        assert register_mul(a, b) == register_mul(b, a)
        assert register_mul(register_mul(a, b), c) \
            == register_mul(a, register_mul(b, c))
        assert register_mul(a, identity) == a
        assert register_conjugate(register_conjugate(a)) == a
        assert register_conjugate(register_mul(a, b)) \
            == register_mul(register_conjugate(a), register_conjugate(b))
        assert rep_label(register_mul(a, b)) == rep_label(a) + rep_label(b)
        conj_label = rep_label(register_conjugate(a))
        label = rep_label(a)
        assert (conj_label.j1, conj_label.j2) == (label.j2, label.j1)
        assert parse_monomial(format_monomial(a)) == a
    report(6, "monoid, involution, homomorphism, label additivity/swap, "
              "and format/parse round-trip hold on 1000 random registers")


def test_criterion_7_juxtaposition():
    rng = random.Random(7)
    letters = "abcdefghjk"
    for _ in range(200):
        word = "".join(rng.choice(letters)
                       for _ in range(rng.randrange(1, 9)))
        expected = test_parser.right_fold_oracle(word, "OP")
        assert parse_juxtaposition(word, "OP") == expected
    report(7, ":word expansion equals the right-fold oracle on random "
              "words of length 1-8")


def test_criterion_8_parser_round_trip_and_precedence():
    rng = random.Random(8)
    for _ in range(1000):
        expr = test_parser.random_expr(rng, rng.randrange(0, 7))
        reparsed = test_parser.strip_spans(parse_expression(render_expr(expr)))
        assert reparsed == expr
    rng = random.Random(88)
    for _ in range(1000):
        source = test_parser.random_int_source(rng, rng.randrange(0, 5))
        assert test_parser.eval_int_tree(parse_expression(source)) \
            == test_parser.shunting_yard_eval(source)
    report(8, "1000 fuzzed round-trips and 1000 precedence-oracle "
              "comparisons pass")
