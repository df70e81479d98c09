"""How many Python calls one warm product makes, how many parsing one
statement makes, and how many printing a normal form makes, counted with
``sys.setprofile``: calls of Python functions and of built-in functions
and methods. The statements are the ``concrete`` workload's, so work
added on their path, in the evaluator or in the front end, shows here as
a count, not as a slower benchmark."""

import sys
from collections import Counter
from functools import partial

import pytest

from psipp.algebra import simplify
from psipp.cli import Session
from psipp.parser import parse_program
from psipp.pretty import render_value

from test_rewriter import expand_term

COMPLEX = ("z := z * w;", "z := (3, 4); w := (1, 2);")
# the two lines that ``concrete`` repeats, each with its comment
CONCRETE_PAIR = ("z := z * w; { Gaussian product j }\n"
                 "m := m * u; { register sum j }\n")


def profiled(run) -> list[str]:
    """The names of the calls that ``run()`` makes."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_qualname)
        elif event == "c_call" and arg is not sys.setprofile:
            calls.append(arg.__qualname__)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def calls_of(statement: str, setup: str) -> list[str]:
    """The calls that one run of ``statement`` makes in a session that
    ran ``setup`` and the statement twice already, so that the body it
    runs is compiled and its dispatch decided."""
    session = Session(emit=lambda line: None)
    session.run_source(setup)
    program = parse_program(statement)
    for _ in range(2):
        session.interp.run_program(program)
    return profiled(partial(session.interp.run_program, program))


@pytest.mark.parametrize("statement, setup, budget", [
    # Complex.infix*: Algebra.(A * B) is fail, then four integer products;
    # 45 calls
    (*COMPLEX, 47),
    # the Monomial native: one register product; 14 calls
    ("m := m * u;", "m := mono(1, 2, 1, 2); u := mono(0, 1, 0, 1);", 17),
], ids=["complex", "monomial"])
def test_a_warm_product_stays_within_its_call_budget(statement, setup,
                                                      budget):
    calls = calls_of(statement, setup)
    assert len(calls) <= budget, Counter(calls)


def test_a_warm_product_decides_its_method_without_the_registry():
    calls = calls_of(*COMPLEX)
    assert "Interpreter.dispatch" in calls
    assert not [name for name in calls if name.startswith("Registry.")]
    assert "type_name_of" not in calls


def test_a_warm_product_reads_its_names_and_fields_in_place():
    """``A``, ``B``, ``Return`` and their fields are read by the closures
    that use them, and every name the statement and the body read or
    assign is bound where it is looked for first: the walker evaluates
    only the statement's own expression, and no ``Interpreter.scope``
    runs."""
    calls = Counter(calls_of(*COMPLEX))
    assert calls["Interpreter.eval_expr"] == 1, calls
    assert calls["Interpreter.scope"] == 0, calls


def test_parsing_a_statement_stays_within_its_call_budget():
    # lexing and parsing, about 45 calls a statement: the tags are read in
    # place, and ``peek`` is called only at the end of a batch of tokens
    statements = 2 * 640
    calls = profiled(partial(parse_program, CONCRETE_PAIR * 640))
    assert len(calls) <= 50 * statements, Counter(calls)


def test_printing_a_normal_form_stays_within_its_call_budget():
    # 1024 products in 32 parenthesised rows: each row is a spine, whose
    # two-name products are written in place, about 4.3 calls a product
    # (10.2 when each node and separator went through the stack)
    result = simplify(expand_term(32))
    calls = profiled(partial(render_value, result))
    assert len(calls) <= 8 * 32 * 32, Counter(calls)
