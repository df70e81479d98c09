"""The arithmetic kernel, checked through every path that reaches it:
evaluation with and without the prelude, the native Complex methods, and
the ``simplify`` fold."""

import pytest
from hypothesis import given, settings, strategies as st

from psipp.algebra import make_interpreter, simplify
from psipp.cli import Session
from psipp.errors import NoSuchMethod
from psipp.evaluator import substitute
from psipp.parser import parse_expression, parse_program
from psipp.values import ComplexV, IntegerV, RegisterV, ThunkV

OPERATORS = ["a + b", "a - b", "a * b", "-a"]


def interpreters():
    """A fresh interpreter with the prelude and one without."""
    pair = make_interpreter(), make_interpreter(prelude=False)
    for interp in pair:
        interp.run_program(parse_program("var p, q : Algebra;"))
    return pair


def ev(interp, source, **operands):
    for name, value in operands.items():
        interp.globals.define(name, value)
    return interp.eval_expr(parse_expression(source), interp.globals)


def folded(interp, source, a, b):
    """Build the application over free p, q, then bind them to the operands
    by substitution so that only the rewriter's fold computes it."""
    fo = ev(interp, source.replace("a", "p").replace("b", "q")).fo
    for name, value in (("p", a), ("q", b)):
        if name in dict(fo.captures):
            fo = substitute(fo, name, value)
    return simplify(ThunkV(fo))


def exact(source, a, b):
    """Python's own complex arithmetic on the operands, as an integer pair
    (the operands are small, so floats are exact)."""
    z = eval(source, {"a": as_complex(a), "b": as_complex(b)})
    return int(z.real), int(z.imag)


def as_complex(v):
    return complex(v.n, 0) if isinstance(v, IntegerV) else complex(v.re, v.im)


def as_pair(v):
    return (v.n, 0) if isinstance(v, IntegerV) else (v.re, v.im)


components = st.integers(-99, 99)
gaussian = st.one_of(components.map(IntegerV),
                     st.builds(ComplexV, components, components))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPERATORS), gaussian, gaussian)
def test_every_kernel_path_agrees_with_python(source, a, b):
    expected = exact(source, a, b)
    operands = [a] if source == "-a" else [a, b]
    kind = IntegerV if all(isinstance(v, IntegerV) for v in operands) \
        else ComplexV
    prelude, bare = interpreters()
    results = [ev(prelude, source, a=a, b=b), ev(bare, source, a=a, b=b),
               folded(prelude, source, a, b), folded(bare, source, a, b)]
    for result in results:
        assert type(result) is kind
        assert as_pair(result) == expected
    # the Complex methods promote integer operands first
    native = ev(prelude, f"Complex.({source})", a=a, b=b)
    assert native == ComplexV(*expected)


def test_complex_method_promotes_integers():
    prelude, _ = interpreters()
    assert ev(prelude, "Complex.(1 + 2)") == ComplexV(3, 0)
    assert Session().repl_step(":type Complex.(1 + 2)") == ["Complex value"]


def test_register_product_needs_the_prelude_to_evaluate():
    prelude, bare = interpreters()
    a = ev(prelude, "mono(1,2,0,1)")
    b = ev(prelude, "mono(0,1,1,1)")
    product = ev(prelude, "a * b", a=a, b=b)
    assert isinstance(product, RegisterV)
    with pytest.raises(NoSuchMethod, match="no infix '\\*' for Monomial"):
        ev(bare, "a * b", a=a, b=b)
    # the rewriter folds register products with or without the prelude
    assert folded(bare, "a * b", a, b) == product
