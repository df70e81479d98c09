"""The arithmetic kernel, checked through every path that reaches it:
evaluation with and without the prelude, the native Complex methods, and
the ``simplify`` fold; and the bound on an integer product, on each of its
three routes."""

import pytest
from hypothesis import example, given, settings, strategies as st

from psipp import ast
from psipp.algebra import make_interpreter, simplify
from psipp.cli import Session
from psipp.errors import EvalError, NoSuchMethod
from psipp.parser import parse_expression
from psipp.values import (MAX_PRODUCT_BITS, ComplexV, RegisterV, complex_mul,
                          int_mul, thunk)

OPERATORS = ["a + b", "a - b", "a * b", "-a"]


def interpreters():
    """A fresh interpreter with the prelude and one without."""
    return make_interpreter(), make_interpreter(prelude=False)


def ev(interp, source, **operands):
    for name, value in operands.items():
        interp.globals[name] = value
    return interp.eval_expr(parse_expression(source), interp.globals)


def folded(source, a, b):
    """Build the unevaluated application straight from value leaves of the
    operands, so that only the rewriter's fold computes it."""
    if source == "-a":
        return simplify(thunk(ast.Prefix("-", ast.ValueLeaf(a))))
    _, op, _ = source.split()
    return simplify(thunk(ast.Infix(op, ast.ValueLeaf(a), ast.ValueLeaf(b))))


def exact(source, a, b):
    """Python's own complex arithmetic on the operands, as an integer pair
    (the operands are small, so floats are exact)."""
    z = eval(source, {"a": as_complex(a), "b": as_complex(b)})
    return int(z.real), int(z.imag)


def as_complex(v):
    return complex(v, 0) if type(v) is int else complex(v.re, v.im)


def as_pair(v):
    return (v, 0) if type(v) is int else (v.re, v.im)


components = st.integers(-99, 99)
gaussian = st.one_of(components,
                     st.builds(ComplexV, components, components))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPERATORS), gaussian, gaussian)
def test_every_kernel_path_agrees_with_python(source, a, b):
    expected = exact(source, a, b)
    operands = [a] if source == "-a" else [a, b]
    kind = int if all(type(v) is int for v in operands) \
        else ComplexV
    prelude, bare = interpreters()
    results = [ev(prelude, source, a=a, b=b), ev(bare, source, a=a, b=b),
               folded(source, a, b)]
    for result in results:
        assert type(result) is kind
        assert as_pair(result) == expected
    # the Complex methods promote integer operands first
    native = ev(prelude, f"Complex.({source})", a=a, b=b)
    assert native == ComplexV(*expected)


def test_complex_method_promotes_integers():
    prelude, _ = interpreters()
    assert ev(prelude, "Complex.(1 + 2)") == ComplexV(3, 0)
    lines = []
    assert Session(emit=lines.append).repl_step(":type Complex.(1 + 2)")
    assert lines == ["Complex value"]


def test_register_product_needs_the_prelude_to_evaluate():
    prelude, bare = interpreters()
    a = ev(prelude, "mono(1,2,0,1)")
    b = ev(prelude, "mono(0,1,1,1)")
    product = ev(prelude, "a * b", a=a, b=b)
    assert isinstance(product, RegisterV)
    with pytest.raises(NoSuchMethod, match="no infix '\\*' for Monomial"):
        ev(bare, "a * b", a=a, b=b)
    # the rewriter folds register products with or without the prelude
    assert folded("a * b", a, b) == product


# --- the bound on an integer product ---

def of_bits(bits: int, low: int, negative: bool) -> int:
    """An integer of exactly ``bits`` bits, ``low`` above the least one."""
    value = (1 << bits - 1) + low % (1 << bits - 1) if bits else 0
    return -value if negative else value


@st.composite
def factors(draw, total: int):
    """Two integers whose bit lengths sum to ``total``."""
    bits = draw(st.integers(0, total))
    return tuple(of_bits(n, draw(st.integers(0, 2**64)), draw(st.booleans()))
                 for n in (bits, total - bits))


def product_routes(a: int, b: int) -> list:
    """``a * b`` by each route to the integer kernel: the walker's integer
    case, the complex product without the prelude and the compiled body
    of ``Complex.infix*``, and the kernel itself."""
    prelude, bare = interpreters()
    x, y = ComplexV(a, 0), ComplexV(b, 0)
    return [lambda: ev(bare, "a * b", a=a, b=b),
            lambda: ev(bare, "a * b", a=x, b=y).re,
            lambda: ev(prelude, "a * b", a=x, b=y).re,
            lambda: complex_mul(x, y).re, lambda: int_mul(a, b)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, MAX_PRODUCT_BITS).flatmap(factors))
@example((1 << MAX_PRODUCT_BITS // 2 - 1, -(1 << MAX_PRODUCT_BITS // 2 - 1)))
def test_a_product_within_the_bound_is_unchanged(pair):
    a, b = pair
    for route in product_routes(a, b):
        assert route() == a * b


@settings(max_examples=10, deadline=None)
@given(factors(MAX_PRODUCT_BITS + 1))
def test_a_product_past_the_bound_is_an_error_on_every_route(pair):
    for route in product_routes(*pair):
        with pytest.raises(EvalError, match=f"integer product exceeds "
                                            f"{MAX_PRODUCT_BITS} bits"):
            route()


def test_the_bound_is_far_above_the_largest_integer_a_workload_makes():
    # shared_force squares 3 thirteen times: 3^(2^13) has 12 985 bits
    assert (3 ** 2**13).bit_length() == 12985
    assert MAX_PRODUCT_BITS >= 64 * 12985
