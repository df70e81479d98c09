import io
import itertools

import pytest

from psipp.algebra import make_interpreter
from psipp import cli
from psipp.cli import run_file, run_repl
from psipp.errors import (DuplicateType, FieldShadowing, NoSuchMethod,
                          UnknownAncestor)
from psipp.objects import Registry, UserMethod
from psipp.parser import parse_expression, parse_program
from psipp.values import FAIL


@pytest.fixture
def prelude():
    return make_interpreter().registry


def define(registry, source):
    for item in parse_program(source).items:
        registry.define_object(item)


def test_group_descriptor(prelude):
    group = prelude.descriptor("Group")
    assert ("+", "infix") in group.methods
    assert ("-", "prefix") in group.methods


def test_inherited_method_resolved_not_copied(prelude):
    algebra = prelude.descriptor("Algebra")
    assert ("+", "infix") not in algebra.methods
    assert prelude.resolve_method("Algebra", "+", "infix") \
        is prelude.resolve_method("Group", "+", "infix")


def test_duplicate_type(prelude):
    with pytest.raises(DuplicateType):
        define(prelude, "Group = Object;")


def test_unknown_ancestor():
    registry = Registry()
    with pytest.raises(UnknownAncestor):
        define(registry, "Algebra = Object(Group);")


def test_field_shadowing(prelude):
    with pytest.raises(FieldShadowing):
        define(prelude, "Gaussian = Object(Complex);\n  Re : integer;\nend;")


def test_resolve_override(prelude):
    impl = prelude.resolve_method("Complex", "*", "infix")
    assert isinstance(impl, UserMethod)
    assert impl.decl.owner == "Complex"


def test_resolve_walks_to_ancestor(prelude):
    # Complex declares no infix +, so resolution lands on the Complex
    # native attached below Group's signature level
    impl = prelude.resolve_method("Complex", "+", "infix")
    assert callable(impl) and not isinstance(impl, UserMethod)


def test_resolve_no_such_method(prelude):
    with pytest.raises(NoSuchMethod):
        prelude.resolve_method("Group", "*", "infix")


def test_resolution_skips_methods_whose_slots_reject_the_arguments(prelude):
    user = prelude.resolve_method("Complex", "*", "infix",
                                  ["Complex", "integer"])
    assert isinstance(user, UserMethod)  # the integer promotes
    # a Monomial does not fit a Complex slot: Algebra's native takes it
    assert prelude.resolve_method("Complex", "*", "infix",
                                  ["Complex", "Monomial"]) \
        is prelude.resolve_method("Algebra", "*", "infix")
    # neither the Complex native nor Group's signature takes two operands
    with pytest.raises(NoSuchMethod, match="no applicable"):
        prelude.resolve_method("Complex", "-", "prefix",
                               ["Complex", "Complex"])
    # nor does a user method: its fixity fixes its number of operands
    define(prelude, "Vec = Object;\nend;")
    for head in ["prefix -(A : Vec)", "infix +(A, B : Vec)"]:
        source = f"function {head} : Vec; begin Return := A end;"
        (decl,) = parse_program(source).items
        method = UserMethod(decl)
        prelude.attach_method("Vec", decl.symbol, decl.fixity, method)
        assert prelude.resolve_method("Vec", decl.symbol, decl.fixity,
                                      ["Vec"] * len(decl.params)) is method
    with pytest.raises(NoSuchMethod, match="no applicable"):
        prelude.resolve_method("Vec", "-", "prefix", ["Vec", "Vec"])
    with pytest.raises(NoSuchMethod, match="no applicable"):
        prelude.resolve_method("Vec", "+", "infix", ["Vec"])


def test_is_descendant_examples(prelude):
    assert prelude.is_descendant("Complex", "Group")
    assert not prelude.is_descendant("Group", "Complex")
    assert prelude.is_descendant("Group", "Group")


def test_is_descendant_partial_order(prelude):
    names = list(prelude.types)
    for a in names:
        assert prelude.is_descendant(a, a)
    for a, b in itertools.permutations(names, 2):
        if prelude.is_descendant(a, b) and prelude.is_descendant(b, a):
            assert a == b
    for a, b, c in itertools.product(names, repeat=3):
        if prelude.is_descendant(a, b) and prelude.is_descendant(b, c):
            assert prelude.is_descendant(a, c)


def test_resolution_defers_to_ancestor(prelude):
    for name in prelude.types:
        desc = prelude.descriptor(name)
        if desc.ancestor is None:
            continue
        for symbol, fixity in [("+", "infix"), ("-", "prefix"), ("*", "infix")]:
            if (symbol, fixity) in desc.methods:
                continue
            try:
                expected = prelude.resolve_method(desc.ancestor, symbol, fixity)
            except NoSuchMethod:
                with pytest.raises(NoSuchMethod):
                    prelude.resolve_method(name, symbol, fixity)
                continue
            assert prelude.resolve_method(name, symbol, fixity) is expected


def test_a_fail_operand_never_reaches_a_slot_check(monkeypatch):
    # fail is absorbed before dispatch, so a slot is only ever checked
    # against a type name
    checked = []
    original = Registry.kind_compatible

    def spy(self, slot, datum):
        checked.append(datum)
        return original(self, slot, datum)

    monkeypatch.setattr(Registry, "kind_compatible", spy)
    interp = make_interpreter()
    for source in ["(1, 2) * fail", "fail * (1, 2)", "-(fail)",
                   "Complex.((1, 2) * fail)", "mono(1, 2, 0, 1) * fail"]:
        expr = parse_expression(source)
        assert interp.eval_expr(expr, interp.globals) is FAIL, source
    assert interp.eval_expr(parse_expression("(1, 2) * (3, 4)"),
                            interp.globals) is not FAIL
    assert checked and all(isinstance(datum, str) for datum in checked)


def test_ancestor_not_compatible_with_descendant_slot(prelude):
    assert not prelude.kind_compatible("Complex", "Group")
    assert prelude.kind_compatible("Group", "Complex")


def test_integer_promotes_into_complex_chain(prelude):
    assert prelude.kind_compatible("Complex", "integer")
    assert prelude.kind_compatible("Algebra", "integer")


# --- the resolution cache ---

# each body runs, and is compiled, before the next one replaces it
REDEFINE = """\
z := (1, 2);
print(z * z);
function Complex.infix* (A, B : Complex) : Complex;
begin Return := (7, 7) end;
print(z * z);
function Complex.infix* (A, B : Complex) : Complex;
begin Return := (A.Re, 8) end;
print(z * z);
function f(A : Complex) : Complex;
begin Return := A end;
print(f(z));
function f(A : Complex) : Complex;
begin Return := -A end;
print(f(z));
"""
REDEFINED = "-3 + 4*i\n7 + 7*i\n1 + 8*i\n1 + 2*i\n-1 - 2*i\n"


def test_redefined_method_replaces_a_cached_resolution(tmp_path):
    script = tmp_path / "redefine.psi"
    script.write_text(REDEFINE)
    out, err = io.StringIO(), io.StringIO()
    assert run_file(str(script), stdout=out, stderr=err) == 0
    assert (out.getvalue(), err.getvalue()) == (REDEFINED, "")
    out, err = io.StringIO(), io.StringIO()
    run_repl(stdin=io.StringIO(REDEFINE.replace(";\nbegin", "; begin")
                               + ":quit\n"), stdout=out, stderr=err)
    assert (out.getvalue(), err.getvalue()) == (REDEFINED, "")


def test_new_type_replaces_a_cached_resolution(tmp_path):
    # Monomial's slot B : Complex takes an integer only once Complex is a
    # type; until then Base's method, whose slot is integer, applies
    script = tmp_path / "descendant.psi"
    script.write_text(
        "Base = Object;\nMonomial = Object(Base);\n"
        "function Base.infix* (A : Base; B : integer) : Base; "
        "begin Return := fail end;\n"
        "function Monomial.infix* (A : Monomial; B : Complex) : Monomial; "
        "begin Return := A end;\n"
        "m := mono(1, 2, 0, 1);\nprint(m * 2);\n"
        "Complex = Object(Base);\nprint(m * 2);\n")
    out, err = io.StringIO(), io.StringIO()
    assert run_file(str(script), prelude=False, stdout=out, stderr=err) == 0
    assert (out.getvalue(), err.getvalue()) == ("fail\nx1 x2 ~y2\n", "")


def test_products_walk_the_ancestor_chain_a_constant_number_of_times(
        monkeypatch):
    walks = 0
    chain = Registry._chain

    def counted(self, *args):
        nonlocal walks
        walks += 1
        return chain(self, *args)

    interp = make_interpreter()
    monkeypatch.setattr(Registry, "_chain", counted)
    lines = ["z := (3, 2);", "w := (1, 2);", "m := mono(0, 2, 3, 5);",
             "u := mono(3, 4, 1, 3);"]
    lines += ["z := z * w;" if j % 2 == 0 else "m := m * u;"
              for j in range(200)]
    interp.run_program(parse_program("\n".join(lines)))
    # one walk per resolved key: Complex *, the inherited Algebra.(A * B)
    # in its body, and Monomial *
    assert walks <= 3


# --- the dispatch memo: by operator and operand types, until a change ---

def session_lines(prelude=True):
    lines = []
    return cli.Session(prelude=prelude, emit=lines.append), lines


def test_a_complex_product_defined_after_products_is_used_by_the_next():
    session, lines = session_lines()
    session.run_source("z := (1, 2) * (3, 4);\nprint(z);\nprint(z * 2);\n")
    assert session.interp.registry.memo  # the decisions are memoised
    session.run_source("function Complex.infix* (A, B : Complex) : Complex;"
                       " begin Return := (A.Re + B.Re, 7) end;\n"
                       "print((1, 2) * (3, 4));\nprint(z * 2);\n")
    assert lines == ["-5 + 10*i", "-10 + 20*i", "4 + 7*i", "-3 + 7*i"]


def test_a_type_declared_after_a_dispatch_gets_its_products():
    # without the prelude, a complex product is the native kernel's until
    # Complex is a type; then its own infix * applies, to a promoted
    # integer too
    session, lines = session_lines(prelude=False)
    session.run_source("print((1, 2) * (3, 4));\nprint(2 * (3, 4));\n")
    session.run_source("Complex = Object;\n  Re, Im : integer;\nend;\n"
                       "function Complex.infix* (A, B : Complex) : Complex;"
                       " begin Return := (B.Im, A.Re) end;\n"
                       "print((1, 2) * (3, 4));\nprint(2 * (3, 4));\n")
    assert lines == ["-5 + 10*i", "6 + 8*i", "4 + i", "4 + 2*i"]


def test_an_integer_promotes_on_either_side_of_a_complex_receiver():
    session, lines = session_lines()
    session.run_source("function Complex.infix* (A : Algebra; B : Algebra) "
                       ": Algebra; begin Return := B.Re end;\n"
                       "print(2 * (1, 1)); print((1, 1) * 2);\n")
    assert lines == ["1", "2"]


def test_an_integer_slot_keeps_its_integer_at_a_complex_receiver():
    # the method takes (1, 1) * 2 with B the integer 2; on the other side
    # its integer slot rejects (1, 1), so the prelude's product applies
    session, lines = session_lines()
    session.run_source("function Complex.infix* (A : Complex; B : integer) "
                       ": Complex; begin Return := (A.Re * B, A.Im * B) end;\n"
                       "print((1, 1) * 2); print(2 * (1, 1));\n")
    assert lines == ["2 + 2*i", "fail"]


def test_a_resolution_error_is_raised_every_time_and_never_memoised():
    session, lines = session_lines(prelude=False)
    session.run_source("Complex = Object;\n  Re, Im : integer;\nend;\n")
    for _ in range(2):
        with pytest.raises(NoSuchMethod, match="no applicable infix '\\+' "
                                               "on Complex"):
            session.run_source("print((1, 2) + (3, 4));\n")
        assert session.interp.registry.memo == {}
    session.run_source("function Complex.infix+ (A, B : Complex) : Complex;"
                       " begin Return := (A.Re, B.Re) end;\n"
                       "print((1, 2) + (3, 4));\n")
    assert lines == ["1 + 3*i"]
    # an inherited call that resolves nothing is not memoised either
    decided = dict(session.interp.registry.memo)
    for _ in range(2):
        with pytest.raises(NoSuchMethod, match="no infix '-' on Complex"):
            session.run_source("print(Complex.((1, 2) - (3, 4)));\n")
        assert session.interp.registry.memo == decided
