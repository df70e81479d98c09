import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from psipp import cli, evaluator, lexer, parser
from psipp.cli import Session, run_file, run_repl
from psipp.lexer import scan_into

from bindings import snapshot

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_to_strings(path, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run_file(str(path), stdout=out, stderr=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


def repl_to_strings(text, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run_repl(stdin=io.StringIO(text), stdout=out, stderr=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


# --- run_file ---

def test_empty_file(tmp_path):
    script = tmp_path / "empty.psi"
    script.write_text("")
    code, out, err = run_to_strings(script)
    assert (code, out, err) == (0, "", "")


def test_kind_script(tmp_path):
    script = tmp_path / "kinds.psi"
    script.write_text("var a, b, c, d : integer;\n"
                      "a := 1;\nb := c + d;\nkind(a);\nkind(b);\n")
    code, out, _ = run_to_strings(script)
    assert code == 0
    assert out == "a: value\nb: functional object\n"


def test_simplify_script(tmp_path):
    script = tmp_path / "simplify.psi"
    script.write_text("var x : Algebra;\nprint(simplify((i + x) * i));\n")
    code, out, _ = run_to_strings(script)
    assert code == 0
    assert out == "-1 + i*x\n"


def test_parse_error_exit_1(tmp_path):
    script = tmp_path / "bad.psi"
    script.write_text("a := ;\n")
    code, _, err = run_to_strings(script)
    assert code == 1
    assert "1:" in err  # line:column in the diagnostic


def test_an_undecodable_byte_is_a_lexical_error(tmp_path):
    script = tmp_path / "latin1.psi"
    script.write_bytes(b"x := 1;\nprint(x \xff);\n")
    code, out, err = run_to_strings(script)
    assert (code, out, err) == (
        1, "", "error: 2:9: unexpected character '\\udcff'\n")


@pytest.mark.parametrize("text, result", [
    ("x := 2;\nprint(x * 3);\n", (0, "6\n", "")),
    ("x := zz;\n", (3, "", "error: 1:6: unknown identifier 'zz'\n")),
    ("print(1);\nx := 1 +", (1, "", "error: 2:9: expected expression\n")),
], ids=["runs", "error-on-its-line", "error-on-a-later-line"])
def test_a_byte_order_mark_is_skipped(tmp_path, text, result):
    script = tmp_path / "bom.psi"
    script.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert run_to_strings(script) == result


@pytest.mark.parametrize("text, message", [
    pytest.param("x := 1;\n{ a two-line\n comment } y := zz;\n",
                 "3:17: unknown identifier 'zz'", id="after-a-two-line-comment"),
    pytest.param("x := 1;\r\n\ty := \u2212zz;\n",
                 "2:8: unknown identifier 'zz'", id="after-crlf-tab-and-minus"),
    pytest.param("x := 1 +", "1:9: expected expression", id="end-of-input"),
    pytest.param("x := 1;\n" * 100 + "y := 2 ? 3;\n",
                 "101:8: unexpected character '?'",
                 id="lexical-error-after-100-lines"),
])
def test_a_diagnostic_names_the_line_and_column(tmp_path, text, message):
    script = tmp_path / "where.psi"
    script.write_bytes(text.encode())
    code, out, err = run_to_strings(script)
    assert (out, err) == ("", f"error: {message}\n")
    assert code in (1, 3)


@pytest.mark.parametrize("name", ["missing.psi", "."])
def test_an_unreadable_file_is_reported_without_a_traceback(tmp_path, name):
    path = tmp_path / name
    code, out, err = run_to_strings(path)
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"error: cannot read {re.escape(str(path))}: "
                        r"(No such file or directory|Is a directory)\n", err)


def test_registry_error_exit_2(tmp_path):
    script = tmp_path / "dup.psi"
    script.write_text("Group = Object;\nend;\n")
    code, _, err = run_to_strings(script)
    assert code == 2
    assert "Group" in err


def test_runtime_error_exit_3(tmp_path):
    script = tmp_path / "boom.psi"
    script.write_text("a := nosuchname + 1;\n")
    code, _, err = run_to_strings(script)
    assert code == 3
    assert "nosuchname" in err


def test_inherited_call_diagnostic_has_span(tmp_path):
    script = tmp_path / "inherited.psi"
    script.write_text("var x : Algebra;\nprint(Group.(x * x));\n")
    code, _, err = run_to_strings(script)
    assert code == 2
    assert err.startswith("error: 2:12: no infix '*' on Group")


def test_error_inside_a_prelude_method_is_reported_at_the_call(tmp_path):
    script = tmp_path / "prelude_error.psi"
    script.write_text("var x, y : Algebra;\nprint(Complex.(x * y));\n")
    code, _, err = run_to_strings(script)
    assert code == 3
    assert err == ("error: 2:14: complex components must be integers "
                   "(in Complex.infix*)\n")


def test_an_error_names_the_innermost_user_method_it_left(tmp_path):
    script = tmp_path / "nested_error.psi"
    for source, message in [
        ("function g(a : integer) : integer; begin Return := a.Re end;\n"
         "function h(a : integer) : integer; begin Return := g(a) + 1 end;\n"
         "print(h(1));\n",
         "error: 1:53: no field 'Re' on this value (in g)\n"),
        ("var x, y : Algebra;\n"
         "function g(A : Algebra) : Algebra;\n"
         "begin Return := Complex.(A * y) end;\n"
         "print(g(x));\n",
         "error: 3:24: complex components must be integers "
         "(in Complex.infix*)\n"),
    ]:
        script.write_text(source)
        assert run_to_strings(script) == (3, "", message)


def test_sessions_share_the_parsed_prelude_not_its_methods():
    lines = {"first": [], "second": []}
    first = Session(emit=lines["first"].append)
    second = Session(emit=lines["second"].append)
    methods = [s.interp.registry.descriptor("Complex").methods[("*", "infix")]
               for s in (first, second)]
    assert methods[0] is not methods[1]
    assert methods[0].decl is methods[1].decl  # one parse for both
    first.run_source("function Complex.infix* (A, B : Complex) : Complex;\n"
                     "begin Return := 7 end;")
    assert first.repl_step("i * i") and second.repl_step("i * i")
    assert lines == {"first": ["7"], "second": ["-1"]}


@pytest.mark.parametrize("call, code", [
    *(pytest.param(call, 3, id=call) for call in [
        "conjugate(1)", "conjugate()", "mono(1,2,3)", "mono(1,2,0,1,5)",
        "mono(1,2,0,i)", "mono(2,1,0,0)", "Complex()", "Complex(1,2,3)",
        "Complex(i)", "simplify()", "simplify(1, 2)"]),
    pytest.param("mono(3000000000, 3000000000, 0, 0)", 3,
                 id="mono-component-overflow"),
    pytest.param("mono(2147483647, 2147483647, 0, 0) * mono(1, 1, 0, 0)", 3,
                 id="register-product-overflow"),
    # past Python's 4300-digit limit on int/str conversion
    pytest.param("9" * 4301, 1, id="literal-4301-digits"),
    pytest.param(f"{'9' * 3000} * {'9' * 3000}", 3, id="print-6000-digits"),
    pytest.param(f"mono(0 - {'9' * 3000} * {'9' * 3000}, 0, 0, 0)", 3,
                 id="mono-negative-6000-digits"),
    # nesting past the Python stack at evaluation
    pytest.param(" + ".join(["x"] * 1200), 3, id="sum-of-1200-terms"),
])
def test_builtin_misuse_is_a_runtime_error(tmp_path, call, code):
    script = tmp_path / "builtin.psi"
    script.write_text(f"x := 1;\nprint({call});\n")
    result = subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        capture_output=True, text=True)
    assert result.returncode == code
    assert re.match(r"error: 2:\d+: ", result.stderr), result.stderr
    assert "Traceback" not in result.stderr


def test_thunk_leaf_past_the_digit_limit_is_a_runtime_error(tmp_path):
    # the product folds to a 6000-digit leaf of the thunk x + ..., which
    # Python refuses to convert to text
    script = tmp_path / "leaf.psi"
    script.write_text(f"var x : Algebra;\n"
                      f"print(x + {'9' * 3000} * {'9' * 3000});\n")
    result = subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (
        3, "", "error: 2:1: integer has too many digits to print\n")


@pytest.mark.parametrize("depth", [
    pytest.param(300, id="parentheses-300-deep"),
    pytest.param(600, id="parentheses-600-deep"),
    pytest.param(5000, id="parentheses-5000-deep"),
])
def test_parenthesis_nesting(tmp_path, depth):
    # an expression is parsed on an explicit stack, at no Python frame
    # per parenthesis
    script = tmp_path / "nested.psi"
    script.write_text(f"x := 1;\nprint({'(' * depth}1{')' * depth});\n")
    result = subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")


def test_statement_nesting(tmp_path):
    # statements are parsed by recursive descent: about 490 nested begin
    # fit on the Python stack
    def nested(depth):
        return "begin " * depth + "print(7)" + " end" * depth + ";\n"

    result = psi_run(tmp_path, nested(400))
    assert (result.returncode, result.stdout, result.stderr) == (0, "7\n", "")
    result = psi_run(tmp_path, "x := 1;\n" + nested(1000))
    assert (result.returncode, result.stdout) == (1, "")
    assert re.fullmatch(r"error: 2:\d+: statements nested too deeply\n",
                        result.stderr), result.stderr


@pytest.mark.parametrize("source, out", [
    pytest.param("print(" + " + ".join(["1"] * 900) + ");\n", "900\n",
                 id="sum-of-900-terms"),
    pytest.param("function f(A : integer) : integer; begin Return := "
                 + " + ".join(["A"] * 900) + " end;\nprint(f(2));\n",
                 "1800\n", id="body-sum-of-900-terms"),
    pytest.param("print(" + "-" * 900 + "1);\n", "1\n",
                 id="prefix-minus-900-deep"),
])
def test_evaluation_nesting_within_the_stack(tmp_path, source, out):
    # evaluating, walked or compiled, costs one Python frame per level
    script = tmp_path / "nested.psi"
    script.write_text(source)
    result = subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, out, "")


def test_eval_of_a_body_1500_deep(tmp_path):
    script = tmp_path / "deep.psi"
    script.write_text("var x : integer;\na := x;\n" + "a := a + x;\n" * 1500
                      + "x := 1;\nprint(EVAL(a));\n")
    assert run_to_strings(script) == (0, "1501\n", "")


def psi_run(tmp_path, source, *flags):
    script = tmp_path / "deep.psi"
    script.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", *flags, str(script)],
        capture_output=True, text=True)


DEEP_SUM = ("var x, y : Algebra;\na := x;\n" + "a := a + x;\n" * 1500
            + "print(simplify(a * y));\n")


def test_print_of_a_body_1500_deep(tmp_path):
    result = psi_run(tmp_path, DEEP_SUM)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == " + ".join(["x*y"] * 1501) + "\n"


def test_trace_of_a_body_1500_deep(tmp_path):
    # step k distributes y over the innermost sum left: 1501 - k x's
    result = psi_run(tmp_path, DEEP_SUM, "--trace")
    assert (result.returncode, result.stderr) == (0, "")
    *steps, printed = result.stdout.splitlines()
    expected = []
    for k in range(1, 1501):
        left = 1501 - k
        head = "x * y" if left == 1 else f"({' + '.join(['x'] * left)}) * y"
        expected.append(head + " + x * y" * k)
    assert steps == expected
    assert steps[-1] == " + ".join(["x * y"] * 1501)
    assert printed == " + ".join(["x*y"] * 1501)


@pytest.mark.parametrize("step, text", [
    pytest.param("a := x * a;", "x*(" * 1499 + "x*x" + ")" * 1499,
                 id="right-nested-product"),
    pytest.param("a := -a;", "-" * 1500 + "x", id="nested-prefix-minus"),
])
def test_print_of_an_operator_1500_deep(tmp_path, step, text):
    result = psi_run(tmp_path, "var x : Algebra;\na := x;\n"
                     + f"{step}\n" * 1500 + "print(a);\n")
    assert (result.returncode, result.stdout, result.stderr) == (
        0, text + "\n", "")


def test_a_method_activation_is_scoped_to_its_call(tmp_path):
    # a par variable binds per call; a par variable named like a parameter
    # reads the argument; an assignment in a body stays in its activation
    script = tmp_path / "scopes.psi"
    script.write_text(
        "var x, y : Algebra;\n"
        "function g(A : Algebra) : Algebra; par P : Algebra;\n"
        "begin if A = P * y then Return := P else Return := fail end;\n"
        "function f(A : Algebra) : Algebra; par A : Algebra;\n"
        "begin if x = A then Return := A else Return := y end;\n"
        "function h(A : integer) : integer;\n"
        "begin loc := A; Return := A + 1 end;\n"
        "print(g(x * y)); print(g(y * y)); print(g(x)); print(f(x)); "
        "print(f(y)); print(h(1)); kind(loc);\n")
    assert run_to_strings(script) == (
        3, "x\ny\nfail\nx\ny\n2\n",
        "error: 8:92: unknown identifier 'loc'\n")


def test_a_global_neither_blocks_nor_receives_a_par_binding(tmp_path):
    # a par variable belongs to its activation: a global of its name, a
    # free variable or a value, is not a binding of it
    script = tmp_path / "par_scope.psi"
    script.write_text(
        "function left(A : Algebra) : Algebra; par P, Q : Algebra; "
        "begin if A = P * Q then Return := P else Return := A end;\n"
        "var x, y, P : Algebra;\nprint(left(x * y));\n"
        "P := 5;\nprint(left(x * y));\nprint(P);\n")
    assert run_to_strings(script) == (0, "x\nx\n5\n", "")
    assert repl_to_strings(
        "P := 2;\nfunction f(A : integer) : integer; par P : integer; "
        "begin if A = P then Return := P end;\nf(3)\n:quit\n") == (
        0, "3\n", "")


def test_a_par_variable_bound_in_its_activation_is_not_rebound(tmp_path):
    script = tmp_path / "rebound.psi"
    script.write_text(
        "function f(A, B : Algebra) : Algebra; par P, Q, R : Algebra;\n"
        "begin if A = P * Q then Return := Q; if B = P * R then Return := R "
        "end;\nvar x, y, z : Algebra;\nprint(f(x * y, x * z));\n")
    assert run_to_strings(script) == (
        3, "", "error: 2:45: par variable 'P' already bound (in f)\n")


@pytest.mark.parametrize("body, uses, expected", [
    # a method that never assigns Return has no result, whatever a global
    # Return holds
    ("begin print(A) end", "print(f(1));",
     (3, "1\n", "error: 2:1: 'f' never assigned Return\n")),
    # assigning Return sets the method's own, not the global
    ("begin Return := A + 1 end", "print(f(1));\nprint(Return);",
     (0, "2\n5\n", "")),
    # reading Return reads the method's own, unassigned here
    ("begin Return := Return + A end", "print(f(1));",
     (3, "", "error: 2:52: Return read before assignment (in f)\n")),
], ids=["never-assigned", "assigned", "read-first"])
def test_return_is_the_method_frames_own(tmp_path, body, uses, expected):
    script = tmp_path / "return.psi"
    script.write_text(f"Return := 5;\nfunction f(A : integer) : integer; "
                      f"{body};\n{uses}\n")
    assert run_to_strings(script) == expected


def test_a_body_that_assigns_a_global_rebinds_it(tmp_path):
    script = tmp_path / "globals.psi"
    script.write_text(
        "g := 1;\nfunction f(A : integer) : integer;\n"
        "begin g := g + A; Return := g end;\n"
        "print(f(2)); print(f(3)); print(g);\n")
    assert run_to_strings(script) == (0, "3\n6\n6\n", "")


def test_no_prelude_flag(tmp_path):
    script = tmp_path / "wants_i.psi"
    script.write_text("print(i);\n")
    assert run_to_strings(script)[0] == 0
    assert run_to_strings(script, prelude=False)[0] == 3


def test_determinism(tmp_path):
    script = tmp_path / "det.psi"
    script.write_text("var x : Algebra;\n"
                      "print(simplify((i + x) * (i + x)));\n"
                      "print(2*(1+2*i));\nprint(mono(2,2,0,0));\n")
    first = run_to_strings(script)
    second = run_to_strings(script)
    assert first == second


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.psi")))
def test_golden_demos(name):
    for trace, golden in ((False, ".expected"), (True, ".trace.expected")):
        code, out, err = run_to_strings(DEMOS / f"{name}.psi", trace=trace)
        assert code == 0, err
        assert out == (DEMOS / f"{name}{golden}").read_text()


def python310_environ():
    """An environment in which ``python3.10`` runs, or None. A pyenv shim
    runs it only when ``PYENV_VERSION`` names an installed 3.10, so each
    of those is tried after the environment as it is."""
    try:
        listed = subprocess.run(["pyenv", "versions", "--bare"],
                                capture_output=True, text=True).stdout.split()
    except OSError:
        listed = []
    versions = [v for v in listed if v.split(".")[:2] == ["3", "10"]]
    for extra in [{}, *({"PYENV_VERSION": v} for v in versions)]:
        env = {**os.environ, **extra}
        try:
            if subprocess.run(["python3.10", "-c", "pass"], env=env,
                              capture_output=True).returncode == 0:
                return env
        except OSError:
            return None
    return None


def test_golden_demos_on_the_oldest_supported_python():
    """Run every demo on Python 3.10 too, when one is found on the PATH or
    through pyenv: a check older than the supported floor, which
    ``requires-python`` sets at 3.11. 3.10 is the oldest with
    ``dataclass(slots=True)``, which the tree needs."""
    env = python310_environ()
    if env is None:
        pytest.skip("no usable python3.10 on the PATH")
    script = """\
import io, json, sys
from psipp.cli import run_file
outputs = {}
for path in sys.argv[1:]:
    for trace in (False, True):
        out, err = io.StringIO(), io.StringIO()
        code = run_file(path, trace=trace, stdout=out, stderr=err)
        outputs[f"{path} {trace}"] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(outputs))
"""
    demos = sorted(DEMOS.glob("*.psi"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(["python3.10", "-c", script, *map(str, demos)],
                          capture_output=True, text=True, timeout=120,
                          env={**env, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    outputs = json.loads(done.stdout)
    for demo in demos:
        for trace, golden in ((False, ".expected"), (True, ".trace.expected")):
            expected = demo.with_suffix(golden).read_text()
            assert outputs[f"{demo} {trace}"] == [0, expected, ""], demo.name


# --- REPL ---

def test_repl_type_command():
    _, out, _ = repl_to_strings("var c, d : integer;\n"
                                "b := c + d;\n:type b\n:type c\n:quit\n")
    assert out == "integer functional object\ninteger variable\n"


def test_repl_types_a_field_subterm_integer():
    # par matching extracts z.Re from z.Re * y; a field is an integer
    _, out, err = repl_to_strings(
        "var z : Complex;\nvar y : Algebra;\n"
        "function left(A : Algebra) : Algebra; par P, Q : Algebra; "
        "begin if A = P * Q then Return := P else Return := A end;\n"
        "b := left(z.Re * y);\n:type b\n:type z.Re\n:quit\n")
    assert (out, err) == ("integer functional object\n"
                          "integer functional object\n", "")


def test_repl_types_an_object_by_its_captures():
    # a captures x : Algebra, b the redeclared x : Complex, which wins
    _, out, err = repl_to_strings(
        "var x : Algebra;\na := x + 1;\nvar x : Complex;\nb := a * x;\n"
        ":type b\nx := (1, 2);\n:type EVAL(b)\n:quit\n")
    assert (out, err) == ("Complex functional object\nComplex value\n", "")


def test_repl_types_a_deep_object():
    text = "var x : Algebra;\na := x;\n" + "a := a + x;\n" * 1500
    _, out, err = repl_to_strings(text + ":type a\n:quit\n")
    assert (out, err) == ("Algebra functional object\n", "")


def test_repl_shows_a_deep_object():
    text = "var x : integer;\na := x;\n" + "a := a + x;\n" * 1500
    _, out, err = repl_to_strings(text + ":show a\n:quit\n")
    sums = ["  " * depth + "+" for depth in range(1500)]
    leaves = ["  " * depth + "x" for depth in range(1500, 0, -1)]
    assert (out, err) == ("\n".join(sums + ["  " * 1500 + "x"] + leaves)
                          + "\n", "")


def test_repl_prints_a_deep_object():
    text = "var x : Algebra;\na := x;\n" + "a := x * a;\n" * 1500
    _, out, err = repl_to_strings(text + "a\n:quit\n")
    assert (out, err) == ("x*(" * 1499 + "x*x" + ")" * 1499 + "\n", "")


def test_repl_deep_nesting_is_an_error():
    text = "x := 1;\n" + " + ".join(["x"] * 1200) + "\nx + 1\n:quit\n"
    code, out, err = repl_to_strings(text)
    assert (code, out) == (0, "2\n")
    assert err == "error: expression nested too deeply\n"


RECURSION = ("function f(A : integer) : integer; begin Return := f(A) end; "
             "x := f(1);")


def test_unbounded_recursion_is_an_error_without_a_traceback(tmp_path):
    script = tmp_path / "recursion.psi"
    script.write_text(RECURSION + "\n")
    result = subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (
        3, "", "error: 1:62: expression nested too deeply\n")


def test_repl_survives_unbounded_recursion():
    definition, _, statement = RECURSION.partition(" x")
    code, out, err = repl_to_strings(
        f"{definition}\nx{statement}\nf(1)\nprint(2);\n:quit\n")
    assert (code, out) == (0, "2\n")
    assert err == ("error: 1:1: expression nested too deeply\n"
                   "error: expression nested too deeply\n")


def test_running_out_of_memory_is_a_runtime_error(tmp_path, monkeypatch):
    # the walker's integer kernel stands in for a product too large for
    # memory: really exhausting it would starve the machine's other work
    def exhausted(op, args):
        raise MemoryError
    monkeypatch.setattr(evaluator, "int_arith", exhausted)
    script = tmp_path / "square.psi"
    script.write_text("x := 3;\nx := x * x;\nprint(1);\n")
    assert run_to_strings(script) == (3, "", "error: out of memory\n")
    code, out, err = repl_to_strings("x := 3 * 3;\n3 * 3\nprint(1);\n")
    assert (code, out, err) == (0, "1\n", "error: out of memory\n" * 2)


@pytest.mark.parametrize("first, square, line", [
    ("x := 3;", "x := x * x;", "error: 21:8: integer product exceeds "
                               "1048576 bits\n"),
    ("x := (3, 1);", "x := x * x;", "error: 21:8: integer product exceeds "
                                    "1048576 bits (in Complex.infix*)\n"),
], ids=["integers", "complex"])
def test_squaring_forty_times_ends_at_the_product_bound(tmp_path, first,
                                                        square, line):
    # each line doubles the size: 2^40 bits would exhaust any memory, and
    # the kernel refuses the product at line 21, before it is made
    script = tmp_path / "square.psi"
    script.write_text("\n".join([first] + [square] * 40 + ["print(1);\n"]))
    start = time.perf_counter()
    assert run_to_strings(script) == (3, "", line)
    assert time.perf_counter() - start < 2


def test_the_product_bound_is_reported_at_the_product_in_a_body(tmp_path):
    # the compiled body and the walker both name the product, not the call
    script = tmp_path / "square.psi"
    script.write_text("function sq(A : integer) : integer;\nbegin\n"
                      "  Return := A * A\nend;\n"
                      "print(" + "sq(" * 22 + "3" + ")" * 22 + ");\n")
    assert run_to_strings(script) == (
        3, "", "error: 3:15: integer product exceeds 1048576 bits (in sq)\n")


def test_repl_reports_an_error_in_a_body_where_the_body_was_typed():
    code, out, err = repl_to_strings(
        "function f(a : integer) : integer; begin Return := a.Re end;\n"
        "f(1)\n:quit\n")
    assert (code, out, err) == (0, "", "error: 1:53: no field 'Re' on this "
                                       "value (in f)\n")


def test_repl_columns_count_in_the_line_as_typed():
    code, out, err = repl_to_strings(
        ":type 1 +\n:eval (1 ? 2)\n   1 +\n  zz\n   :show 1 ?\n:type\n"
        ":quit\n")
    assert (code, out) == (0, "")
    assert err == ("error: 1:10: expected expression\n"
                   "error: 1:10: unexpected character '?'\n"
                   "error: 1:4: expected statement\n"
                   "error: 1:3: unknown identifier 'zz'\n"
                   "error: 1:12: unexpected character '?'\n"
                   "error: 1:6: expected expression\n")


def test_repl_command_errors_are_located_at_the_command():
    code, out, err = repl_to_strings(":foo\n  :word ab\n:word\n:quit\n")
    assert (code, out) == (0, "")
    assert err == ("error: 1:1: unknown command ':foo'\n"
                   "error: 1:3: :word takes a word and an operation name\n"
                   "error: 1:1: :word takes a word and an operation name\n")


def test_readme_repl_transcript():
    readme = (DEMOS.parent / "README.md").read_text()
    command, expected = re.search(r"\n\$ (printf .*\| psi repl --trace)\n"
                                  r"(.*?)```", readme, re.S).groups()
    inputs = re.fullmatch(r"printf '(.*)' \| psi repl --trace", command)[1]
    _, out, err = repl_to_strings(inputs.replace("\\n", "\n"), trace=True)
    assert (out, err) == (expected, "")


def test_repl_eval_worked_example():
    _, out, _ = repl_to_strings("var x : Algebra;\n"
                                ":eval (i + x) * i\n:quit\n")
    assert out == "-1 + i*x\n"


def test_repl_trace_shows_both_steps():
    _, out, _ = repl_to_strings("var x : Algebra;\n"
                                ":eval (i + x) * i\n:quit\n", trace=True)
    assert out == "i * i + i * x\n-1 + i * x\n-1 + i*x\n"


def test_repl_word_command():
    _, out, _ = repl_to_strings(":word abc OP\n:quit\n")
    assert out == "OP(a, OP(b, c))\n"


def test_repl_show_command():
    _, out, _ = repl_to_strings("var x : Algebra;\n:show i * x\n:quit\n")
    assert out == "*\n  i\n  x\n"


def test_repl_expression_printing():
    _, out, _ = repl_to_strings("1 + 2\n2*(1+2*i)\n:quit\n")
    assert out == "3\n2 + 4*i\n"


def test_repl_runs_print_and_kind_as_statements():
    _, out, err = repl_to_strings("var x : Algebra;\nprint(1);\nkind(x);\n"
                                  "print(1 + 2)\n:quit\n")
    assert (out, err) == ("1\nx: variable\n3\n", "")


def test_repl_prints_the_output_of_a_line_before_its_error():
    _, out, err = repl_to_strings("print(1); print(zz);\nprint(2)\n:quit\n")
    assert (out, err) == ("1\n2\n", "error: 1:17: unknown identifier 'zz'\n")


def test_repl_eval_builtin():
    _, out, _ = repl_to_strings("var c, d : integer;\nb := c + d;\n"
                                "c := 1;\nd := 2;\nEVAL(b)\n:quit\n")
    assert out == "3\n"


def test_repl_error_isolation():
    text = ("var c, d : integer;\n"
            "b := c + d;\n"
            "oops +\n"           # parse error
            "nosuch * 2\n"       # runtime error
            ":type b\n:quit\n")
    code, out, err = repl_to_strings(text)
    assert code == 0
    assert out == "integer functional object\n"
    assert err.count("error:") == 2


def test_repl_session_state_survives_errors():
    # environment snapshot after an error equals snapshot before it
    session = Session()
    session.repl_step("var c : integer;")
    before = snapshot(session.interp.globals)
    with pytest.raises(Exception):
        session.repl_step("zzz * 2")
    assert snapshot(session.interp.globals) == before


@pytest.mark.parametrize("line", [
    "x := 1 + 2;", "x := 1 + 2", "  y := x * x ;  ",
    "begin print(x); kind(x) end", "if x = 3 then print(x)",
    "z := (1, 2) * (3, 4) { a comment }"])
def test_a_repl_statement_line_is_lexed_at_most_twice(monkeypatch, line):
    """The expression attempt and the statement run each lex the line once;
    the check for a lexical error after the attempt fails lexes only the
    text the attempt did not scan."""
    session = Session(emit=lambda text: None)
    session.repl_step("x := 3;")
    scans = []

    def counting_scan_into(source, i, *columns):
        end = scan_into(source, i, *columns)
        scans.append((i, end))
        return end
    monkeypatch.setattr(lexer, "scan_into", counting_scan_into)
    monkeypatch.setattr(parser, "scan_into", counting_scan_into)
    session.repl_step(line)
    scanned = Counter(k for i, end in scans for k in range(i, end))
    assert scanned[line.index(line.strip()[0])] == 2
    assert max(scanned.values()) == 2, scans


@pytest.mark.parametrize("argv, entry", [(["run", "x.psi"], "run_file"),
                                         (["repl"], "run_repl")])
def test_an_interrupt_exits_130_without_a_traceback(monkeypatch, capsys,
                                                      argv, entry):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, entry, interrupted)
    assert cli.main(argv) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def test_a_negative_rewrite_limit_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "expand.psi"
    script.write_text("var x, y : Algebra;\nprint(simplify((x + y) * x));\n")
    with pytest.raises(SystemExit) as exit:
        cli.main(["run", str(script), "--max-rewrites", "-1"])
    out, err = capsys.readouterr()
    assert (exit.value.code, out) == (2, "")
    assert err.endswith("error: argument --max-rewrites: "
                        "must be 0 or more, not -1\n")
    # 0 stays a limit: the one step this program needs is past it
    assert cli.main(["run", str(script), "--max-rewrites", "0"]) == 3
    assert capsys.readouterr() == ("", "error: 2:7: more than 0 rewrite "
                                       "steps\n")
    assert cli.main(["run", str(script), "--max-rewrites", "1"]) == 0
    assert capsys.readouterr() == ("x*x + y*x\n", "")


def test_console_entry_point(tmp_path):
    script = tmp_path / "hello.psi"
    script.write_text("print(1 + 2);\n")
    result = subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "3\n"
