import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

from psipp.cli import Session, run_file, run_repl

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


@pytest.mark.parametrize("call", [
    "conjugate(1)", "conjugate()", "mono(1,2,3)", "mono(1,2,0,1,5)",
    "mono(1,2,0,i)", "mono(2,1,0,0)", "Complex()", "Complex(1,2,3)",
    "Complex(i)", "simplify()", "simplify(1, 2)"])
def test_builtin_misuse_is_a_runtime_error(tmp_path, call):
    script = tmp_path / "builtin.psi"
    script.write_text(f"x := 1;\nprint({call});\n")
    result = subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        capture_output=True, text=True)
    assert result.returncode == 3
    assert re.match(r"error: 2:\d+: ", result.stderr), result.stderr
    assert "Traceback" not in result.stderr


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
    code, out, err = run_to_strings(DEMOS / f"{name}.psi")
    assert code == 0, err
    assert out == (DEMOS / f"{name}.expected").read_text()


# --- REPL ---

def test_repl_type_command():
    _, out, _ = repl_to_strings("var c, d : integer;\n"
                                "b := c + d;\n:type b\n:quit\n")
    assert out == "integer functional object\n"


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
    before = session.interp.globals.snapshot()
    with pytest.raises(Exception):
        session.repl_step("zzz * 2")
    assert session.interp.globals.snapshot() == before


def test_console_entry_point(tmp_path):
    script = tmp_path / "hello.psi"
    script.write_text("print(1 + 2);\n")
    result = subprocess.run(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "3\n"
