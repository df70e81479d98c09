"""Output has one path: every line that ``print``, ``kind``, ``--trace`` and
the REPL make goes to the interpreter's line sink as it is made, and only
``cli`` turns that sink into writes to a stream. So a run shows each line
before the work that follows it, and a reader that goes away ends the run
with exit code 1 and no traceback."""

import ast
import io
import subprocess
import sys
from pathlib import Path

import pytest

from psipp.cli import run_file, run_repl
from psipp.evaluator import Interpreter

SRC = Path(__file__).resolve().parent.parent / "src" / "psipp"
STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}


def output_uses(path: Path) -> list[str]:
    """Each call of ``print`` in ``path``, and each read of a standard
    stream of ``sys``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            found.append(f"{path.name}:{node.lineno}: print")
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(f"{path.name}:{node.lineno}: sys.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [f"{path.name}:{node.lineno}: sys.{alias.name}"
                      for alias in node.names if alias.name in STREAMS]
    return found


def test_only_the_cli_writes_to_a_stream():
    modules = [path for path in sorted(SRC.glob("*.py"))
               if path.name != "cli.py"]
    assert modules
    assert [line for path in modules for line in output_uses(path)] == []


def test_the_check_sees_each_way_to_a_stream(tmp_path):
    source = tmp_path / "mutant.py"
    source.write_text("import sys\n"
                      "from sys import stderr, argv\n"
                      "def f(emit=print):\n"
                      "    print('x')\n"
                      "    sys.stdout.write('y')\n"
                      "    return sys.argv\n")
    assert output_uses(source) == [
        "mutant.py:2: sys.stderr", "mutant.py:4: print",
        "mutant.py:5: sys.stdout"]


PROGRAM = ("function f(A : Algebra) : Algebra; begin Return := A end;\n"
           "print(1); print(f(1));\n")


@pytest.mark.parametrize("run", [
    pytest.param(lambda path, out: run_file(str(path), stdout=out),
                 id="run_file"),
    pytest.param(lambda path, out: run_repl(
        stdin=io.StringIO(path.read_text()), stdout=out), id="run_repl"),
])
def test_a_line_is_written_before_the_work_after_it(tmp_path, monkeypatch,
                                                     run):
    bodies_run = 0
    run_body = Interpreter.run_body

    def counted(self, impl, frame):
        nonlocal bodies_run
        bodies_run += 1
        return run_body(self, impl, frame)

    monkeypatch.setattr(Interpreter, "run_body", counted)
    written = []

    class Recorder(io.StringIO):
        def write(self, text):
            if text != "\n":
                written.append((text, bodies_run))
            return super().write(text)

    script = tmp_path / "stream.psi"
    script.write_text(PROGRAM)
    out = Recorder()
    assert run(script, out) == 0
    # the first 1 is out before f's body runs, the second after
    assert written == [("1", 0), ("1", 1)]
    assert out.getvalue() == "1\n1\n"


def test_a_closed_stdout_ends_the_run_without_a_traceback(tmp_path):
    # more output than the pipe and the stream buffer hold together
    script = tmp_path / "long.psi"
    script.write_text("".join(f"print({k});\n" for k in range(20000)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "psipp.cli", "run", str(script)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert b"Traceback" not in err, err.decode()
