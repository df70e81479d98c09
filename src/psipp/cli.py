"""Command-line entry point: run scripts or start an interactive REPL.

``psi run <file>`` executes a script (prelude loaded first unless
``--no-prelude``); ``psi repl`` starts the interactive loop. Exit codes:
1 for lex/parse errors, unreadable files and a closed standard output, 2
for type/registry errors, 3 for runtime errors and running out of memory,
130 for an interrupt. Each output line is written as it is made;
``--trace`` prints every rewrite step of simplification. A diagnostic
names the line and column of its error's offset in the script, or in the
REPL line as typed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from . import ast
from .algebra import DEFAULT_REWRITE_LIMIT, make_interpreter, simplify
from .errors import (EvalError, LexError, ParseError, PsiError, RegistryError,
                     line_col)
from .evaluator import STATEMENT_CALLS
from .parser import parse_expression, parse_juxtaposition, parse_program
from .pretty import render_expr, render_value, show_tree
from .values import classify_binding, type_name_of


class Session:
    """One REPL or script-run session: a fresh interpreter, given the
    ``simplify`` settings from the command-line flags, that writes every
    output line to ``emit``."""

    def __init__(self, prelude: bool = True, trace: bool = False,
                 max_rewrites: int = DEFAULT_REWRITE_LIMIT,
                 emit: Callable[[str], None] = print):
        self.interp = make_interpreter(prelude=prelude, trace=trace,
                                       max_rewrites=max_rewrites, emit=emit)

    # --- script execution ---

    def run_source(self, source: str):
        """Run a script, or a REPL statement. Running out of memory is an
        error: nothing bounds what a program allocates, but it ends in a
        diagnostic, not a traceback."""
        try:
            self.interp.run_program(parse_program(source))
        except MemoryError:
            raise EvalError("out of memory") from None

    # --- REPL ---

    def repl_step(self, line: str) -> bool:
        """Process one REPL input, writing its output lines to the sink;
        False on ``:quit``. Offsets count in ``line`` as typed. Nesting too
        deep for the Python stack is an error, and so is running out of
        memory."""
        line = line.rstrip()
        start = len(line) - len(line.lstrip())
        cmd = line[start:].partition(" ")[0]
        if cmd == ":quit":
            return False
        try:
            if cmd.startswith(":"):
                self.interp.emit(self._command(cmd, line, start))
                return True
            try:
                expr = parse_expression(line.rstrip(";"))
            except (LexError, ParseError):
                expr = None
            if expr is not None and not (isinstance(expr, ast.Call) and
                                         expr.name in STATEMENT_CALLS):
                value = self.interp.eval_expr(expr, self.interp.globals)
                self.interp.emit(render_value(value))
            elif line:
                self.run_source(line if line.endswith(";") else line + ";")
        except RecursionError:
            raise EvalError("expression nested too deeply") from None
        except MemoryError:
            raise EvalError("out of memory") from None
        return True

    def _command(self, cmd: str, line: str, at: int) -> str:
        """The result line of a REPL command other than ``:quit``, typed at
        offset ``at`` of ``line`` and followed by its argument. An error of
        the command itself is located at the command."""
        start = at + len(cmd)
        if cmd == ":word":
            parts = line[start:].split()
            if len(parts) != 2:
                raise ParseError(":word takes a word and an operation name",
                                 at)
            word, op_name = parts
            return render_expr(parse_juxtaposition(word, op_name))
        if cmd in (":type", ":show", ":eval"):
            expr = parse_expression(line, start)
            value = self.interp.eval_expr(expr, self.interp.globals)
            if cmd == ":type":
                return f"{type_name_of(value)} {classify_binding(value)}"
            if cmd == ":show":
                return show_tree(value)
            value = simplify(self.interp.force(value),
                             self.interp.max_rewrites, self.interp.trace)
            return render_value(value)
        raise ParseError(f"unknown command {cmd!r}", at)


def _report(err: PsiError, text: str, stderr) -> int:
    """Write ``err`` to ``stderr`` at the line and column of its offset in
    ``text``, naming the user method it left; return the exit code of its
    kind."""
    where = "" if err.span is None else "%d:%d: " % line_col(text, err.span)
    method = "" if err.method is None else f" (in {err.method})"
    print(f"error: {where}{err.message}{method}", file=stderr)
    if isinstance(err, (LexError, ParseError)):
        return 1
    return 2 if isinstance(err, RegistryError) else 3


def _line_writer(stream) -> Callable[[str], None]:
    """A session's ``emit``: it writes each line and a newline to
    ``stream`` and flushes, so each line shows before the work that
    follows it. With no stream it writes to ``sys.stdout`` as it is at
    that line, as ``print`` does."""
    def emit(line: str):
        out = sys.stdout if stream is None else stream
        out.write(line)
        out.write("\n")
        out.flush()
    return emit


def run_file(path: str, prelude: bool = True, trace: bool = False,
             max_rewrites: int = DEFAULT_REWRITE_LIMIT,
             stdout=None, stderr=None) -> int:
    stderr = stderr if stderr is not None else sys.stderr
    try:
        # undecodable bytes become lone surrogates, which the lexer rejects
        with open(path, encoding="utf-8-sig",
                  errors="surrogateescape") as handle:
            source = handle.read()
    except OSError as err:
        print(f"error: cannot read {path}: {err.strerror or err}", file=stderr)
        return 1
    session = Session(prelude=prelude, trace=trace, max_rewrites=max_rewrites,
                      emit=_line_writer(stdout))
    try:
        session.run_source(source)
    except PsiError as err:
        return _report(err, source, stderr)
    return 0


def run_repl(prelude: bool = True, trace: bool = False,
             max_rewrites: int = DEFAULT_REWRITE_LIMIT,
             stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stderr = stderr if stderr is not None else sys.stderr
    session = Session(prelude=prelude, trace=trace, max_rewrites=max_rewrites,
                      emit=_line_writer(stdout))
    for line in stdin:
        try:
            if not session.repl_step(line):
                break
        except PsiError as err:
            _report(err, line.rstrip("\n"), stderr)
    return 0


def non_negative_int(text: str) -> int:
    """The value of ``--max-rewrites``: a number of steps, 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="psi")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "repl"):
        cmd = sub.add_parser(name)
        if name == "run":
            cmd.add_argument("file")
        cmd.add_argument("--no-prelude", action="store_true")
        cmd.add_argument("--trace", action="store_true")
        cmd.add_argument("--max-rewrites", type=non_negative_int,
                         default=DEFAULT_REWRITE_LIMIT)
    args = parser.parse_args(argv)
    settings = dict(prelude=not args.no_prelude, trace=args.trace,
                    max_rewrites=args.max_rewrites)
    try:
        code = (run_file(args.file, **settings) if args.command == "run"
                else run_repl(**settings))
        sys.stdout.flush()  # a closed pipe is reported here, not at exit
    except BrokenPipeError:
        # Python's recipe for a reader that went away: stdout goes to
        # devnull, where the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return code

if __name__ == "__main__":
    sys.exit(main())
