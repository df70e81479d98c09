"""Command-line entry point: run scripts or start an interactive REPL.

``psi run <file>`` executes a script (prelude loaded first unless
``--no-prelude``); ``psi repl`` starts the interactive loop. Exit codes:
1 for lex/parse errors, 2 for type/registry errors, 3 for runtime errors.
``--trace`` prints every rewrite step performed by simplification.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .algebra import (DEFAULT_REWRITE_LIMIT, builtin_args, make_interpreter,
                      simplify)
from .errors import LexError, ParseError, PsiError, RegistryError
from .parser import parse_expression, parse_juxtaposition, parse_program
from .pretty import render_expr, render_value, show_tree
from .values import FreeVarV, ThunkV, classify_binding, type_name_of


class Session:
    """One REPL or script-run session: a fresh interpreter plus flags."""

    def __init__(self, prelude: bool = True, trace: bool = False,
                 max_rewrites: int = DEFAULT_REWRITE_LIMIT):
        self.trace = trace
        self.max_rewrites = max_rewrites
        self.interp = make_interpreter(prelude=prelude)
        self.interp.builtins["simplify"] = self._builtin_simplify
        self._emitted = 0

    def _builtin_simplify(self, args, interp, env):
        (arg,) = builtin_args("simplify", args, (1,))
        return self.simplify(arg)

    def simplify(self, value):
        hook = self.interp.output.append if self.trace else None
        return simplify(value, max_steps=self.max_rewrites, trace=hook)

    def drain_output(self) -> list[str]:
        new = self.interp.output[self._emitted:]
        self._emitted = len(self.interp.output)
        return new

    # --- script execution ---

    def run_source(self, source: str):
        self.interp.run_program(parse_program(source))

    # --- REPL ---

    def repl_step(self, line: str) -> Optional[list[str]]:
        """Process one REPL input; returns output lines, or None on
        ``:quit``."""
        line = line.strip()
        if not line:
            return []
        if line.startswith(":"):
            return self._command(line)
        try:
            expr = parse_expression(line.rstrip(";"))
        except (LexError, ParseError):
            expr = None
        if expr is not None:
            value = self.interp.eval_expr(expr, self.interp.globals)
            return self.drain_output() + [render_value(value)]
        self.run_source(line if line.endswith(";") else line + ";")
        return self.drain_output()

    def _command(self, line: str) -> Optional[list[str]]:
        cmd, _, rest = line.partition(" ")
        rest = rest.strip()
        if cmd == ":quit":
            return None
        if cmd == ":word":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError(":word takes a word and an operation name")
            word, op_name = parts
            return [render_expr(parse_juxtaposition(word, op_name))]
        if cmd in (":type", ":show", ":eval"):
            expr = parse_expression(rest)
            value = self.interp.eval_expr(expr, self.interp.globals)
            if cmd == ":type":
                kind = classify_binding(value)
                if isinstance(value, ThunkV):
                    return [f"{value.fo.result_type} {kind}"]
                if isinstance(value, FreeVarV):
                    return [f"{value.type_name} {kind}"]
                return [f"{type_name_of(value)} {kind}"]
            if cmd == ":show":
                return [show_tree(value)]
            value = self.interp.force(value)
            value = self.simplify(value)
            return self.drain_output() + [render_value(value)]
        raise ParseError(f"unknown command {cmd!r}")


def _exit_code(err: PsiError) -> int:
    if isinstance(err, (LexError, ParseError)):
        return 1
    if isinstance(err, RegistryError):
        return 2
    return 3


def run_file(path: str, prelude: bool = True, trace: bool = False,
             max_rewrites: int = DEFAULT_REWRITE_LIMIT,
             stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    session = Session(prelude=prelude, trace=trace, max_rewrites=max_rewrites)
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        session.run_source(source)
    except PsiError as err:
        for line in session.drain_output():
            print(line, file=stdout)
        print(f"error: {err}", file=stderr)
        return _exit_code(err)
    for line in session.drain_output():
        print(line, file=stdout)
    return 0


def run_repl(prelude: bool = True, trace: bool = False,
             max_rewrites: int = DEFAULT_REWRITE_LIMIT,
             stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    session = Session(prelude=prelude, trace=trace, max_rewrites=max_rewrites)
    for line in stdin:
        try:
            result = session.repl_step(line)
        except PsiError as err:
            session.drain_output()
            print(f"error: {err}", file=stderr)
            continue
        if result is None:
            break
        for out in result:
            print(out, file=stdout)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="psi")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "repl"):
        cmd = sub.add_parser(name)
        if name == "run":
            cmd.add_argument("file")
        cmd.add_argument("--no-prelude", action="store_true")
        cmd.add_argument("--trace", action="store_true")
        cmd.add_argument("--max-rewrites", type=int,
                         default=DEFAULT_REWRITE_LIMIT)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_file(args.file, prelude=not args.no_prelude,
                        trace=args.trace, max_rewrites=args.max_rewrites)
    return run_repl(prelude=not args.no_prelude, trace=args.trace,
                    max_rewrites=args.max_rewrites)


if __name__ == "__main__":
    sys.exit(main())
