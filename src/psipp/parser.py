"""Parser for the Pascal-like surface language.

Programs are sequences of object declarations, function definitions,
``var`` blocks, and statements, parsed by recursive descent. An
expression is parsed by one loop over an explicit stack, so it nests to
any depth. Its levels are the table in ``ast`` (``INFIX_LEVELS``), which
``pretty.layout`` reads too: prefix minus binds tightest, then ``*``,
then ``+`` and binary ``-``; ``=`` is the (single, non-associative)
comparison at the bottom. ``*``, ``+`` and ``-`` associate left.

``parse_juxtaposition`` implements the convention that a word of
single-letter names denotes a right-nested application of a binary
operation: ``abc`` becomes ``OP(a, OP(b, c))``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional

from . import ast
from .errors import ArityError, EmptyWordError, ParseError
from .lexer import IDENT, INT, Token, scan, tokenize

# tokens read from the stream at a time: one token per read measured
# about 4% slower on short scripts
_BATCH = 64


class _Parser:
    """A parser over a stream of tokens, which may be a list. The stream
    is read into ``tokens`` in batches, only when a lookahead passes the
    end of the buffer, and the tokens of each finished top-level item are
    dropped."""

    def __init__(self, tokens: Iterable[Token], start: int = 0):
        self.tokens: list[Token] = []
        self.stream = iter(tokens)
        self.pos = 0  # index into ``tokens``
        # the last token read; before any, an empty one where the text starts
        self.last = Token("", "", start)

    # --- token helpers ---

    def fill(self, i: int) -> bool:
        """Read the stream until ``tokens[i]`` exists; False if it ends
        first."""
        tokens = self.tokens
        while i >= len(tokens):
            read = len(tokens)
            tokens.extend(islice(self.stream, _BATCH))
            if len(tokens) == read:
                return False
            self.last = tokens[-1]
        return True

    def peek(self, offset: int = 0) -> Optional[Token]:
        i = self.pos + offset
        if i < len(self.tokens) or self.fill(i):
            return self.tokens[i]
        return None

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens) and not self.fill(self.pos)

    def span(self) -> ast.Span:
        tok = self.peek()
        if tok is not None:
            return tok.pos
        return self.last.pos + len(self.last.lexeme)

    def error(self, message: str, expected=()) -> ParseError:
        return ParseError(message, self.span(), expected)

    def check(self, tag: str, offset: int = 0) -> bool:
        i = self.pos + offset
        if i >= len(self.tokens) and not self.fill(i):
            return False
        return self.tokens[i].tag == tag

    def accept(self, tag: str) -> Optional[Token]:
        if self.pos >= len(self.tokens) and not self.fill(self.pos):
            return None
        tok = self.tokens[self.pos]
        if tok.tag != tag:
            return None
        self.pos += 1
        return tok

    def expect(self, tag: str) -> Token:
        tok = self.accept(tag)
        if tok is None:
            got = self.peek()
            found = repr(got.lexeme) if got else "end of input"
            raise self.error(f"expected {tag!r}, found {found}", {tag})
        return tok

    # --- program structure ---

    def program(self) -> ast.Program:
        items = []
        while not self.at_end():
            if self.accept(";"):
                continue  # empty statement
            items.append(self.item())
            del self.tokens[:self.pos]  # the item's tokens are done with
            self.pos = 0
        return ast.Program(tuple(items))

    def item(self):
        tag = self.tokens[self.pos].tag  # read by ``program``
        if tag == "var":
            return self.var_block()
        if tag == "function":
            return self.function_def()
        if tag == IDENT and self.check("=", offset=1):
            return self.object_decl()
        stmt = self.statement()
        self.expect(";")
        return stmt

    def object_decl(self) -> ast.ObjectDecl:
        name_tok = self.expect(IDENT)
        self.expect("=")
        self.expect("Object")
        ancestor = None
        if self.accept("("):
            ancestor = self.expect(IDENT).lexeme
            self.expect(")")
        self.expect(";")
        fields: list[tuple[str, str]] = []
        sigs: list[ast.FunctionDecl] = []
        if self._object_body_follows():
            while not self.check("end"):
                if self.check("function"):
                    sigs.append(self.function_signature())
                    self.expect(";")
                elif self.check(IDENT):
                    fields.extend(self.decl_group())
                    self.expect(";")
                else:
                    raise self.error("expected field, method, or 'end'",
                                     {"end", "function"})
            self.expect("end")
            self.expect(";")
        return ast.ObjectDecl(name_tok.lexeme, ancestor, tuple(fields),
                              tuple(sigs), name_tok.pos)

    def _object_body_follows(self) -> bool:
        if self.check("function"):
            # a qualified definition (function Owner.xxx) is top level, not a member
            if self.check(IDENT, offset=1) and self.check(".", offset=2):
                return False
            # so is a signature whose body follows
            start = self.pos
            try:
                self.function_signature()
                self.expect(";")
                return not (self.check("begin") or self.check("par"))
            except ParseError:
                return True  # reported where the member is parsed
            finally:
                self.pos = start
        return self.check("end") or self._decl_group_follows()

    def _decl_group_follows(self) -> bool:
        return self.check(IDENT) and (self.check(",", offset=1)
                                      or self.check(":", offset=1))

    def decl_group(self) -> list[tuple[str, str]]:
        """``a, b : T``: fields, variables, par variables, parameters."""
        names = [self.expect(IDENT).lexeme]
        while self.accept(","):
            names.append(self.expect(IDENT).lexeme)
        self.expect(":")
        type_name = self.type_name()
        return [(n, type_name) for n in names]

    def decl_groups(self) -> list[tuple[str, str]]:
        """Declaration groups, each ended by ``;``, while one follows."""
        decls: list[tuple[str, str]] = []
        while self._decl_group_follows():
            decls.extend(self.decl_group())
            self.expect(";")
        return decls

    def type_name(self) -> str:
        tok = self.peek()
        if tok is not None and tok.tag == IDENT:
            self.pos += 1
            return tok.lexeme
        raise self.error("expected type name", {"identifier"})

    def var_block(self) -> ast.VarBlock:
        start = self.expect("var")
        decls = self.decl_groups()
        if not decls:
            raise self.error("empty var block", {"identifier"})
        return ast.VarBlock(tuple(decls), start.pos)

    # --- functions ---

    def function_signature(self) -> ast.FunctionDecl:
        start = self.expect("function")
        owner = None
        if self.check(IDENT) and self.check(".", offset=1):
            owner = self.expect(IDENT).lexeme
            self.expect(".")
        fixity = "ordinary"
        if self.accept("infix"):
            fixity = "infix"
        elif self.accept("prefix"):
            fixity = "prefix"
        symbol = self.function_symbol(fixity)
        params: list[tuple[str, str]] = []
        if self.accept("("):
            if not self.check(")"):
                params.extend(self.decl_group())
                while self.accept(";"):
                    params.extend(self.decl_group())
            self.expect(")")
        self.expect(":")
        result_type = self.type_name()
        if fixity == "infix" and len(params) != 2:
            raise ArityError("infix function requires exactly 2 parameters",
                             start.pos)
        if fixity == "prefix" and len(params) != 1:
            raise ArityError("prefix function requires exactly 1 parameter",
                             start.pos)
        return ast.FunctionDecl(symbol, fixity, owner, tuple(params),
                                result_type, span=start.pos)

    def function_symbol(self, fixity: str) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error("expected function name or operator symbol")
        if tok.tag in ast.INFIX_LEVELS:
            self.pos += 1
            return tok.tag
        if fixity != "ordinary":
            raise self.error("expected operator symbol after fixity keyword",
                             {"+", "-", "*"})
        if tok.tag == IDENT:
            self.pos += 1
            return tok.lexeme
        raise self.error("expected function name", {"identifier"})

    def function_def(self) -> ast.FunctionDecl:
        sig = self.function_signature()
        self.expect(";")
        par_decls = self.decl_groups() if self.accept("par") else []
        body = self.compound()
        self.expect(";")
        return ast.FunctionDecl(sig.symbol, sig.fixity, sig.owner, sig.params,
                                sig.result_type, tuple(par_decls), body, sig.span)

    # --- statements ---

    def compound(self) -> ast.Compound:
        start = self.expect("begin")
        body: list[ast.Stmt] = []
        while not self.check("end"):
            if self.accept(";"):
                continue
            body.append(self.statement())
            if not self.check("end"):
                self.expect(";")
        self.expect("end")
        return ast.Compound(tuple(body), start.pos)

    def statement(self) -> ast.Stmt:
        tok = self.peek()
        tag = tok.tag if tok is not None else None
        if tag == "begin":
            return self.compound()
        if tag == "if":
            return self.if_statement()
        if tag == "Return":
            self.pos += 1
            self.expect(":=")
            return ast.Assign("Return", self.expression(), tok.pos)
        if tag == IDENT:
            if self.check(":=", offset=1):
                self.pos += 2
                return ast.Assign(tok.lexeme, self.expression(), tok.pos)
            if self.check("(", offset=1):
                self.pos += 2
                return ast.Call(tok.lexeme, tuple(self.call_args()), tok.pos)
        raise self.error("expected statement",
                         {"identifier", "if", "begin", "Return"})

    def if_statement(self) -> ast.If:
        tok = self.expect("if")
        cond = self.expression()
        self.expect("then")
        then = self.statement()
        els = None
        if self.accept("else"):
            els = self.statement()
        return ast.If(cond, then, els, tok.pos)

    # --- expressions ---

    def sole_expression(self) -> ast.Expr:
        expr = self.expression()
        if not self.at_end():
            raise self.error("trailing input after expression")
        return expr

    def expression(self) -> ast.Expr:
        """One expression, parsed in one loop over an explicit stack. An
        operator frame ``(min_level, token, lhs)`` reads its right operand
        up to an infix operator of a level below ``min_level``; ``lhs`` is
        None for prefix minus. A bracket frame ``(None, opener, operands)``
        for ``(``, ``f(``, ``EVAL(`` or ``A.(`` collects its operands at
        ``,`` and closes at ``)``."""
        stack = []
        expr = None  # the operand just read; None while one is wanted
        while True:
            tok = self.peek()
            tag = tok.tag if tok is not None else None
            if expr is None:
                if tok is None:
                    raise self.error("expected expression")
                self.pos += 1
                if tag == "-":
                    stack.append((ast.LEVEL_PREFIX, tok, None))
                elif tag == IDENT and not self.check("("):
                    expr = ast.Ident(tok.lexeme, tok.pos)
                elif tag == IDENT and self.check(")", offset=1):
                    self.pos += 2
                    expr = ast.Call(tok.lexeme, (), tok.pos)
                elif tag in ("(", "EVAL", IDENT):
                    if tag != "(":
                        self.expect("(")
                    stack.append((None, tok, []))
                elif tag == INT:
                    try:
                        expr = ast.IntLit(int(tok.lexeme), tok.pos)
                    except ValueError:  # past Python's int-from-str limit
                        raise ParseError(f"integer literal of "
                                         f"{len(tok.lexeme)} digits is too "
                                         f"long", tok.pos) from None
                elif tag == "fail":
                    expr = ast.FailLit(tok.pos)
                elif tag == "Return":
                    expr = ast.Ident("Return", tok.pos)
                else:
                    raise ParseError(f"unexpected token {tok.lexeme!r} in "
                                     f"expression", tok.pos)
                continue
            if tag == ".":
                self.pos += 1
                if not self.accept("("):
                    field = self.expect(IDENT)
                    expr = ast.FieldAccess(expr, field.lexeme, tok.pos)
                    continue
                if not isinstance(expr, ast.Ident):
                    raise ParseError("inherited call requires a type name "
                                     "before '.'", tok.pos)
                stack.append((None, tok, [expr]))
                expr = None
                continue
            level = ast.INFIX_LEVELS.get(tag, -1)
            while stack and stack[-1][0] is not None and level < stack[-1][0]:
                _, op, lhs = stack.pop()
                expr = (ast.Prefix("-", expr, op.pos) if lhs is None
                        else ast.Infix(op.tag, lhs, expr, op.pos))
                if op.tag == "=":  # '=' does not associate
                    level = -1
            if level >= 0:
                self.pos += 1
                stack.append((level + 1, tok, expr))
                expr = None
                continue
            if not stack:
                return expr
            _, opener, operands = stack[-1]
            if tag == "," and (opener.tag == IDENT
                               or opener.tag == "(" and not operands):
                self.pos += 1
                operands.append(expr)
                expr = None
                continue
            self.expect(")")
            stack.pop()
            if opener.tag == ".":
                expr = ast.InheritedCall(operands[0].name, expr, opener.pos)
            elif opener.tag != "(":  # a call or EVAL
                expr = ast.Call(opener.lexeme, (*operands, expr), opener.pos)
            elif operands:
                expr = ast.PairLit(operands[0], expr, opener.pos)

    def call_args(self) -> list[ast.Expr]:
        # opening paren already consumed
        args: list[ast.Expr] = []
        if not self.check(")"):
            args.append(self.expression())
            while self.accept(","):
                args.append(self.expression())
        self.expect(")")
        return args


def _parse(source, rule, start=0):
    """Apply ``rule`` to a parser over ``source``: text from offset
    ``start``, lexed as the parser reads it, or tokens. A lexical error in
    the text is reported before a syntax error. Statements nested too deep
    for the Python stack are a syntax error at the token reached."""
    text = isinstance(source, str)
    parser = _Parser(scan(source, start) if text else source, start)
    try:
        return rule(parser)
    except (ParseError, RecursionError) as err:
        if text:
            tokenize(source, start)
        if isinstance(err, ParseError):
            raise
        if text and parser.pos == len(parser.tokens):
            # the error may have ended the scan: scan on after the last token
            last = parser.tokens[-1] if parser.tokens else parser.last
            end = last.pos + len(last.lexeme)
            parser = _Parser(scan(source, end), end)
        raise parser.error("statements nested too deeply") from None


def parse_program(source) -> ast.Program:
    """Parse source text, or a token sequence, into a program."""
    return _parse(source, _Parser.program)


def parse_expression(source, start: int = 0) -> ast.Expr:
    """Parse source text from offset ``start``, or a token sequence, that
    forms exactly one expression."""
    return _parse(source, _Parser.sole_expression, start)


def parse_juxtaposition(word: str, op_name: str) -> ast.Expr:
    """Expand a word of one-letter names into a right-nested application."""
    if not word:
        raise EmptyWordError("juxtaposition word must be nonempty")
    for ch in word:
        if not ch.isalpha():
            raise EmptyWordError(f"juxtaposition word has non-letter {ch!r}")
    expr: ast.Expr = ast.Ident(word[-1])
    for ch in reversed(word[:-1]):
        expr = ast.Call(op_name, (ast.Ident(ch), expr))
    return expr
