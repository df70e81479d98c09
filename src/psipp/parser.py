"""Recursive-descent parser for the Pascal-like surface language.

Programs are sequences of object declarations, function definitions,
``var`` blocks, and statements. Expressions are parsed by one
precedence-climbing loop over the table in ``ast`` (``INFIX_LEVELS``),
which ``pretty.layout`` reads too: prefix minus binds tightest, then
``*``, then ``+`` and binary ``-``; ``=`` is the (single,
non-associative) comparison at the bottom. ``*``, ``+`` and ``-``
associate left.

``parse_juxtaposition`` implements the convention that a word of
single-letter names denotes a right-nested application of a binary
operation: ``abc`` becomes ``OP(a, OP(b, c))``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional

from . import ast
from .errors import ArityError, EmptyWordError, ParseError
from .lexer import IDENT, INT, KEYWORD, OP, PUNCT, Token, scan, tokenize

_MINUS = frozenset({"-", "−"})
# tokens read from the stream at a time: one token per read measured
# about 4% slower on short scripts
_BATCH = 64


def _opname(lexeme: str) -> str:
    return "-" if lexeme in _MINUS else lexeme


class _Parser:
    """A parser over a stream of tokens, which may be a list. The stream
    is read into ``tokens`` in batches, only when a lookahead passes the
    end of the buffer, and the tokens of each finished top-level item are
    dropped."""

    def __init__(self, tokens: Iterable[Token]):
        self.tokens: list[Token] = []
        self.stream = iter(tokens)
        self.pos = 0  # index into ``tokens``
        self.last: Optional[Token] = None  # last token read

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

    def span(self) -> Optional[ast.Span]:
        tok = self.peek()
        if tok is not None:
            return tok.span
        if self.last is not None:
            line, col, length = self.last.span
            return (line, col + length, 1)
        return (1, 1, 1)

    def error(self, message: str, expected=()) -> ParseError:
        return ParseError(message, self.span(), expected)

    def check(self, kind: str, lexeme: Optional[str] = None, offset: int = 0) -> bool:
        i = self.pos + offset
        if i >= len(self.tokens) and not self.fill(i):
            return False
        tok = self.tokens[i]
        return tok.kind == kind and (lexeme is None or tok.lexeme == lexeme)

    def accept(self, kind: str, lexeme: Optional[str] = None) -> Optional[Token]:
        if self.pos >= len(self.tokens) and not self.fill(self.pos):
            return None
        tok = self.tokens[self.pos]
        if tok.kind != kind or (lexeme is not None and tok.lexeme != lexeme):
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, lexeme: Optional[str] = None) -> Token:
        tok = self.accept(kind, lexeme)
        if tok is None:
            want = lexeme if lexeme is not None else kind
            got = self.peek()
            found = repr(got.lexeme) if got else "end of input"
            raise self.error(f"expected {want!r}, found {found}", {want})
        return tok

    # --- program structure ---

    def program(self) -> ast.Program:
        items = []
        while not self.at_end():
            if self.accept(PUNCT, ";"):
                continue  # empty statement
            items.append(self.item())
            del self.tokens[:self.pos]  # the item's tokens are done with
            self.pos = 0
        return ast.Program(tuple(items))

    def item(self):
        if self.check(KEYWORD, "var"):
            return self.var_block()
        if self.check(KEYWORD, "function"):
            return self.function_def()
        if self.check(IDENT) and self.check(OP, "=", offset=1):
            return self.object_decl()
        stmt = self.statement()
        self.expect(PUNCT, ";")
        return stmt

    def object_decl(self) -> ast.ObjectDecl:
        name_tok = self.expect(IDENT)
        self.expect(OP, "=")
        self.expect(KEYWORD, "Object")
        ancestor = None
        if self.accept(PUNCT, "("):
            ancestor = self.expect(IDENT).lexeme
            self.expect(PUNCT, ")")
        self.expect(PUNCT, ";")
        fields: list[tuple[str, str]] = []
        sigs: list[ast.FunctionDecl] = []
        if self._object_body_follows():
            while not self.check(KEYWORD, "end"):
                if self.check(KEYWORD, "function"):
                    sigs.append(self.function_signature())
                    self.expect(PUNCT, ";")
                elif self.check(IDENT):
                    fields.extend(self.decl_group())
                    self.expect(PUNCT, ";")
                else:
                    raise self.error("expected field, method, or 'end'",
                                     {"end", "function"})
            self.expect(KEYWORD, "end")
            self.expect(PUNCT, ";")
        return ast.ObjectDecl(name_tok.lexeme, ancestor, tuple(fields),
                              tuple(sigs), name_tok.span)

    def _object_body_follows(self) -> bool:
        if self.check(KEYWORD, "function"):
            # a qualified definition (function Owner.xxx) is top level, not a member
            if self.check(IDENT, offset=1) and self.check(PUNCT, ".", offset=2):
                return False
            # so is a signature whose body follows
            start = self.pos
            try:
                self.function_signature()
                self.expect(PUNCT, ";")
                return not (self.check(KEYWORD, "begin")
                            or self.check(KEYWORD, "par"))
            except ParseError:
                return True  # reported where the member is parsed
            finally:
                self.pos = start
        return self.check(KEYWORD, "end") or self._decl_group_follows()

    def _decl_group_follows(self) -> bool:
        return self.check(IDENT) and (self.check(PUNCT, ",", offset=1)
                                      or self.check(PUNCT, ":", offset=1))

    def decl_group(self) -> list[tuple[str, str]]:
        """``a, b : T``: fields, variables, par variables, parameters."""
        names = [self.expect(IDENT).lexeme]
        while self.accept(PUNCT, ","):
            names.append(self.expect(IDENT).lexeme)
        self.expect(PUNCT, ":")
        type_name = self.type_name()
        return [(n, type_name) for n in names]

    def decl_groups(self) -> list[tuple[str, str]]:
        """Declaration groups, each ended by ``;``, while one follows."""
        decls: list[tuple[str, str]] = []
        while self._decl_group_follows():
            decls.extend(self.decl_group())
            self.expect(PUNCT, ";")
        return decls

    def type_name(self) -> str:
        tok = self.peek()
        if tok is not None and tok.kind == IDENT:
            self.pos += 1
            return tok.lexeme
        raise self.error("expected type name", {"identifier"})

    def var_block(self) -> ast.VarBlock:
        start = self.expect(KEYWORD, "var")
        decls = self.decl_groups()
        if not decls:
            raise self.error("empty var block", {"identifier"})
        return ast.VarBlock(tuple(decls), start.span)

    # --- functions ---

    def function_signature(self) -> ast.FunctionDecl:
        start = self.expect(KEYWORD, "function")
        owner = None
        if self.check(IDENT) and self.check(PUNCT, ".", offset=1):
            owner = self.expect(IDENT).lexeme
            self.expect(PUNCT, ".")
        fixity = "ordinary"
        if self.accept(KEYWORD, "infix"):
            fixity = "infix"
        elif self.accept(KEYWORD, "prefix"):
            fixity = "prefix"
        symbol = self.function_symbol(fixity)
        params: list[tuple[str, str]] = []
        if self.accept(PUNCT, "("):
            if not self.check(PUNCT, ")"):
                params.extend(self.decl_group())
                while self.accept(PUNCT, ";"):
                    params.extend(self.decl_group())
            self.expect(PUNCT, ")")
        self.expect(PUNCT, ":")
        result_type = self.type_name()
        if fixity == "infix" and len(params) != 2:
            raise ArityError("infix function requires exactly 2 parameters",
                             start.span)
        if fixity == "prefix" and len(params) != 1:
            raise ArityError("prefix function requires exactly 1 parameter",
                             start.span)
        return ast.FunctionDecl(symbol, fixity, owner, tuple(params),
                                result_type, span=start.span)

    def function_symbol(self, fixity: str) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error("expected function name or operator symbol")
        if tok.kind == OP and _opname(tok.lexeme) in ast.INFIX_LEVELS:
            self.pos += 1
            return _opname(tok.lexeme)
        if fixity != "ordinary":
            raise self.error("expected operator symbol after fixity keyword",
                             {"+", "-", "*"})
        if tok.kind == IDENT:
            self.pos += 1
            return tok.lexeme
        raise self.error("expected function name", {"identifier"})

    def function_def(self) -> ast.FunctionDecl:
        sig = self.function_signature()
        self.expect(PUNCT, ";")
        par_decls = self.decl_groups() if self.accept(KEYWORD, "par") else []
        body = self.compound()
        self.expect(PUNCT, ";")
        return ast.FunctionDecl(sig.symbol, sig.fixity, sig.owner, sig.params,
                                sig.result_type, tuple(par_decls), body, sig.span)

    # --- statements ---

    def compound(self) -> ast.Compound:
        start = self.expect(KEYWORD, "begin")
        body: list[ast.Stmt] = []
        while not self.check(KEYWORD, "end"):
            if self.accept(PUNCT, ";"):
                continue
            body.append(self.statement())
            if not self.check(KEYWORD, "end"):
                self.expect(PUNCT, ";")
        self.expect(KEYWORD, "end")
        return ast.Compound(tuple(body), start.span)

    def statement(self) -> ast.Stmt:
        if self.check(KEYWORD, "begin"):
            return self.compound()
        if self.check(KEYWORD, "if"):
            return self.if_statement()
        if self.check(KEYWORD, "Return"):
            tok = self.expect(KEYWORD, "Return")
            self.expect(OP, ":=")
            return ast.Assign("Return", self.expression(), tok.span)
        if self.check(IDENT):
            tok = self.peek()
            if self.check(OP, ":=", offset=1):
                self.pos += 2
                return ast.Assign(tok.lexeme, self.expression(), tok.span)
            if self.check(PUNCT, "(", offset=1):
                self.pos += 2
                return ast.Call(tok.lexeme, tuple(self.call_args()), tok.span)
        raise self.error("expected statement",
                         {"identifier", "if", "begin", "Return"})

    def if_statement(self) -> ast.If:
        tok = self.expect(KEYWORD, "if")
        cond = self.expression()
        self.expect(KEYWORD, "then")
        then = self.statement()
        els = None
        if self.accept(KEYWORD, "else"):
            els = self.statement()
        return ast.If(cond, then, els, tok.span)

    # --- expressions ---

    def sole_expression(self) -> ast.Expr:
        expr = self.expression()
        if not self.at_end():
            raise self.error("trailing input after expression")
        return expr

    def expression(self, min_level: int = ast.LEVEL_EQ) -> ast.Expr:
        """An expression, ended before any infix operator of a level
        below ``min_level``."""
        tok = self.peek()
        if tok is not None and tok.kind == OP and tok.lexeme in _MINUS:
            self.pos += 1
            lhs = ast.Prefix("-", self.expression(ast.LEVEL_PREFIX), tok.span)
        else:
            lhs = self.postfix()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != OP:
                return lhs
            op = _opname(tok.lexeme)
            level = ast.INFIX_LEVELS.get(op)
            if level is None or level < min_level:
                return lhs
            self.pos += 1
            lhs = ast.Infix(op, lhs, self.expression(level + 1), tok.span)
            if level == ast.LEVEL_EQ:  # '=' does not associate
                return lhs

    def postfix(self) -> ast.Expr:
        expr = self.primary()
        while self.check(PUNCT, "."):
            dot = self.expect(PUNCT, ".")
            if self.accept(PUNCT, "("):
                if not isinstance(expr, ast.Ident):
                    raise ParseError("inherited call requires a type name "
                                     "before '.'", dot.span)
                inner = self.expression()
                self.expect(PUNCT, ")")
                expr = ast.InheritedCall(expr.name, inner, dot.span)
            else:
                field = self.expect(IDENT)
                expr = ast.FieldAccess(expr, field.lexeme, dot.span)
        return expr

    def primary(self) -> ast.Expr:
        tok = self.peek()
        if tok is None:
            raise self.error("expected expression")
        if tok.kind == INT:
            self.pos += 1
            try:
                value = int(tok.lexeme)
            except ValueError:  # past Python's limit on int-from-str digits
                raise ParseError(f"integer literal of {len(tok.lexeme)} "
                                 f"digits is too long", tok.span) from None
            return ast.IntLit(value, tok.span)
        if tok.kind == KEYWORD and tok.lexeme == "fail":
            self.pos += 1
            return ast.FailLit(tok.span)
        if tok.kind == KEYWORD and tok.lexeme == "Return":
            self.pos += 1
            return ast.Ident("Return", tok.span)
        if tok.kind == KEYWORD and tok.lexeme == "EVAL":
            self.pos += 1
            self.expect(PUNCT, "(")
            inner = self.expression()
            self.expect(PUNCT, ")")
            return ast.Call("EVAL", (inner,), tok.span)
        if tok.kind == IDENT:
            self.pos += 1
            if self.accept(PUNCT, "("):
                return ast.Call(tok.lexeme, tuple(self.call_args()), tok.span)
            return ast.Ident(tok.lexeme, tok.span)
        if tok.kind == PUNCT and tok.lexeme == "(":
            self.pos += 1
            first = self.expression()
            if self.accept(PUNCT, ","):
                second = self.expression()
                self.expect(PUNCT, ")")
                return ast.PairLit(first, second, tok.span)
            self.expect(PUNCT, ")")
            return first
        raise self.error(f"unexpected token {tok.lexeme!r} in expression")

    def call_args(self) -> list[ast.Expr]:
        # opening paren already consumed
        args: list[ast.Expr] = []
        if not self.check(PUNCT, ")"):
            args.append(self.expression())
            while self.accept(PUNCT, ","):
                args.append(self.expression())
        self.expect(PUNCT, ")")
        return args


def _parse(source, rule):
    """Apply ``rule`` to a parser over ``source``: text, which is lexed
    as the parser asks for tokens, or tokens. A lexical error anywhere in
    the text is reported before a syntax error. Nesting too deep for the
    Python stack is a syntax error at the token reached."""
    if isinstance(source, str):
        try:
            return rule(_Parser(scan(source)))
        except ParseError:
            tokenize(source)
            raise
        except RecursionError:
            # the error may have stopped the scan, and a generator costs a
            # frame per read: parse again from a list, which costs none
            source = tokenize(source)
    parser = _Parser(source)
    try:
        return rule(parser)
    except RecursionError:
        raise parser.error("expression nested too deeply") from None


def parse_program(source) -> ast.Program:
    """Parse source text, or a token sequence, into a program."""
    return _parse(source, _Parser.program)


def parse_expression(source) -> ast.Expr:
    """Parse source text, or a token sequence, that forms exactly one
    expression."""
    return _parse(source, _Parser.sole_expression)


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
