"""Parser for the Pascal-like surface language.

Programs are sequences of object declarations, function definitions,
``var`` blocks, and statements, parsed by recursive descent. An
expression is parsed by one loop over an explicit stack, so it nests to
any depth. Its levels are the table in ``ast`` (``INFIX_LEVELS``), which
``pretty._parenthesised`` reads too: prefix minus binds tightest, then
``*``, then ``+`` and binary ``-``; ``=`` is the (single,
non-associative) comparison at the bottom. ``*``, ``+`` and ``-``
associate left.

``parse_juxtaposition`` implements the convention that a word of
single-letter names denotes a right-nested application of a binary
operation: ``abc`` becomes ``OP(a, OP(b, c))``.
"""

from __future__ import annotations

from . import ast
from .errors import ArityError, EmptyWordError, ParseError
from .lexer import IDENT, INT, scan_into, tokenize

# tokens scanned from the text at a time: one token per read measured
# about 4% slower on short scripts
_BATCH = 64

# the tag of the pad entries that end the lists while text remains
_MORE = object()


class _Parser:
    """A parser over text from offset ``start``, or over a sequence of
    ``(tag, lexeme, offset)`` triples. A token is an index into three
    lists, ``tags``, ``lexemes`` and ``offsets``, which end in three pads,
    so a read two tokens past the next stays in them: entries tagged
    ``_MORE`` while text remains to be scanned, then end-of-input entries:
    tag ``None``, at the offset after the last token (``None`` for triples
    without offsets). Text is scanned a batch at a time, and the tokens of
    finished top-level items are dropped a few batches at a time."""

    def __init__(self, source, start: int = 0):
        self.pos = 0  # the index of the next token
        if isinstance(source, str):
            self.source, self.scanned = source, start
            self.tags, self.lexemes, self.offsets = (
                [_MORE] * 3, [""] * 3, [start] * 3)
            return
        tokens = list(source)  # all read here, so nothing is scanned
        end = start
        if tokens:
            _, lexeme, end = tokens[-1]
            end = None if end is None else end + len(lexeme)
        self.tags, self.lexemes, self.offsets = map(
            list, zip(*tokens, *[(None, "", end)] * 3))

    # --- token helpers ---

    def peek(self, offset: int = 0) -> int:
        """The index of the token ``offset`` (at most 2) after the next
        one: the cold paths read through this, the hot paths only when they
        find ``_MORE``. Then the next ``_BATCH`` tokens are scanned into
        fresh lists and stored over the pads by slice, with plain stores at
        this depth: nesting too deep for the Python stack stops a scan
        before it appends a token (every call in ``scan_into`` is made at
        one depth), so the lists stay whole and the scan can be made again
        once the stack unwinds."""
        i = self.pos + offset
        while self.tags[i] is _MORE:
            batch = [], [], []
            scanned = scan_into(self.source, self.scanned, *batch, _BATCH)
            n = len(self.tags) - 3  # the first pad
            ended = batch[0][-1] is None
            columns = self.tags, self.lexemes, self.offsets
            for column, new, pad in zip(columns, batch, (_MORE, "", scanned)):
                # the end entry and two copies, or three pads of ``_MORE``
                column[n:] = new + (new[-1:] * 2 if ended else [pad] * 3)
            self.scanned = scanned
        return i

    def error(self, message: str, expected=()) -> ParseError:
        """An error at the next token."""
        return ParseError(message, self.offsets[self.peek()], expected)

    def check(self, tag: str, offset: int = 0) -> bool:
        return self.tags[self.peek(offset)] == tag

    # a tag read in place that is not ``tag`` may be ``_MORE``
    def accept(self, tag: str) -> bool:
        if self.tags[self.pos] != tag and self.tags[self.peek()] != tag:
            return False
        self.pos += 1
        return True

    def expect(self, tag: str) -> int:
        """The index of the next token, which must be tagged ``tag``."""
        i = self.pos
        if self.tags[i] != tag and self.tags[self.peek()] != tag:
            found = ("end of input" if self.tags[i] is None
                     else repr(self.lexemes[i]))
            raise self.error(f"expected {tag!r}, found {found}", {tag})
        self.pos = i + 1
        return i

    # --- program structure ---

    def program(self) -> ast.Program:
        tags = self.tags
        items = []
        while True:
            pos = self.pos
            if tags[pos + 2] is _MORE:  # as far as ``item`` reads
                self.peek(2)
            tag = tags[pos]
            if tag is None:
                return ast.Program(tuple(items))
            if tag == ";":
                self.pos = pos + 1
                continue  # empty statement
            items.append(self.item())
            # finished items' tokens are dropped only here, as expression
            # frames and ``_object_body_follows``'s backtrack hold indices
            # into the lists
            if self.pos > 4 * _BATCH:
                pos, self.pos = self.pos, 0
                del tags[:pos], self.lexemes[:pos], self.offsets[:pos]

    def item(self):
        pos = self.pos
        tag = self.tags[pos]  # read by ``program``, with the two after it
        if tag == "var":
            return self.var_block()
        if tag == "function":
            return self.function_def()
        if tag == IDENT and self.tags[pos + 1] == "=":
            return self.object_decl()
        stmt = self.statement()
        self.expect(";")
        return stmt

    def object_decl(self) -> ast.ObjectDecl:
        name = self.expect(IDENT)
        self.expect("=")
        self.expect("Object")
        ancestor = None
        if self.accept("("):
            ancestor = self.lexemes[self.expect(IDENT)]
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
        return ast.ObjectDecl(self.lexemes[name], ancestor, tuple(fields),
                              tuple(sigs), self.offsets[name])

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
        names = [self.lexemes[self.expect(IDENT)]]
        while self.accept(","):
            names.append(self.lexemes[self.expect(IDENT)])
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
        if self.accept(IDENT):
            return self.lexemes[self.pos - 1]
        raise self.error("expected type name", {"identifier"})

    def var_block(self) -> ast.VarBlock:
        start = self.expect("var")
        decls = self.decl_groups()
        if not decls:
            raise self.error("empty var block", {"identifier"})
        return ast.VarBlock(tuple(decls), self.offsets[start])

    # --- functions ---

    def function_signature(self) -> ast.FunctionDecl:
        start = self.offsets[self.expect("function")]
        owner = None
        if self.check(IDENT) and self.check(".", offset=1):
            owner = self.lexemes[self.expect(IDENT)]
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
        if fixity != "ordinary" and ast.FIXITY.get(len(params)) != fixity:
            count = next(n for n, f in ast.FIXITY.items() if f == fixity)
            raise ArityError(f"{fixity} function requires exactly {count} "
                             f"parameter{'s' * (count != 1)}", start)
        return ast.FunctionDecl(symbol, fixity, owner, tuple(params),
                                result_type, span=start)

    def function_symbol(self, fixity: str) -> str:
        i = self.peek()
        tag = self.tags[i]
        if tag is None:
            raise self.error("expected function name or operator symbol")
        if tag in ast.INFIX_LEVELS:
            self.pos += 1
            return tag
        if fixity != "ordinary":
            raise self.error("expected operator symbol after fixity keyword",
                             {"+", "-", "*"})
        if tag == IDENT:
            self.pos += 1
            return self.lexemes[i]
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
        return ast.Compound(tuple(body), self.offsets[start])

    def statement(self) -> ast.Stmt:
        i, tags = self.pos, self.tags
        if tags[i + 1] is _MORE:
            self.peek(1)
        tag = tags[i]
        if tag == "begin":
            return self.compound()
        if tag == "if":
            return self.if_statement()
        if tag == "Return":
            self.pos += 1
            self.expect(":=")
            return ast.Assign("Return", self.expression(), self.offsets[i])
        if tag == IDENT:
            if tags[i + 1] == ":=":
                self.pos += 2
                return ast.Assign(self.lexemes[i], self.expression(),
                                  self.offsets[i])
            if tags[i + 1] == "(":
                self.pos += 2
                return ast.Call(self.lexemes[i], tuple(self.call_args()),
                                self.offsets[i])
        raise self.error("expected statement",
                         {"identifier", "if", "begin", "Return"})

    def if_statement(self) -> ast.If:
        start = self.expect("if")
        cond = self.expression()
        self.expect("then")
        then = self.statement()
        els = None
        if self.accept("else"):
            els = self.statement()
        return ast.If(cond, then, els, self.offsets[start])

    # --- expressions ---

    def sole_expression(self) -> ast.Expr:
        expr = self.expression()
        if self.tags[self.pos] is not None:  # read by ``expression``
            raise self.error("trailing input after expression")
        return expr

    def expression(self) -> ast.Expr:
        """One expression, parsed in one loop over an explicit stack. An
        operator frame ``(min_level, token, lhs)`` reads its right operand
        up to an infix operator of a level below ``min_level``; ``lhs`` is
        None for prefix minus. A bracket frame ``(None, opener, operands)``
        for ``(``, ``f(``, ``EVAL(`` or ``A.(`` collects its operands at
        ``,`` and closes at ``)``."""
        tags, lexemes, offsets = self.tags, self.lexemes, self.offsets
        stack = []
        expr = None  # the operand just read; None while one is wanted
        while True:
            i = self.pos
            if tags[i + 2] is _MORE:  # as far as this step reads
                self.peek(2)
            tag = tags[i]
            if expr is None:
                if tag is None:
                    raise self.error("expected expression")
                self.pos = i + 1
                if tag == "-":
                    stack.append((ast.LEVEL_PREFIX, i, None))
                elif tag == IDENT and tags[i + 1] != "(":
                    expr = ast.Ident(lexemes[i], offsets[i])
                elif tag == IDENT and tags[i + 2] == ")":
                    self.pos += 2
                    expr = ast.Call(lexemes[i], (), offsets[i])
                elif tag in ("(", "EVAL", IDENT):
                    if tag != "(":
                        self.expect("(")
                    stack.append((None, i, []))
                elif tag == INT:
                    try:
                        expr = ast.IntLit(int(lexemes[i]), offsets[i])
                    except ValueError:  # past Python's int-from-str limit
                        raise ParseError(f"integer literal of "
                                         f"{len(lexemes[i])} digits is too "
                                         f"long", offsets[i]) from None
                elif tag == "fail":
                    expr = ast.FailLit(offsets[i])
                elif tag == "Return":
                    expr = ast.Ident("Return", offsets[i])
                else:
                    raise ParseError(f"unexpected token {lexemes[i]!r} in "
                                     f"expression", offsets[i])
                continue
            if tag == ".":
                self.pos += 1
                if not self.accept("("):
                    field = lexemes[self.expect(IDENT)]
                    expr = ast.FieldAccess(expr, field, offsets[i])
                    continue
                if not isinstance(expr, ast.Ident):
                    raise ParseError("inherited call requires a type name "
                                     "before '.'", offsets[i])
                stack.append((None, i, [expr]))
                expr = None
                continue
            level = ast.INFIX_LEVELS.get(tag, -1)
            while stack and stack[-1][0] is not None and level < stack[-1][0]:
                _, op, lhs = stack.pop()
                expr = (ast.Prefix("-", expr, offsets[op]) if lhs is None
                        else ast.Infix(tags[op], lhs, expr, offsets[op]))
                if tags[op] == "=":  # '=' does not associate
                    level = -1
            if level >= 0:
                self.pos += 1
                stack.append((level + 1, i, expr))
                expr = None
                continue
            if not stack:
                return expr
            _, opener, operands = stack[-1]
            opener_tag = tags[opener]
            if tag == "," and (opener_tag == IDENT
                               or opener_tag == "(" and not operands):
                self.pos += 1
                operands.append(expr)
                expr = None
                continue
            self.expect(")")
            stack.pop()
            if opener_tag == ".":
                expr = ast.InheritedCall(operands[0].name, expr,
                                         offsets[opener])
            elif opener_tag != "(":  # a call or EVAL
                expr = ast.Call(lexemes[opener], (*operands, expr),
                                offsets[opener])
            elif operands:
                expr = ast.PairLit(operands[0], expr, offsets[opener])

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
    the text is reported before a syntax error: the text the parser has
    not scanned is lexed to its end, as what it scanned lexed cleanly.
    Statements nested too deep for the Python stack are a syntax error at
    the token reached."""
    parser = _Parser(source, start)
    try:
        return rule(parser)
    except (ParseError, RecursionError) as err:
        if isinstance(source, str):
            tokenize(source, parser.scanned)
        if isinstance(err, ParseError):
            raise
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
