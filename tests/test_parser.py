import ast as pyast
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from psipp import ast, parser
from psipp.algebra import make_interpreter
from psipp.errors import (ArityError, EmptyWordError, LexError, ParseError,
                          PsiError, line_col)
from psipp.lexer import IDENT, INT, scan_into, tokenize
from psipp.parser import (_Parser, parse_expression, parse_juxtaposition,
                          parse_program)
from psipp.pretty import render_expr

from test_totality import near_valid, token_soup

GROUP_LISTING = """\
Group = Object;
  function infix +(A, B : Group) : Group;
  function prefix -(A : Group) : Group;
end; { Group }
"""


def strip_spans(node):
    if isinstance(node, ast.Infix):
        return ast.Infix(node.op, strip_spans(node.lhs), strip_spans(node.rhs))
    if isinstance(node, ast.Prefix):
        return ast.Prefix(node.op, strip_spans(node.operand))
    if isinstance(node, ast.Call):
        return ast.Call(node.name, tuple(strip_spans(a) for a in node.args))
    if isinstance(node, ast.FieldAccess):
        return ast.FieldAccess(strip_spans(node.obj), node.field)
    if isinstance(node, ast.InheritedCall):
        return ast.InheritedCall(node.ancestor, strip_spans(node.expr))
    if isinstance(node, ast.PairLit):
        return ast.PairLit(strip_spans(node.first), strip_spans(node.second))
    if isinstance(node, ast.IntLit):
        return ast.IntLit(node.value)
    if isinstance(node, ast.Ident):
        return ast.Ident(node.name)
    if isinstance(node, ast.FailLit):
        return ast.FailLit()
    raise AssertionError(f"unexpected node {node!r}")


# --- declarations ---

def test_group_listing():
    program = parse_program(GROUP_LISTING)
    (decl,) = program.items
    assert isinstance(decl, ast.ObjectDecl)
    assert decl.name == "Group"
    assert decl.ancestor is None
    assert {(m.symbol, m.fixity) for m in decl.method_sigs} \
        == {("+", "infix"), ("-", "prefix")}


def test_algebra_ancestor():
    (decl,) = parse_program("Algebra = Object(Group);").items
    assert isinstance(decl, ast.ObjectDecl)
    assert decl.ancestor == "Group"
    assert decl.method_sigs == ()


def test_infix_arity_checked():
    with pytest.raises(ArityError):
        parse_program("function infix +(A : Group) : Group;\n"
                      "begin Return := A end;")


def test_prefix_arity_checked():
    with pytest.raises(ArityError):
        parse_program("function prefix -(A, B : Group) : Group;\n"
                      "begin Return := A end;")


def test_qualified_method_with_par_block():
    source = """\
function Algebra.infix* (A, B : Algebra) : Algebra;
par
  C, D, E, F : Algebra;
begin
  if A = C + D then
    Return := C * B + D * B
  else
    if B = E + F then
      Return := A * E + A * F
    else Return := fail
end;
"""
    (decl,) = parse_program(source).items
    assert isinstance(decl, ast.FunctionDecl)
    assert decl.owner == "Algebra"
    assert decl.symbol == "*"
    assert decl.fixity == "infix"
    assert [name for name, _ in decl.par_decls] == ["C", "D", "E", "F"]
    assert decl.body is not None


def test_grouped_and_per_name_parameter_lists():
    grouped = parse_program("function infix +(A, B : Group) : Group;\n"
                            "begin Return := A end;").items[0]
    split = parse_program("function infix +(A : Group; B : Group) : Group;\n"
                          "begin Return := A end;").items[0]
    assert grouped.params == split.params


def test_complex_listing_with_fields_and_inherited_call():
    source = """\
Complex = Object(Algebra);
  Re, Im : integer;
end; { Complex }

function Complex.infix* (A, B : Complex) : Complex;
begin
  Return := Algebra.(A * B);
  if Return = fail
  then Return := (A.Re * B.Re - A.Im * B.Im, A.Re * B.Im + A.Im * B.Re)
end;
"""
    decl, method = parse_program(source).items
    assert decl.fields == (("Re", "integer"), ("Im", "integer"))
    assign = method.body.body[0]
    assert isinstance(assign.expr, ast.InheritedCall)
    assert assign.expr.ancestor == "Algebra"


def test_function_after_a_bodyless_object_is_a_definition():
    source = ("Foo = Object(Algebra);\n"
              "function twice(A : Algebra) : Algebra;\n"
              "begin Return := A * A end;\n"
              "print(twice(3));\n")
    obj, fn, _ = parse_program(source).items
    assert isinstance(obj, ast.ObjectDecl) and obj.method_sigs == ()
    assert isinstance(fn, ast.FunctionDecl) and fn.body is not None
    output = []
    make_interpreter(emit=output.append).run_program(parse_program(source))
    assert output == ["9"]


def test_var_block():
    (block,) = parse_program("var a, b, c, d : integer;").items
    assert block.decls == tuple((n, "integer") for n in "abcd")


# --- expressions ---

def test_precedence_mul_in_parens():
    expr = strip_spans(parse_expression("2*(1+2*i)"))
    assert expr == ast.Infix(
        "*", ast.IntLit(2),
        ast.Infix("+", ast.IntLit(1),
                  ast.Infix("*", ast.IntLit(2), ast.Ident("i"))))


def test_precedence_products_then_sum():
    expr = strip_spans(parse_expression("C * B + D * B"))
    assert expr == ast.Infix(
        "+", ast.Infix("*", ast.Ident("C"), ast.Ident("B")),
        ast.Infix("*", ast.Ident("D"), ast.Ident("B")))


def test_prefix_binds_tightest():
    expr = strip_spans(parse_expression("−A + B"))
    assert expr == ast.Infix("+", ast.Prefix("-", ast.Ident("A")),
                             ast.Ident("B"))


def test_either_minus_sign_is_one_operator():
    # a span is the offset of the node's token in the text
    assert parse_expression("a − b") == ast.Infix(
        "-", ast.Ident("a", 0), ast.Ident("b", 4), 2)
    assert parse_expression("−a") == ast.Prefix("-", ast.Ident("a", 1), 0)
    assert parse_expression("a - −b") == ast.Infix(
        "-", ast.Ident("a", 0), ast.Prefix("-", ast.Ident("b", 5), 4), 2)


def test_dangling_operator():
    with pytest.raises(ParseError):
        parse_expression("1 +")


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as err:
        parse_program("a := ;")
    assert err.value.span is not None
    line, col = line_col("a := ;", err.value.span)
    assert line == 1 and 1 <= col <= 7


# --- juxtaposition ---

def right_fold_oracle(word, op_name):
    # brute-force right fold over the characters
    exprs = [ast.Ident(ch) for ch in word]
    acc = exprs[-1]
    for leaf in reversed(exprs[:-1]):
        acc = ast.Call(op_name, (leaf, acc))
    return acc


def test_juxtaposition_three():
    assert parse_juxtaposition("abc", "OP") == ast.Call(
        "OP", (ast.Ident("a"), ast.Call("OP", (ast.Ident("b"),
                                               ast.Ident("c")))))


def test_juxtaposition_single():
    assert parse_juxtaposition("a", "OP") == ast.Ident("a")


def test_juxtaposition_four_matches_oracle():
    assert parse_juxtaposition("abcd", "OP") == right_fold_oracle("abcd", "OP")


def test_juxtaposition_empty():
    with pytest.raises(EmptyWordError):
        parse_juxtaposition("", "OP")


def test_juxtaposition_rejects_non_letters():
    with pytest.raises(EmptyWordError):
        parse_juxtaposition("a1b", "OP")


# --- fuzzed invariants ---

def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ast.IntLit(rng.randrange(0, 100))
        return ast.Ident(rng.choice("xyzw"))
    shape = rng.randrange(4)
    if shape == 0:
        return ast.Prefix("-", random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*"])
    return ast.Infix(op, random_expr(rng, depth - 1),
                     random_expr(rng, depth - 1))


def test_round_trip_fuzz():
    rng = random.Random(20240817)
    for _ in range(1000):
        expr = random_expr(rng, rng.randrange(0, 7))
        printed = render_expr(expr)
        assert strip_spans(parse_expression(printed)) == expr


def random_int_source(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return str(rng.randrange(0, 50))
    shape = rng.randrange(4)
    if shape == 0:
        return f"-({random_int_source(rng, depth - 1)})"
    op = rng.choice(["+", "-", "*"])
    return (f"({random_int_source(rng, depth - 1)} {op} "
            f"{random_int_source(rng, depth - 1)})")


def shunting_yard_eval(source):
    """Reference evaluator: classic shunting-yard to RPN, then a stack
    machine. Unary minus is encoded as the distinct token 'neg'."""
    from psipp.lexer import tokenize, INT
    prec = {"+": 1, "-": 1, "*": 2, "neg": 3}
    output, stack = [], []
    prev = None
    for tag, lexeme, _ in tokenize(source):
        if tag == INT:
            output.append(int(lexeme))
        elif tag in prec:
            op = tag
            if op == "-" and (prev is None or prev in {"(", "+", "-", "*"}):
                op = "neg"
            while stack and stack[-1] != "(" and (
                    prec[stack[-1]] > prec[op]
                    or (prec[stack[-1]] == prec[op] and op != "neg")):
                output.append(stack.pop())
            stack.append(op)
        elif tag == "(":
            stack.append("(")
        elif tag == ")":
            while stack[-1] != "(":
                output.append(stack.pop())
            stack.pop()
        prev = lexeme
    while stack:
        output.append(stack.pop())
    values = []
    for item in output:
        if isinstance(item, int):
            values.append(item)
        elif item == "neg":
            values.append(-values.pop())
        else:
            b, a = values.pop(), values.pop()
            values.append({"+": a + b, "-": a - b, "*": a * b}[item])
    (result,) = values
    return result


def eval_int_tree(expr):
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Prefix):
        return -eval_int_tree(expr.operand)
    if isinstance(expr, ast.Infix):
        a, b = eval_int_tree(expr.lhs), eval_int_tree(expr.rhs)
        return {"+": a + b, "-": a - b, "*": a * b}[expr.op]
    raise AssertionError(expr)


def test_precedence_oracle_fuzz():
    rng = random.Random(99)
    for _ in range(1000):
        source = random_int_source(rng, rng.randrange(0, 5))
        parsed = eval_int_tree(parse_expression(source))
        assert parsed == shunting_yard_eval(source)


# --- differential: the precedence loop against the grammar it replaced ---

class FourLevelParser(_Parser):
    """The parser with the four recursive-descent functions, one per
    precedence level, that ``expression``'s single loop replaced, and the
    recursive ``postfix`` and ``primary`` that its explicit stack
    replaced."""

    def token(self):
        """The next token as a ``(tag, lexeme, offset)`` triple."""
        i = self.peek()
        return self.tags[i], self.lexemes[i], self.offsets[i]

    def expression(self):
        lhs = self.additive()
        tag, lexeme, pos = self.token()
        if tag is not None and lexeme == "=":
            self.pos += 1
            rhs = self.additive()
            return ast.Infix("=", lhs, rhs, pos)
        return lhs

    def additive(self):
        lhs = self.term()
        while True:
            tag, lexeme, pos = self.token()
            if tag is not None and lexeme in {"+", "-", "−"}:
                self.pos += 1
                lhs = ast.Infix("+" if lexeme == "+" else "-", lhs,
                                self.term(), pos)
            else:
                return lhs

    def term(self):
        lhs = self.factor()
        while True:
            tag, lexeme, pos = self.token()
            if tag is not None and lexeme == "*":
                self.pos += 1
                lhs = ast.Infix("*", lhs, self.factor(), pos)
            else:
                return lhs

    def factor(self):
        tag, lexeme, pos = self.token()
        if tag is not None and lexeme in {"-", "−"}:
            self.pos += 1
            return ast.Prefix("-", self.factor(), pos)
        return self.postfix()

    def postfix(self):
        expr = self.primary()
        while self.check("."):
            dot = self.offsets[self.expect(".")]
            if self.accept("("):
                if not isinstance(expr, ast.Ident):
                    raise ParseError("inherited call requires a type name "
                                     "before '.'", dot)
                inner = self.expression()
                self.expect(")")
                expr = ast.InheritedCall(expr.name, inner, dot)
            else:
                field = self.lexemes[self.expect(IDENT)]
                expr = ast.FieldAccess(expr, field, dot)
        return expr

    def primary(self):
        tag, lexeme, pos = self.token()
        if tag is None:
            raise self.error("expected expression")
        if tag == INT:
            self.pos += 1
            try:
                value = int(lexeme)
            except ValueError:
                raise ParseError(f"integer literal of {len(lexeme)} "
                                 f"digits is too long", pos) from None
            return ast.IntLit(value, pos)
        if tag == "fail":
            self.pos += 1
            return ast.FailLit(pos)
        if tag == "Return":
            self.pos += 1
            return ast.Ident("Return", pos)
        if tag == "EVAL":
            self.pos += 1
            self.expect("(")
            inner = self.expression()
            self.expect(")")
            return ast.Call("EVAL", (inner,), pos)
        if tag == IDENT:
            self.pos += 1
            if self.accept("("):
                return ast.Call(lexeme, tuple(self.call_args()), pos)
            return ast.Ident(lexeme, pos)
        if tag == "(":
            self.pos += 1
            first = self.expression()
            if self.accept(","):
                second = self.expression()
                self.expect(")")
                return ast.PairLit(first, second, pos)
            self.expect(")")
            return first
        raise self.error(f"unexpected token {lexeme!r} in expression")


def outcome(parser_class, rule, source):
    """The tree ``rule`` parses from ``source``, spans included, or the
    error's class, message, span and expected set."""
    try:
        return rule(parser_class(tokenize(source)))
    except ParseError as err:
        return type(err), err.message, err.span, err.expected


EXPRESSION_WORDS = ["x", "y", "A", "0", "7", "+", "-", "−", "*", "=", "(",
                    ")", ",", ".", "Re", "Algebra", "f", "fail", "Return",
                    "EVAL"]
PROGRAM_WORDS = EXPRESSION_WORDS + [
    ":=", ";", ":", "begin", "end", "if", "then", "else", "print", "var",
    "integer", "function", "infix", "prefix", "par", "Object"]
OBJECTS = ("Foo = Object(Algebra);\n  Re, Im : integer;\n"
           "  function infix *(A, B : Foo) : Foo;\nend;\n"
           "Bar = Object(Foo);\nfunction twice(A : Algebra) : Algebra;\n"
           "begin Return := A * A end;\n"
           "function Foo.infix *(A, B : Foo) : Foo; begin Return := A end;\n")
PROGRAM = ("x := a - −b * (c, d).Re = e * -f + g;\n"
           "if a = b + c then print(Algebra.(a * b)) else y := EVAL(z);\n"
           "function infix *(A, B : Algebra) : Algebra; par P : Algebra;\n"
           "begin if A = P * -B then Return := f(P, 1 - 2 - 3) end;\n")


def random_source(rng, words, template):
    """Words drawn at random, or ``template`` with a few words replaced,
    dropped or inserted."""
    if rng.random() < 0.5:
        return " ".join(rng.choices(words, k=rng.randrange(16)))
    tokens = [lexeme for _, lexeme, _ in tokenize(template)]
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(tokens))
        edit = rng.randrange(3)
        if edit == 0:
            tokens[i] = rng.choice(words)
        elif edit == 1:
            del tokens[i]
        else:
            tokens.insert(i, rng.choice(words))
    return " ".join(tokens)


@pytest.mark.parametrize("rule, words, template", [
    pytest.param(_Parser.sole_expression, EXPRESSION_WORDS,
                 "-a * (b - c) - d = e + -f * g", id="expression"),
    pytest.param(_Parser.program, PROGRAM_WORDS, PROGRAM, id="program"),
])
def test_precedence_loop_matches_the_four_level_grammar(rule, words, template):
    rng = random.Random(12)
    old_rule = getattr(FourLevelParser, rule.__name__)
    for _ in range(3000):
        source = random_source(rng, words, template)
        assert outcome(_Parser, rule, source) \
            == outcome(FourLevelParser, old_rule, source), source


# --- the token stream: parsing as the lexer goes, against lexing first ---

@pytest.mark.parametrize("source, message", [
    pytest.param("x := 1 1;\nz := 2 ? 3;\n", "2:8: unexpected character '?'",
                 id="parse-error-first-in-the-text"),
    pytest.param("x := 1 1;\n" + "y := 2;\n" * 100 + "z := 2 ? 3;\n",
                 "102:8: unexpected character '?'",
                 id="parse-error-tokens-before-the-lexical-error"),
    pytest.param("begin " * 1000 + "x := 1" + " end" * 1000
                 + ";\ny := 2 ? 3;\n",
                 "2:8: unexpected character '?'",
                 id="nesting-too-deep-first-in-the-text"),
])
def test_a_lexical_error_is_reported_before_a_syntax_error(source, message):
    with pytest.raises(LexError) as err:
        parse_program(source)
    line, col = line_col(source, err.value.span)
    assert f"{line}:{col}: {err.value.message}" == message


def test_statements_nested_too_deeply_are_an_error_at_the_token_reached():
    # the k empty statements move the reads of the next batch of tokens
    # along the nesting; the text and its token list fail at one token
    for k in range(64):
        source = ("begin " + "; " * k + "begin " * 1000 + "x := 1"
                  + " end" * 1001 + ";\n")
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert err.value.message == "statements nested too deeply"
        assert source.startswith("begin ", err.value.span), k
        for streamed, listed in stream_and_list(source, [parse_program]):
            assert streamed == listed, k


def test_a_scan_stopped_by_the_python_stack_leaves_the_lists_whole():
    # the stack may run out in any scan of a read, even after the read's
    # first batches; the parse then goes on as if it had not
    source = "x := 1; f(x, y);"
    for scans in range(3):
        reader = _Parser(source)
        with pytest.MonkeyPatch.context() as patch:
            left = iter(range(scans))

            def stopped(*args):
                if next(left, None) is None:
                    raise RecursionError
                return scan_into(*args)
            patch.setattr(parser, "scan_into", stopped)
            patch.setattr(parser, "_BATCH", 1)
            with pytest.raises(RecursionError):
                reader.peek(2)
        assert reader.program() == parse_program(source), scans


def recursion_error_uses(path: Path) -> list[str]:
    """Each mention of ``RecursionError`` in ``path``, named by the
    function, and the class, that it is in."""
    found = []

    def visit(node, scope):
        if isinstance(node, (pyast.ClassDef, pyast.FunctionDef)):
            scope = scope + (node.name,)
        elif isinstance(node, pyast.Name) and node.id == "RecursionError":
            found.append(f"{path.name}: {'.'.join(scope)}")
        for child in pyast.iter_child_nodes(node):
            visit(child, scope)

    visit(pyast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_recursion_errors_are_caught_only_where_recursion_is_left():
    # user-level recursion reaches the stack when evaluating, and nested
    # statements when parsing; expressions parse on an explicit stack
    src = Path(__file__).resolve().parent.parent / "src" / "psipp"
    assert [use for path in sorted(src.glob("*.py"))
            for use in recursion_error_uses(path)] == [
        "cli.py: Session.repl_step", "evaluator.py: Interpreter.run_item",
        "parser.py: _parse"]


def test_the_recursion_check_sees_each_scope(tmp_path):
    source = tmp_path / "mutant.py"
    source.write_text("class P:\n"
                      "    def expression(self):\n"
                      "        try:\n"
                      "            pass\n"
                      "        except (ValueError, RecursionError):\n"
                      "            raise RecursionError\n"
                      "def f():\n"
                      "    def g(): return RecursionError\n")
    assert recursion_error_uses(source) == [
        "mutant.py: P.expression", "mutant.py: P.expression",
        "mutant.py: f.g"]


DEPTH = 5000


@pytest.mark.parametrize("source, text", [
    pytest.param("(" * DEPTH + "x" + ")" * DEPTH, "x", id="parentheses"),
    pytest.param("(x -\n" * DEPTH + "x" + ")" * DEPTH,
                 "x - (" * (DEPTH - 1) + "x - x" + ")" * (DEPTH - 1),
                 id="parenthesised-differences"),
    pytest.param("f(y ,\n" * DEPTH + "x" + " )" * DEPTH,
                 "f(y, " * DEPTH + "x" + ")" * DEPTH, id="calls"),
    pytest.param("(1 ,2 * " * DEPTH + "3" + ")" * DEPTH,
                 "(1, 2*" * DEPTH + "3" + ")" * DEPTH, id="pairs"),
    pytest.param("EVAL (" * DEPTH + "x" + ")" * DEPTH,
                 "EVAL(" * DEPTH + "x" + ")" * DEPTH, id="evals"),
    pytest.param("Algebra.(a * " * DEPTH + "b" + ")" * DEPTH,
                 "Algebra.(a*" * DEPTH + "b" + ")" * DEPTH,
                 id="inherited-calls"),
    pytest.param("- −" * (DEPTH // 2) + "x", "-" * DEPTH + "x",
                 id="prefix-minus"),
])
def test_an_expression_parses_at_any_depth(source, text):
    assert render_expr(parse_expression(source)) == text


def parse_outcome(parse, source):
    """The tree ``parse`` returns, spans included, or the error's class,
    message and span."""
    try:
        return parse(source)
    except PsiError as err:
        return type(err), err.message, err.span


BATCHES = (1, 2, 64)


def parse_in_batches(parse, source, batch):
    """``parse``'s outcome on ``source``, text read ``batch`` tokens at a
    time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_BATCH", batch)
        return parse_outcome(parse, source)


def stream_and_list(source, rules=(parse_program, parse_expression)):
    """Each rule's outcome on ``source`` read as a stream, at each batch
    size, then on the token list lexed first. Both are parsed at one depth
    of the Python stack, which nested statements can run out of."""
    pairs = []
    for parse in rules:
        try:
            listed = parse_in_batches(parse, tokenize(source), 64)
        except LexError as err:
            listed = type(err), err.message, err.span
        for batch in BATCHES:
            pairs.append((parse_in_batches(parse, source, batch), listed))
    return pairs


def deep_parentheses(rng):
    depth = rng.randrange(300, 3000)  # past the Python stack's limit
    closing = rng.choice([depth, depth, depth - 1, 0])
    return ("x := 1;\n" * rng.randrange(40) + "y := " + "(" * depth + "1"
            + ")" * closing + rng.choice([";", "", "; ?", " z", ";\n{"]))


def test_parsing_a_stream_matches_parsing_the_token_list():
    rng = random.Random(14)
    words = PROGRAM_WORDS + ["?", "²", "{"]
    for _ in range(1500):
        pick = rng.random()
        if pick < 0.8:
            template = rng.choice([PROGRAM, "-a * (b - c) - d = e + -f * g"])
            source = random_source(rng, words, template)
        else:
            source = deep_parentheses(rng)
        for streamed, listed in stream_and_list(source):
            assert streamed == listed, source
    # object declarations, where a member signature is parsed and then
    # taken back if a body follows it
    for _ in range(500):
        source = random_source(rng, words, OBJECTS)
        for streamed, listed in stream_and_list(source):
            assert streamed == listed, source


def test_a_lexical_error_anywhere_in_a_batch_is_reported_as_listed():
    # the error comes in the batch the parser reads, or after a syntax
    # error the parser stops at
    for valid in ("x := ", "x := 1 1; "):
        for tokens in range(2 * 64 + 3):
            source = valid + "a + " * (tokens // 2) + "a" * (tokens % 2) + "?"
            for streamed, listed in stream_and_list(source):
                assert streamed == listed, source


@pytest.mark.parametrize("shape", [
    "A = Object(Algebra);\n",
    "A = Object(Algebra);\n  function infix *(X, Y : A) : A;\nend;\n",
    "A = Object(Algebra);\n"
    "function A.infix *(X, Y : A) : A; begin Return := X end;\n",
    "x := f() * y.Re;\n",
    "f(x, g());\n",
    "var x, y : Algebra;\n",
    "if x then f(x) else begin y := 1; Return := y end;\n",
], ids=["object", "object-with-a-member", "qualified-definition", "assign",
        "call", "var-block", "nested-statements"])
def test_a_lookahead_reads_across_every_batch_boundary(shape):
    # the k empty statements move the shape along a batch, so that each
    # read one or two tokens ahead lands past the tokens scanned at some k
    for k in range(64):
        source = ";" * k + shape
        for streamed, listed in stream_and_list(source, [parse_program]):
            assert streamed == listed, k
        assert isinstance(listed, ast.Program), listed


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(token_soup, near_valid()))
def test_parsing_a_stream_matches_parsing_the_token_list_on_totality_input(
        source):
    for streamed, listed in stream_and_list(source):
        assert streamed == listed


def concrete_script(statements):
    """Straight-line Complex and Monomial products, one a line, each
    followed by a comment."""
    lines = ["z := (3, 4);", "w := (1, 2);", "m := mono(1, 2, 0, 1);",
             "u := mono(0, 1, 1, 1);"]
    for j in range(statements):
        if j % 2 == 0:
            lines.append(f"z := z * w; {{ Gaussian product {j // 2 + 1} }}")
        else:
            lines.append(f"m := m * u; {{ register sum {j // 2 + 1} }}")
    return "\n".join(lines + ["print(z);", "print(m);"]) + "\n"


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parsing_holds_less_than_the_whole_token_list():
    source = concrete_script(2400)
    assert traced_peak(parse_program, source) < traced_peak(tokenize, source)
