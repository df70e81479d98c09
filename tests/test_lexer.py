import pytest
from hypothesis import example, given, settings, strategies as st

from psipp.errors import LexError
from psipp.lexer import (IDENT, INT, KEYWORD, KEYWORDS, OP, PUNCT, Token,
                         tokenize)


def kinds_and_lexemes(tokens):
    return [(t.kind, t.lexeme) for t in tokens]


def test_simple_assignment():
    assert kinds_and_lexemes(tokenize("a := 1;")) == [
        (IDENT, "a"), (OP, ":="), (INT, "1"), (PUNCT, ";")]


def test_comment_skipped():
    assert tokenize("{ Group }") == []


def test_sum_statement():
    assert kinds_and_lexemes(tokenize("b := c + d;")) == [
        (IDENT, "b"), (OP, ":="), (IDENT, "c"), (OP, "+"),
        (IDENT, "d"), (PUNCT, ";")]


def test_keywords_recognized():
    for kw in ("Object", "function", "infix", "prefix", "var", "par",
               "begin", "end", "if", "then", "else", "Return", "fail",
               "EVAL"):
        (tok,) = tokenize(kw)
        assert tok.kind == KEYWORD


def test_typographic_minus():
    toks = tokenize("−A")
    assert toks[0].kind == OP


def test_lex_error_has_span():
    with pytest.raises(LexError) as err:
        tokenize("a := 1;\nb ? 2;")
    assert err.value.span == (2, 3, 1)


def test_unterminated_comment():
    with pytest.raises(LexError):
        tokenize("a := { oops")


def test_spans_reconstruct_source():
    source = ("Group = Object;\n"
              "  function infix +(A, B : Group) : Group; { C++ version }\n"
              "end; { Group }\n"
              "x := 2*(1+2*i);\n")
    lines = source.splitlines()
    for tok in tokenize(source):
        line, col, length = tok.span
        assert lines[line - 1][col - 1:col - 1 + length] == tok.lexeme


def test_integer_literals_are_ascii_digits():
    # str.isdigit accepts both; int() refuses '²' and reads '1٣' as 13
    for source, span in (("x := ²;", (1, 6, 1)),
                         ("x := 1٣; print(x);", (1, 7, 1))):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert err.value.message == f"unexpected character {source[span[1] - 1]!r}"
        assert err.value.span == span
    # identifiers still continue with any letter or digit
    assert kinds_and_lexemes(tokenize("x² y٣")) == [(IDENT, "x²"),
                                                     (IDENT, "y٣")]


# --- differential: the lexer against the one it replaced ---

_OPERATOR_CHARS = {"+", "-", "*", "="}
_PUNCT_CHARS = {";", ",", "(", ")", ".", ":"}


def oracle_tokenize(source: str) -> list[Token]:
    """The per-character lexer that ``tokenize`` replaced; integer
    literals are ASCII digits, as they are now."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)

    def advance(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if ch == "{":
            end = source.find("}", i + 1)
            if end < 0:
                raise LexError("unterminated comment", (line, col, 1))
            advance(source[i:end + 1])
            i = end + 1
            continue
        start = (line, col)
        if ch == "−":  # typographic minus; parser treats it as "-"
            tokens.append(Token(OP, ch, (line, col, 1)))
            advance(ch)
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            kind = KEYWORD if lexeme in KEYWORDS else IDENT
            tokens.append(Token(kind, lexeme, (*start, j - i)))
            advance(lexeme)
            i = j
            continue
        if ch in "0123456789":
            j = i
            while j < n and source[j] in "0123456789":
                j += 1
            tokens.append(Token(INT, source[i:j], (*start, j - i)))
            advance(source[i:j])
            i = j
            continue
        if ch == ":" and i + 1 < n and source[i + 1] == "=":
            tokens.append(Token(OP, ":=", (*start, 2)))
            advance(":=")
            i += 2
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append(Token(OP, ch, (*start, 1)))
            advance(ch)
            i += 1
            continue
        if ch in _PUNCT_CHARS:
            tokens.append(Token(PUNCT, ch, (*start, 1)))
            advance(ch)
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", (line, col, 1))
    return tokens


def lexed(tokenizer, source):
    """Each token as (kind, lexeme, span), or the error's message and span."""
    try:
        return [(t.kind, t.lexeme, t.span) for t in tokenizer(source)]
    except LexError as err:
        return ("LexError", err.message, err.span)


FRAGMENTS = [
    "x", "Foo", "a_1", "_b", "é", "x²", "y٣", "Return", "begin", "end",
    "0", "42", "007", "²", "٣", "1٣",
    "+", "-", "−", "*", "=", ":=", ":", ";", ",", "(", ")", ".",
    " ", "  ", "\t", "\r", "\n", "\r\n",
    "{ Group }", "{ two\nlines }", "{\tthree\r\n\nlines}", "{}", "{",
    "}", "?", "$", "~",
]

sources = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join),
    st.text(alphabet="aZ_09²٣ :=−+*;.(){}\n\t\r?", max_size=40))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(sources)
@example("a := 1;\n{ one\n two }\tb −:= 2\r\n c ? 3")
@example("x := 1;\n{ never closed\n")
def test_tokenize_matches_the_per_character_lexer(source):
    assert lexed(tokenize, source) == lexed(oracle_tokenize, source)
