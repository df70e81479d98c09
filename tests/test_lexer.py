import pytest
from hypothesis import example, given, settings, strategies as st

from psipp.errors import LexError, line_col
from psipp.lexer import IDENT, INT, KEYWORDS, scan_into, tokenize


def tags_and_lexemes(tokens):
    return [(tag, lexeme) for tag, lexeme, _ in tokens]


def test_simple_assignment():
    assert tags_and_lexemes(tokenize("a := 1;")) == [
        (IDENT, "a"), (":=", ":="), (INT, "1"), (";", ";")]


def test_comment_skipped():
    assert tokenize("{ Group }") == []


def test_sum_statement():
    assert tags_and_lexemes(tokenize("b := c + d;")) == [
        (IDENT, "b"), (":=", ":="), (IDENT, "c"), ("+", "+"),
        (IDENT, "d"), (";", ";")]


def test_keywords_recognized():
    for kw in ("Object", "function", "infix", "prefix", "var", "par",
               "begin", "end", "if", "then", "else", "Return", "fail",
               "EVAL"):
        ((tag, _, _),) = tokenize(kw)
        assert tag == kw


def test_typographic_minus():
    toks = tokenize("−A")
    assert toks[0][:2] == ("-", "−")


def test_lex_error_has_span():
    source = "a := 1;\nb ? 2;"
    with pytest.raises(LexError) as err:
        tokenize(source)
    assert line_col(source, err.value.span) == (2, 3)


def test_unterminated_comment():
    with pytest.raises(LexError):
        tokenize("a := { oops")


def test_spans_reconstruct_source():
    source = ("Group = Object;\n"
              "  function infix +(A, B : Group) : Group; { C++ version }\n"
              "end; { Group }\n"
              "x := 2*(1+2*i);\n")
    lines = source.splitlines()
    for _, lexeme, pos in tokenize(source):
        line, col = line_col(source, pos)
        assert lines[line - 1][col - 1:col - 1 + len(lexeme)] == lexeme


@pytest.mark.parametrize("count", [1, 2, 64])
@pytest.mark.parametrize("source, start, end", [
    ("a := 1; { c }  b\n{ d }", 0, 16),
    ("x { a } y  ", 1, 9),
    ("x   { a }  ", 1, 1),
    ("", 0, 0),
])
def test_a_scan_in_batches_ends_after_the_last_token(count, source, start,
                                                      end):
    columns = [], [], []
    i = start
    while not columns[0] or columns[0][-1] is not None:
        i = scan_into(source, i, *columns, count)
    assert list(zip(*columns)) == tokenize(source, start) + [(None, "", end)]
    assert i == len(source)


def test_integer_literals_are_ascii_digits():
    # str.isdigit accepts both; int() refuses '²' and reads '1٣' as 13
    for source, span in (("x := ²;", (1, 6)),
                         ("x := 1٣; print(x);", (1, 7))):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert err.value.message == f"unexpected character {source[span[1] - 1]!r}"
        assert line_col(source, err.value.span) == span
    # identifiers still continue with any letter or digit
    assert tags_and_lexemes(tokenize("x² y٣")) == [(IDENT, "x²"),
                                                     (IDENT, "y٣")]


# --- differential: the lexer against the one it replaced ---

_OPERATOR_CHARS = {"+", "-", "*", "="}
_PUNCT_CHARS = {";", ",", "(", ")", ".", ":"}


def oracle_tokenize(source: str) -> list[tuple]:
    """The per-character lexer that ``tokenize`` replaced, which counted
    lines and columns as it went: each token as (tag, lexeme, (line,
    column)). Integer literals are ASCII digits, as they are now."""
    tokens: list[tuple] = []
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
                raise LexError("unterminated comment", (line, col))
            advance(source[i:end + 1])
            i = end + 1
            continue
        start = (line, col)
        if ch == "−":  # typographic minus; parser treats it as "-"
            tokens.append(("-", ch, start))
            advance(ch)
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            tag = lexeme if lexeme in KEYWORDS else IDENT
            tokens.append((tag, lexeme, start))
            advance(lexeme)
            i = j
            continue
        if ch in "0123456789":
            j = i
            while j < n and source[j] in "0123456789":
                j += 1
            tokens.append((INT, source[i:j], start))
            advance(source[i:j])
            i = j
            continue
        if ch == ":" and i + 1 < n and source[i + 1] == "=":
            tokens.append((":=", ":=", start))
            advance(":=")
            i += 2
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append((ch, ch, start))
            advance(ch)
            i += 1
            continue
        if ch in _PUNCT_CHARS:
            tokens.append((ch, ch, start))
            advance(ch)
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", (line, col))
    return tokens


def lexed(source):
    """Each token as (tag, lexeme, (line, column)), or the error's message
    and (line, column): ``tokenize``'s offsets, converted."""
    try:
        return [(tag, lexeme, line_col(source, pos))
                for tag, lexeme, pos in tokenize(source)]
    except LexError as err:
        return ("LexError", err.message, line_col(source, err.span))


def oracle_lexed(source):
    try:
        return oracle_tokenize(source)
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
    assert lexed(source) == oracle_lexed(source)
