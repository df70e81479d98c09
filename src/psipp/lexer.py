"""Lexer for the Pascal-like surface language.

Comments are ``{ ... }`` and do not nest. The typographic minus sign
(U+2212) is accepted and normalized to ASCII ``-``. Integer literals are
ASCII digits; identifiers continue with any letter or digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import LexError

KEYWORDS = frozenset({
    "Object", "function", "infix", "prefix", "var", "par",
    "begin", "end", "if", "then", "else", "Return", "fail", "EVAL",
})

# kinds
KEYWORD = "keyword"
IDENT = "identifier"
INT = "integer-literal"
OP = "operator-symbol"
PUNCT = "punctuation"

# single-character tokens; ":" is checked for ":=" first
_SINGLE = {**dict.fromkeys("+-*=−", OP), **dict.fromkeys(";,().:", PUNCT)}


@dataclass(eq=False, slots=True)
class Token:
    """One token: its kind, its text, and its span (line, column, length)."""
    kind: str
    lexeme: str
    span: tuple[int, int, int]

    def __repr__(self):
        return f"Token({self.kind}, {self.lexeme!r})"


def tokenize(source: str) -> list[Token]:
    """All the tokens of ``source``, in a list."""
    return list(scan(source))


def scan(source: str) -> Iterator[Token]:
    """Yield the tokens of ``source`` in order, skipping whitespace and
    comments; a lexical error is raised when the scan reaches it. A
    column counts characters from the last newline before the token."""
    line, line_start = 1, 0  # line_start: index of the line's first char
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "\n":
            i += 1
            line, line_start = line + 1, i
            continue
        col = i - line_start + 1
        if ch == "{":
            end = source.find("}", i + 1)
            if end < 0:
                raise LexError("unterminated comment", (line, col, 1))
            newlines = source.count("\n", i, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", i, end) + 1
            i = end + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            yield Token(KEYWORD if lexeme in KEYWORDS else IDENT, lexeme,
                        (line, col, j - i))
            i = j
            continue
        # ASCII only: isdigit() also takes "²", which int() refuses, and
        # "٣", which int() reads as 3
        if "0" <= ch <= "9":
            j = i + 1
            while j < n and "0" <= source[j] <= "9":
                j += 1
            yield Token(INT, source[i:j], (line, col, j - i))
            i = j
            continue
        if ch == ":" and source.startswith("=", i + 1):
            yield Token(OP, ":=", (line, col, 2))
            i += 2
            continue
        kind = _SINGLE.get(ch)
        if kind is None:
            raise LexError(f"unexpected character {ch!r}", (line, col, 1))
        yield Token(kind, ch, (line, col, 1))  # "−" is "-" to the parser
        i += 1
