"""Lexer for the Pascal-like surface language.

Comments are ``{ ... }`` and do not nest. The typographic minus sign
(U+2212) is accepted and tagged as ASCII ``-``. Integer literals are
ASCII digits; identifiers continue with any letter or digit. A position
is the offset of a token's first character in the source text; the lexer
counts no lines, and ``errors.line_col`` turns an offset into a line and
a column when a diagnostic is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import LexError

KEYWORDS = frozenset({
    "Object", "function", "infix", "prefix", "var", "par",
    "begin", "end", "if", "then", "else", "Return", "fail", "EVAL",
})

# the tags of identifiers and integer literals; every other token is
# tagged with its lexeme
IDENT = "identifier"
INT = "integer-literal"

# single-character operators and punctuation; ":" is checked for ":=" first
_SINGLE = {**{ch: ch for ch in "+-*=;,().:"}, "−": "-"}


@dataclass(eq=False, slots=True)
class Token:
    """One token: its tag, its text, and its offset in the source."""
    tag: str
    lexeme: str
    pos: int

    def __repr__(self):
        return f"Token({self.tag}, {self.lexeme!r})"


def tokenize(source: str, start: int = 0) -> list[Token]:
    """All the tokens of ``source`` from offset ``start``, in a list."""
    return list(scan(source, start))


def scan(source: str, start: int = 0) -> Iterator[Token]:
    """Yield the tokens of ``source`` from offset ``start`` in order,
    skipping whitespace and comments; a lexical error is raised when the
    scan reaches it."""
    i = start
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "{":
            end = source.find("}", i + 1)
            if end < 0:
                raise LexError("unterminated comment", i)
            i = end + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            yield Token(lexeme if lexeme in KEYWORDS else IDENT, lexeme, i)
            i = j
            continue
        # ASCII only: isdigit() also takes "²", which int() refuses, and
        # "٣", which int() reads as 3
        if "0" <= ch <= "9":
            j = i + 1
            while j < n and "0" <= source[j] <= "9":
                j += 1
            yield Token(INT, source[i:j], i)
            i = j
            continue
        if ch == ":" and source.startswith("=", i + 1):
            yield Token(":=", ":=", i)
            i += 2
            continue
        tag = _SINGLE.get(ch)
        if tag is None:
            raise LexError(f"unexpected character {ch!r}", i)
        yield Token(tag, ch, i)
        i += 1
