"""Lexer for the Pascal-like surface language.

Comments are ``{ ... }`` and do not nest. The typographic minus sign
(U+2212) is accepted and tagged as ASCII ``-``. Integer literals are
ASCII digits; identifiers continue with any letter or digit. A position
is the offset of a token's first character in the source text; the lexer
counts no lines, and ``errors.line_col`` turns an offset into a line and
a column when a diagnostic is reported.
"""

from __future__ import annotations

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


def tokenize(source: str, start: int = 0) -> list[tuple[str, str, int]]:
    """All the tokens of ``source`` from offset ``start``, each as a
    ``(tag, lexeme, offset)`` triple."""
    columns = [], [], []
    scan_into(source, start, *columns, len(source) + 1)  # all of them
    return list(zip(*columns))[:-1]  # without the end-of-input entry


def scan_into(source: str, i: int, tags: list, lexemes: list, offsets: list,
              count: int) -> int:
    """Append the next ``count`` tokens of ``source`` from offset ``i`` to
    ``tags``, ``lexemes`` and ``offsets``, skipping whitespace and
    comments, and return the offset after the last one. If the text ends
    first, the end-of-input entry follows the last token: tag ``None``,
    lexeme ``""`` and the offset after that token, or ``i`` if there is
    none. A token's three entries are appended together once it has been
    scanned, so a lexical error, raised when the scan reaches it, leaves
    the lists at one length."""
    n = len(source)
    end = i
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "{":
            j = source.find("}", i + 1)
            if j < 0:
                raise LexError("unterminated comment", i)
            i = j + 1
            continue
        tag = _SINGLE.get(ch)
        if tag is not None:
            if ch == ":" and source.startswith("=", i + 1):
                tag = lexeme = ":="
                j = i + 2
            else:
                lexeme, j = ch, i + 1
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            tag = lexeme if lexeme in KEYWORDS else IDENT
        # ASCII only: isdigit() also takes "²", which int() refuses, and
        # "٣", which int() reads as 3
        elif "0" <= ch <= "9":
            j = i + 1
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tag, lexeme = INT, source[i:j]
        else:
            raise LexError(f"unexpected character {ch!r}", i)
        tags.append(tag)
        lexemes.append(lexeme)
        offsets.append(i)
        i = end = j
        count -= 1
        if not count:
            return i
    tags.append(None)
    lexemes.append("")
    offsets.append(end)
    return i
