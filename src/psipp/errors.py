"""Error types raised by the lexer, parser, object registry, and evaluator.

Every error that can be traced to a source location carries a ``span``:
the offset of that location in the source text. ``line_col`` turns it into
a line and a column when the error is reported. Exit-code grouping for the
CLI: lex/parse errors, registry/type errors, runtime errors.
"""

from __future__ import annotations


def line_col(text: str, pos: int) -> tuple[int, int]:
    """The line and the column, both from 1, of offset ``pos`` in ``text``;
    a column counts the characters from the last newline before ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class PsiError(Exception):
    """Base class for all interpreter errors."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.method = None  # the innermost user method it left, if any


# --- syntax errors (CLI exit 1) ---

class LexError(PsiError):
    pass


class ParseError(PsiError):
    def __init__(self, message: str, span=None, expected=()):
        super().__init__(message, span)
        self.expected = frozenset(expected)


class ArityError(ParseError):
    pass


class EmptyWordError(PsiError):
    pass


# --- registry / type errors (CLI exit 2) ---

class RegistryError(PsiError):
    pass


class DuplicateType(RegistryError):
    pass


class UnknownAncestor(RegistryError):
    pass


class FieldShadowing(RegistryError):
    pass


class NoSuchMethod(RegistryError):
    pass


# --- runtime errors (CLI exit 3) ---

class EvalError(PsiError):
    pass


class UnknownIdentifier(EvalError):
    pass


class UnassignedReturn(EvalError):
    pass


class ReboundParVariable(EvalError):
    pass


class RewriteLimitExceeded(EvalError):
    pass


class InvariantViolation(EvalError):
    pass


class RegisterOverflow(InvariantViolation, OverflowError):
    """A monomial register component past its 31-bit bound."""
