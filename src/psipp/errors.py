"""Error types raised by the lexer, parser, object registry, and evaluator.

Every error that can be traced to a source location carries a ``span``
(line, column, length). Exit-code grouping for the CLI: lex/parse errors,
registry/type errors, runtime errors.
"""

from __future__ import annotations


class PsiError(Exception):
    """Base class for all interpreter errors."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self):
        if self.span is not None:
            line, col, _ = self.span
            return f"{line}:{col}: {self.message}"
        return self.message


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
