"""Packed-register monomials for Lorentz-group representations.

A register (k, l, m, n) encodes the monomial x1^k x2^(l-k) ~y1^m ~y2^(n-m),
where ~ marks complex conjugation. Multiplying monomials adds registers,
conjugating swaps the (k, l) and (m, n) halves, and the representation the
monomial lives in is labelled by the half-integer pair (l/2, n/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, RegisterOverflow

COMPONENT_MAX = 2**31 - 1


@dataclass(unsafe_hash=True, slots=True)
class MonomialRegister:
    k: int
    l: int
    m: int
    n: int

    def __post_init__(self):
        k, l, m, n = self.k, self.l, self.m, self.n
        if type(k) is type(l) is type(m) is type(n) is int \
                and 0 <= k <= l <= COMPONENT_MAX \
                and 0 <= m <= n <= COMPONENT_MAX:
            return  # the checks below, passed by exact ints
        for name, value in (("k", self.k), ("l", self.l),
                            ("m", self.m), ("n", self.n)):
            if not isinstance(value, int) or value < 0:
                raise InvariantViolation(f"component {name} must be a "
                                         f"nonnegative integer")
            if value > COMPONENT_MAX:
                raise RegisterOverflow(f"component {name} exceeds "
                                       f"{COMPONENT_MAX}")
        if self.k > self.l:
            raise InvariantViolation(f"k={self.k} exceeds l={self.l}")
        if self.m > self.n:
            raise InvariantViolation(f"m={self.m} exceeds n={self.n}")


IDENTITY = MonomialRegister(0, 0, 0, 0)


@dataclass(unsafe_hash=True, slots=True)
class RepLabel:
    j1: Fraction
    j2: Fraction

    def __add__(self, other: "RepLabel") -> "RepLabel":
        return RepLabel(self.j1 + other.j1, self.j2 + other.j2)


def register_mul(a: MonomialRegister, b: MonomialRegister) -> MonomialRegister:
    """Monomial product: componentwise register addition."""
    return MonomialRegister(a.k + b.k, a.l + b.l, a.m + b.m, a.n + b.n)


def register_conjugate(r: MonomialRegister) -> MonomialRegister:
    """Complex conjugation: swap the left and right register halves."""
    return MonomialRegister(r.m, r.n, r.k, r.l)


def rep_label(r: MonomialRegister) -> RepLabel:
    """The (l/2, n/2) representation label as exact half-integers."""
    return RepLabel(Fraction(r.l, 2), Fraction(r.n, 2))


_FACTOR_NAMES = ("x1", "x2", "~y1", "~y2")


def _exponents(r: MonomialRegister) -> tuple[int, int, int, int]:
    return (r.k, r.l - r.k, r.m, r.n - r.m)


def format_monomial(r: MonomialRegister) -> str:
    """Render a register as a product of powers; the identity is ``1``."""
    parts = []
    for name, exp in zip(_FACTOR_NAMES, _exponents(r)):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return " ".join(parts) if parts else "1"


def parse_monomial(text: str) -> MonomialRegister:
    """Inverse of format_monomial."""
    text = text.strip()
    if text == "1":
        return IDENTITY
    exps = {name: 0 for name in _FACTOR_NAMES}
    for part in text.split():
        if "^" in part:
            name, _, power = part.partition("^")
            exp = int(power)
        else:
            name, exp = part, 1
        if name not in exps:
            raise InvariantViolation(f"unknown monomial factor {name!r}")
        exps[name] += exp
    ex1, ex2, ey1, ey2 = (exps[name] for name in _FACTOR_NAMES)
    return MonomialRegister(ex1, ex1 + ex2, ey1, ey1 + ey2)
