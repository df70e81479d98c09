"""psipp: an interpreter and symbolic-algebra engine for a small
Pascal-like object language with lazy functional objects."""

from .algebra import (complex_mul, distribute, install_prelude,
                      make_interpreter, promote, simplify)
from .evaluator import Interpreter, classify_binding
from .lexer import tokenize
from .monomials import (MonomialRegister, RepLabel, format_monomial,
                        parse_monomial, register_conjugate, register_mul,
                        rep_label)
from .objects import ObjectDescriptor, Registry
from .parser import parse_expression, parse_juxtaposition, parse_program
from .pretty import render_expr, render_value, show_tree
from .values import FAIL, ComplexV, FreeVarV, RegisterV, ThunkV, Value

__all__ = [
    "FAIL", "ComplexV", "FreeVarV", "Interpreter", "MonomialRegister",
    "ObjectDescriptor", "Registry", "RegisterV", "RepLabel", "ThunkV",
    "Value", "classify_binding", "complex_mul",
    "distribute", "format_monomial", "install_prelude", "make_interpreter",
    "parse_expression", "parse_juxtaposition", "parse_monomial",
    "parse_program", "promote", "register_conjugate", "register_mul",
    "rep_label", "render_expr", "render_value", "show_tree", "simplify",
    "tokenize",
]
