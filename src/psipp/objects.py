"""Object-type registry: ancestor chains, field lists, and method tables.

Method resolution walks the receiver's ancestor chain; an explicitly
qualified call (``Ancestor.(A * B)``) starts the walk at the named
ancestor instead. Implementations are either user bodies (parsed
declarations) or native Python callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import ast
from .errors import DuplicateType, FieldShadowing, NoSuchMethod, UnknownAncestor

INTEGER = "integer"


@dataclass(frozen=True)
class KindedType:
    base: str
    kind: str = "value"  # value | variable | functional-object


@dataclass
class UserMethod:
    decl: ast.FunctionDecl


@dataclass
class NativeMethod:
    name: str
    fn: Callable  # (args: list[Value], interp) -> Value
    arity: int


MethodImpl = object  # UserMethod | NativeMethod


@dataclass
class ObjectDescriptor:
    name: str
    ancestor: Optional[str]
    fields: list[tuple[str, str]] = field(default_factory=list)
    methods: dict[tuple[str, str], MethodImpl] = field(default_factory=dict)


class Registry:
    def __init__(self):
        self.types: dict[str, ObjectDescriptor] = {}

    def define_object(self, decl: ast.ObjectDecl) -> str:
        if decl.name in self.types:
            raise DuplicateType(f"type {decl.name!r} already defined", decl.span)
        if decl.ancestor is not None and decl.ancestor not in self.types:
            raise UnknownAncestor(f"unknown ancestor {decl.ancestor!r}",
                                  decl.span)
        inherited = set()
        chain = decl.ancestor
        while chain is not None:
            desc = self.types[chain]
            inherited.update(name for name, _ in desc.fields)
            chain = desc.ancestor
        for name, _ in decl.fields:
            if name in inherited:
                raise FieldShadowing(f"field {name!r} shadows an inherited "
                                     f"field", decl.span)
        descriptor = ObjectDescriptor(decl.name, decl.ancestor,
                                      list(decl.fields))
        for sig in decl.method_sigs:
            descriptor.methods[(sig.symbol, sig.fixity)] = UserMethod(sig)
        self.types[decl.name] = descriptor
        return decl.name

    def descriptor(self, name: str) -> ObjectDescriptor:
        if name not in self.types:
            raise UnknownAncestor(f"unknown type {name!r}")
        return self.types[name]

    def attach_method(self, owner: str, symbol: str, fixity: str,
                      impl: MethodImpl):
        self.descriptor(owner).methods[(symbol, fixity)] = impl

    def set_native(self, owner: str, symbol: str, fixity: str,
                   fn: Callable, arity: int):
        self.attach_method(owner, symbol, fixity,
                           NativeMethod(f"{owner}.{fixity}{symbol}", fn, arity))

    def resolve_method(self, receiver: str, symbol: str, fixity: str,
                       fits: Optional[Callable[[MethodImpl], bool]] = None,
                       span=None) -> MethodImpl:
        """Nearest method up the receiver's chain; with ``fits``, the
        nearest one that the predicate accepts for the actual arguments."""
        chain: Optional[str] = receiver
        while chain is not None:
            desc = self.descriptor(chain)
            impl = desc.methods.get((symbol, fixity))
            if impl is not None and (fits is None or fits(impl)):
                return impl
            chain = desc.ancestor
        if fits is not None:
            raise NoSuchMethod(f"no applicable {fixity} {symbol!r} on "
                               f"{receiver}", span)
        raise NoSuchMethod(f"no {fixity} {symbol!r} on {receiver} "
                           f"or its ancestors", span)

    def is_descendant(self, a: str, b: str) -> bool:
        """True iff ``b`` lies on ``a``'s ancestor chain (reflexively)."""
        self.descriptor(b)
        chain: Optional[str] = a
        while chain is not None:
            if chain == b:
                return True
            chain = self.descriptor(chain).ancestor
        return False

    def kind_compatible(self, slot: KindedType, datum) -> bool:
        """Assignment compatibility. ``fail`` fits every slot; kinds track
        but never restrict; integers promote into the Complex chain."""
        from .values import FAIL
        if datum is FAIL:
            return True
        base = datum.base if isinstance(datum, KindedType) else datum
        if base == slot.base:
            return True
        if base == INTEGER:
            return ("Complex" in self.types
                    and self.is_descendant("Complex", slot.base))
        if slot.base == INTEGER:
            return False
        if base in self.types and slot.base in self.types:
            return self.is_descendant(base, slot.base)
        return False
