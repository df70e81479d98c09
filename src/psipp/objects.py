"""Object-type registry: ancestor chains, field names, and method tables.

Everything here is resolved by type name. Method resolution walks the
receiver's ancestor chain; an explicitly qualified call
(``Ancestor.(A * B)``) starts the walk at the named ancestor instead.
Implementations are either user bodies (parsed declarations) or natives,
plain Python functions ``fn(args, interp)``. A method's key ``(symbol,
fixity)`` fixes its number of operands, by ``ast.FIXITY``. The evaluator
memoises what it resolves here, until a type or a method is added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from . import ast
from .errors import DuplicateType, FieldShadowing, NoSuchMethod, UnknownAncestor
from .values import INTEGER


class UserMethod:
    """A method or function written in ψ++, and its body compiled at its
    first run (``code``, None until then)."""

    def __init__(self, decl: ast.FunctionDecl):
        self.decl = decl
        self.code: Optional[Callable] = None

    def compile(self, compile_body: Callable) -> Callable:
        """``compile_body`` of the body and the names its ``par`` block
        declares, kept as ``code``."""
        self.code = compile_body(self.decl.body, frozenset(
            name for name, _ in self.decl.par_decls))
        return self.code


MethodImpl = object  # UserMethod | a native fn(args, interp) -> Value


@dataclass
class ObjectDescriptor:
    name: str
    ancestor: Optional[str]
    fields: list[str] = field(default_factory=list)
    methods: dict[tuple[str, str], MethodImpl] = field(default_factory=dict)


class Registry:
    def __init__(self):
        self.types: dict[str, ObjectDescriptor] = {}
        # the evaluator's memo: ``decide``'s decision by (symbol, the
        # operands' Python types), and an inherited call's method by
        # (ancestor, symbol, operand count), a key with no Python type;
        # defining a type or attaching a method clears it
        self.memo: dict[tuple, object] = {}

    def _chain(self, name: Optional[str],
               span=None) -> Iterator[ObjectDescriptor]:
        """The descriptor of ``name``, then of each of its ancestors."""
        while name is not None:
            desc = self.types.get(name)
            if desc is None:
                raise UnknownAncestor(f"unknown type {name!r}", span)
            yield desc
            name = desc.ancestor

    def define_object(self, decl: ast.ObjectDecl) -> str:
        if decl.name in self.types:
            raise DuplicateType(f"type {decl.name!r} already defined", decl.span)
        if decl.ancestor is not None and decl.ancestor not in self.types:
            raise UnknownAncestor(f"unknown ancestor {decl.ancestor!r}",
                                  decl.span)
        inherited = {name for desc in self._chain(decl.ancestor)
                     for name in desc.fields}
        for name, _ in decl.fields:
            if name in inherited:
                raise FieldShadowing(f"field {name!r} shadows an inherited "
                                     f"field", decl.span)
        descriptor = ObjectDescriptor(decl.name, decl.ancestor,
                                      [name for name, _ in decl.fields])
        for sig in decl.method_sigs:
            descriptor.methods[(sig.symbol, sig.fixity)] = UserMethod(sig)
        self.types[decl.name] = descriptor
        self.memo.clear()
        return decl.name

    def descriptor(self, name: str) -> ObjectDescriptor:
        return next(self._chain(name))

    def attach_method(self, owner: str, symbol: str, fixity: str,
                      impl: MethodImpl):
        self.descriptor(owner).methods[(symbol, fixity)] = impl
        self.memo.clear()

    def resolve_method(self, receiver: str, symbol: str, fixity: str,
                       arg_types: Optional[list[str]] = None,
                       span=None) -> MethodImpl:
        """Nearest method up the receiver's chain; with ``arg_types``, the
        nearest one whose parameters accept arguments of those types."""
        for desc in self._chain(receiver, span):
            impl = desc.methods.get((symbol, fixity))
            if impl is not None and (arg_types is None or self._accepts(
                    impl, fixity, arg_types)):
                return impl
        if arg_types is not None:
            raise NoSuchMethod(f"no applicable {fixity} {symbol!r} on "
                               f"{receiver}", span)
        raise NoSuchMethod(f"no {fixity} {symbol!r} on {receiver} "
                           f"or its ancestors", span)

    def decide(self, symbol: str, arg_types: list[str],
               span=None) -> tuple[Optional[MethodImpl], tuple, str]:
        """How ``symbol`` applies to concrete operands of ``arg_types``, not
        all integers: the method; whether each operand, if an integer,
        promotes to Complex first, as it does at a Complex receiver but into
        a user method's integer slot; and the receiver, the first operand's
        type or, past an integer, the second's. The method is None when the
        receiver is no object type, so the native kernel applies."""
        receiver = arg_types[-1] if arg_types[0] == INTEGER else arg_types[0]
        impl = None
        if receiver in self.types:
            impl = self.resolve_method(receiver, symbol, ast.FIXITY[
                len(arg_types)], arg_types, span)
        if receiver != "Complex" or INTEGER not in arg_types:
            return impl, (), receiver
        slots = [slot for _, slot in impl.decl.params] \
            if isinstance(impl, UserMethod) else [None] * len(arg_types)
        return impl, tuple(slot != INTEGER for slot in slots), receiver

    def _accepts(self, impl: MethodImpl, fixity: str,
                 arg_types: list[str]) -> bool:
        """Whether ``impl`` of ``fixity`` takes arguments of ``arg_types``:
        as many as the fixity fixes, and a user method's parameter slots
        accept their types."""
        return ast.FIXITY.get(len(arg_types)) == fixity and (
            not isinstance(impl, UserMethod) or all(
                self.kind_compatible(slot, arg)
                for (_, slot), arg in zip(impl.decl.params, arg_types)))

    def is_descendant(self, a: str, b: str) -> bool:
        """True iff ``b`` lies on ``a``'s ancestor chain (reflexively)."""
        self.descriptor(b)
        return any(desc.name == b for desc in self._chain(a))

    def kind_compatible(self, slot: str, datum: str) -> bool:
        """Whether a slot of type ``slot`` accepts a datum of type
        ``datum``. Integers promote into the Complex chain."""
        if datum == slot:
            return True
        if datum == INTEGER:
            return ("Complex" in self.types
                    and self.is_descendant("Complex", slot))
        if slot == INTEGER:
            return False
        if datum in self.types and slot in self.types:
            return self.is_descendant(datum, slot)
        return False
