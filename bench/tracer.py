"""Span and counter wrappers around the public functions of each psipp layer.

A ``Tracer`` replaces each traced function with a wrapper wherever psipp
holds it: on its class, in its own module, and in every psipp module that
imported it by value (``cli.simplify``, ``algebra.register_mul``, ...).
``uninstall`` puts the originals back, so untraced executions in the same
process run the unmodified code.

A wrapper opens a span only when the call crosses into another layer; a
call inside the layer already open (``eval_expr`` recursing, ``force``
called from ``eval_expr``) is counted and folded into the open span. A
layer's self time is the duration of its spans minus the part their child
spans cover. Spans opened while the prelude loads carry the phase
``prelude`` and are kept apart from the program's own.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from time import perf_counter

PROGRAM = "program"
PRELUDE = "prelude"

KERNELS = ("promote", "complex_mul", "complex_add", "complex_neg",
           "distribute", "complex_method_mul")
# (layer, module, functions); Interpreter and Registry methods are separate
_FUNCTIONS = [
    ("lexer", "psipp.lexer", ["tokenize"]),
    ("parser", "psipp.parser", ["parse_program"]),
    ("algebra", "psipp.algebra", ["simplify", *KERNELS]),
    ("monomials", "psipp.monomials", ["register_mul"]),
    ("pretty", "psipp.pretty", ["render_value", "render_expr"]),
]
_INTERPRETER_METHODS = ["run_program", "eval_expr", "dispatch",
                        "invoke_method", "make_thunk", "match_pattern",
                        "force"]
# functions whose outermost activation is also timed inclusively
_TIMED = frozenset({"dispatch", "force", "simplify"})


class Tracer:
    def __init__(self):
        # closed spans: (id, parent, layer, name, phase, start, end)
        self.spans: list[tuple] = []
        # open spans: [id, layer, seconds covered by child spans]
        self._stack: list[list] = []
        self._next_id = 1
        self.phase = PROGRAM
        self.self_s = {PROGRAM: defaultdict(float),
                       PRELUDE: defaultdict(float)}
        self.calls = {PROGRAM: Counter(), PRELUDE: Counter()}
        self.counter = self.calls[PROGRAM]  # the current phase's
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.prelude_s = 0.0
        # program phase only
        self.tokens = 0
        self.chars = 0
        self.frames = 0
        self.parsed: list = []
        self._layer_of: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- installation ---

    def install(self):
        evaluator = sys.modules["psipp.evaluator"]
        objects = sys.modules["psipp.objects"]
        algebra = sys.modules["psipp.algebra"]
        for name in _INTERPRETER_METHODS:
            self._patch_class(evaluator.Interpreter, name, "evaluator")
        for name, attr in list(vars(objects.Registry).items()):
            if not name.startswith("_") and callable(attr):
                self._patch_class(objects.Registry, name, "objects")
        for layer, module, names in _FUNCTIONS:
            for name in names:
                fn = getattr(sys.modules[module], name, None)
                if fn is not None:
                    self._patch_everywhere(fn, self._wrap(fn, layer, name))
        self._patch_everywhere(algebra.make_interpreter,
                               self._prelude_wrapper(algebra.make_interpreter))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch_class(self, cls, name: str, layer: str):
        original = cls.__dict__.get(name)
        if original is not None:
            self._patches.append((cls, name, original))
            setattr(cls, name, self._wrap(original, layer, name))

    def _patch_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "psipp" and not mod_name.startswith("psipp."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    # --- wrappers ---

    def _on_result(self, name: str):
        if name == "tokenize":
            def hook(result):
                self.tokens += len(result)
        elif name == "parse_program":
            hook = self.parsed.append
        elif name in ("render_value", "render_expr"):
            def hook(result):
                self.chars += len(result)
        else:
            hook = None
        return hook

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        self._layer_of[name] = layer
        on_result = self._on_result(name)

        def call(*args, **kwargs):
            tracer.counter[name] += 1
            stack = tracer._stack
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else 0
            entry = [tracer._next_id, layer, 0.0]
            tracer._next_id += 1
            stack.append(entry)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[tracer.phase][layer] += duration - entry[2]
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append((entry[0], parent, layer, name,
                                     tracer.phase, start, end))
            if on_result is not None and tracer.phase == PROGRAM:
                on_result(result)
            return result

        if name == "invoke_method":
            def invoke(interp, impl, *args, **kwargs):
                # a user-written body gets an activation frame
                if getattr(getattr(impl, "decl", None), "body", None) \
                        is not None and tracer.phase == PROGRAM:
                    tracer.frames += 1
                return call(interp, impl, *args, **kwargs)
            return invoke
        if name not in _TIMED:
            return call
        active = 0

        def timed(*args, **kwargs):
            nonlocal active
            if active:
                return call(*args, **kwargs)
            active += 1
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                tracer.inclusive_s[name] += perf_counter() - start
                active -= 1

        return timed

    def _prelude_wrapper(self, fn):
        tracer = self

        def load(*args, **kwargs):
            tracer.phase, tracer.counter = PRELUDE, tracer.calls[PRELUDE]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.prelude_s += perf_counter() - start
                tracer.phase, tracer.counter = PROGRAM, tracer.calls[PROGRAM]

        return load

    # --- results ---

    def layer_calls(self, layer: str) -> int:
        """Program-phase calls into the traced functions of one layer."""
        return sum(n for name, n in self.calls[PROGRAM].items()
                   if self._layer_of[name] == layer)

    def nodes(self) -> int:
        """AST nodes in the program's parse results."""
        return sum(count_nodes(p) for p in self.parsed)

    def counts(self) -> dict:
        """Every operation count of this pass; two passes over the same
        program must give equal dictionaries."""
        return {"calls": dict(self.calls[PROGRAM]),
                "prelude_calls": dict(self.calls[PRELUDE]),
                "spans": len(self.spans), "tokens": self.tokens,
                "chars": self.chars, "frames": self.frames,
                "nodes": self.nodes()}

    def span_records(self):
        for sid, parent, layer, name, phase, start, end in self.spans:
            yield {"id": sid, "parent": parent, "layer": layer, "name": name,
                   "phase": phase, "start": start, "end": end}


def count_nodes(node) -> int:
    """Number of psipp.ast nodes in a parse result."""
    total = 0
    pending = [node]
    while pending:
        item = pending.pop()
        if isinstance(item, (list, tuple)):
            pending.extend(item)
        elif type(item).__module__ == "psipp.ast" \
                and dataclasses.is_dataclass(item):
            total += 1
            pending.extend(getattr(item, f.name)
                           for f in dataclasses.fields(item))
    return total
