"""A fixed pure-Python load that measures how fast the machine is right now.

On a shared machine the time of the same execution moves by up to 1.8x
while other tenants compete for the hardware, for seconds or minutes at a
time. The load below slows down with them, so an execution's time divided
by the time of this load, run just before it, keeps the program's cost and
drops most of the machine's. The load is interpreter work of the kind psipp
does: allocating small objects, recursive walks with ``isinstance``
tests, and dictionary and string operations. It must never change: a
change moves every ``wall_rel`` figure.
"""

from __future__ import annotations

from time import perf_counter


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right


def _build(depth: int):
    if depth == 0:
        return 1
    return _Node("+" if depth % 2 else "*", _build(depth - 1),
                 _build(depth - 1))


def _walk(node, env: dict) -> int:
    if isinstance(node, _Node):
        a = _walk(node.left, env)
        b = _walk(node.right, env)
        return a + b if node.op == "+" else a * b % 1000003
    return env.get("leaf", node)


def calibration_s() -> float:
    """Wall seconds of the fixed load (about 2.3 ms on an idle 2-core Xeon
    with Python 3.11)."""
    start = perf_counter()
    _walk(_build(12), {"x": 1})
    counts: dict[str, int] = {}
    for i, word in enumerate(" ".join(f"w{i}" for i in range(2000)).split()):
        counts[word] = counts.get(word, 0) + i
    return perf_counter() - start
