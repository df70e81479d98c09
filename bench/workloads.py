"""Seeded ψ++ program generators and their independent output oracles.

Nothing here imports psipp: every expected output is computed in plain
Python, so a defect in the interpreter cannot also hide in its reference.
A seed varies the values in a program but never its shape, so every seed
of one workload does the same amount of work.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Program:
    """One generated script and the check its standard output must pass."""
    source: str
    check: Callable[[str], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str       # the layer that should do the work
    bypasses: str    # the layers it leaves (almost) idle
    trace: bool      # run with `psi run --trace`
    size: dict       # keyword arguments of `generate`
    generate: Callable[..., Program]

    def record(self) -> str:
        """The one-line record kept as this workload's ``why`` in
        BENCHMARK.json."""
        size = ", ".join(f"{k}={v}" for k, v in self.size.items())
        return (f"{self.why}. Loads {self.loads}; bypasses {self.bypasses}. "
                f"{size}, default seed {DEFAULT_SEED}")


# --- expand / expand_trace: (x0 + ... + x{n-1}) * (y0 + ... + y{n-1}) ---

def _expand_program(rng: random.Random, n: int) -> tuple[str, list[str]]:
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    rng.shuffle(xs)
    rng.shuffle(ys)
    declared = xs + ys
    rng.shuffle(declared)
    source = (f"var {', '.join(declared)} : Algebra;\n"
              f"print(simplify(({' + '.join(xs)}) * ({' + '.join(ys)})));\n")
    # one-layer distribution never reorders factors or summands, so the
    # normal form lists the n*n products in row-major order
    return source, [f"{x}*{y}" for x in xs for y in ys]


def _terms(line: str) -> list[str]:
    return line.replace("(", "").replace(")", "").split(" + ")


_TOKEN = re.compile(r"[A-Za-z_]\w*|[()+*]")


def multiply_out(line: str) -> list[str] | None:
    """The products ``a*b`` that a printed sum of products of names
    multiplies out to, in factor and summand order; None if the line is
    not such an expression."""
    tokens = _TOKEN.findall(line)
    if "".join(tokens) != line.replace(" ", ""):
        return None
    pos = 0

    def sum_() -> list[str]:
        nonlocal pos
        terms = product()
        while pos < len(tokens) and tokens[pos] == "+":
            pos += 1
            terms += product()
        return terms

    def product() -> list[str]:
        nonlocal pos
        terms = factor()
        while pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            right = factor()
            terms = [f"{a}*{b}" for a in terms for b in right]
        return terms

    def factor() -> list[str]:
        nonlocal pos
        if pos == len(tokens) or tokens[pos] in "+*)":
            raise ValueError(line)
        pos += 1
        if tokens[pos - 1] != "(":
            return [tokens[pos - 1]]
        inner = sum_()
        if pos == len(tokens) or tokens[pos] != ")":
            raise ValueError(line)
        pos += 1
        return inner

    try:
        products = sum_()
    except ValueError:
        return None
    return products if pos == len(tokens) else None


def gen_expand(seed: int, n: int) -> Program:
    source, products = _expand_program(random.Random(seed), n)

    def check(stdout: str) -> bool:
        lines = stdout.splitlines()
        return len(lines) == 1 and _terms(lines[0]) == products

    return Program(source, check)


def gen_expand_trace(seed: int, n: int) -> Program:
    source, products = _expand_program(random.Random(seed), n)

    def check(stdout: str) -> bool:
        # n*n - 1 distribution steps, one trace line each, then the result;
        # every step changes the tree and none changes what it multiplies
        # out to
        lines = stdout.splitlines()
        return (len(lines) == n * n and _terms(lines[-1]) == products
                and all(a != b for a, b in zip(lines, lines[1:-1]))
                and all(multiply_out(line) == products for line in lines))

    return Program(source, check)


# --- concrete: Gaussian-integer and monomial-register products ---

# every multiplier has norm 5, so the size of the integers (and the cost of
# the big-number arithmetic) is the same for every seed
_GAUSSIAN_NORM5 = [(1, 2), (2, 1), (1, -2), (2, -1),
                   (-1, 2), (-2, 1), (-1, -2), (-2, -1)]

_COMPLEX = re.compile(r"(-?\d+)(?: ([+-]) (?:(\d+)\*)?i)?|(-?)(?:(\d+)\*)?i")


def parse_gaussian(text: str) -> tuple[int, int] | None:
    """Read a printed Gaussian integer: ``a``, ``a + b*i``, ``a - i``,
    ``b*i``, ``-i``. Returns None for anything else."""
    m = _COMPLEX.fullmatch(text)
    if m is None:
        return None
    if m.group(1) is not None:
        re_part = int(m.group(1))
        if m.group(2) is None:
            return re_part, 0
        mag = int(m.group(3)) if m.group(3) else 1
        return re_part, mag if m.group(2) == "+" else -mag
    mag = int(m.group(5)) if m.group(5) else 1
    return 0, -mag if m.group(4) else mag


def _register(rng: random.Random) -> tuple[int, int, int, int]:
    k, m = rng.randint(0, 3), rng.randint(0, 3)
    return k, k + rng.randint(1, 3), m, m + rng.randint(1, 3)


def format_register(k: int, l: int, m: int, n: int) -> str:
    """x1^k x2^(l-k) ~y1^m ~y2^(n-m), exponent 1 implicit, 0 omitted."""
    parts = []
    for name, exp in (("x1", k), ("x2", l - k), ("~y1", m), ("~y2", n - m)):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return " ".join(parts) if parts else "1"


def gen_concrete(seed: int, statements: int) -> Program:
    rng = random.Random(seed)
    z = (rng.randint(1, 9), rng.randint(1, 9))
    w = rng.choice(_GAUSSIAN_NORM5)
    m = _register(rng)
    u = _register(rng)
    lines = [f"z := ({z[0]}, {z[1]});", f"w := ({w[0]}, {w[1]});",
             f"m := mono({', '.join(map(str, m))});",
             f"u := mono({', '.join(map(str, u))});"]
    for j in range(statements):
        if j % 2 == 0:
            lines.append(f"z := z * w; {{ Gaussian product {j // 2 + 1} }}")
            z = (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])
        else:
            lines.append(f"m := m * u; {{ register sum {j // 2 + 1} }}")
            m = tuple(a + b for a, b in zip(m, u))
    lines += ["print(z);", "print(m);"]
    expected_m = format_register(*m)

    def check(stdout: str) -> bool:
        out = stdout.splitlines()
        return (len(out) == 2 and parse_gaussian(out[0]) == z
                and out[1] == expected_m)

    return Program("\n".join(lines) + "\n", check)


# --- shared_force: a doubling DAG forced once ---

def gen_shared_force(seed: int, depth: int) -> Program:
    rng = random.Random(seed)
    x = rng.randint(4, 999)
    # a0 = x - offset is 3 or -3, so every seed does the same big-integer
    # work; at depth 13, 3**(2**13) has 3909 digits, within Python's
    # 4300-digit limit on printing an int
    offset = x - rng.choice((3, -3))
    lines = ["var x : integer;", f"a0 := x - {offset};"]
    lines += [f"a{j + 1} := a{j} * a{j};" for j in range(depth)]
    lines += [f"x := {x};", f"print(EVAL(a{depth}));"]
    value = x - offset
    for _ in range(depth):
        value = value * value

    def check(stdout: str) -> bool:
        return stdout.splitlines() == [str(value)]

    return Program("\n".join(lines) + "\n", check)


DEFAULT_SEED = 1

WORKLOADS = {w.name: w for w in [
    Workload(
        "expand",
        "one-layer distributivity to a fixed point, untraced",
        loads="algebra.simplify (the rewriter)",
        bypasses="dispatch, objects, forcing, monomials; parsing is tiny",
        trace=False, size={"n": 22}, generate=gen_expand),
    Workload(
        "expand_trace",
        "the same rewriter under --trace: every step is rendered",
        loads="pretty (step rendering), then algebra.simplify",
        bypasses="dispatch, objects, forcing, monomials",
        trace=True, size={"n": 16}, generate=gen_expand_trace),
    Workload(
        "concrete",
        "straight-line Complex and Monomial products",
        loads="evaluator and objects (Complex.infix* dispatch), then lexer, "
              "parser",
        bypasses="thunks, forcing, rewriting",
        trace=False, size={"statements": 2400}, generate=gen_concrete),
    Workload(
        "shared_force",
        "forcing a doubling DAG that every walk treats as a tree",
        loads="Interpreter.force (integer kernel only)",
        bypasses="dispatch, objects, the rewriter, parsing",
        trace=False, size={"depth": 13}, generate=gen_shared_force),
]}
