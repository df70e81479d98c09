"""The two walks of ``algebra.simplify``, untraced and traced, against the
rewriter they replaced: ``_rewrite_once`` below applies one rewrite at the
first redex in post-order, and the oracle restarts it from the root after
every step. All must take the same steps, print the same trace, reach the
same normal form and fail at the same step."""

import io
import tracemalloc
from functools import partial, reduce
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from psipp import algebra, ast, pretty
from psipp.algebra import _concrete_leaf, _fold, distribute_expr, simplify
from psipp.cli import run_file
from psipp.errors import PsiError, RegisterOverflow, RewriteLimitExceeded
from psipp.evaluator import free_idents
from psipp.monomials import MonomialRegister
from psipp.pretty import render_expr, render_value
from psipp.values import (FAIL, ComplexV, FreeVarV, RegisterV,
                          ThunkV, thunk)

from test_force import budget


def _rewrite_once(e: ast.Expr) -> Optional[ast.Expr]:
    """Apply one rewrite at the first redex in post-order, or None."""
    if isinstance(e, ast.Infix):
        lhs = _rewrite_once(e.lhs)
        if lhs is not None:
            return ast.Infix(e.op, lhs, e.rhs)
        rhs = _rewrite_once(e.rhs)
        if rhs is not None:
            return ast.Infix(e.op, e.lhs, rhs)
        left = _concrete_leaf(e.lhs)
        right = _concrete_leaf(e.rhs)
        if left is not None and right is not None:
            folded = _fold(e.op, [left, right])
            if folded is not None:
                return ast.ValueLeaf(folded)
        if e.op == "*":
            return distribute_expr(e.lhs, e.rhs)
        return None
    if isinstance(e, ast.Prefix):
        inner = _rewrite_once(e.operand)
        if inner is not None:
            return ast.Prefix(e.op, inner)
        operand = _concrete_leaf(e.operand)
        if operand is not None:
            folded = _fold(e.op, [operand])
            if folded is not None:
                return ast.ValueLeaf(folded)
        return None
    return None


def oracle_simplify(v, max_steps, trace=None):
    """Rewrite to a fixed point, restarting from the root after each step
    and rendering the whole term from scratch."""
    if not isinstance(v, ThunkV):
        return v
    body = v.body
    steps = 0
    while True:
        rewritten = _rewrite_once(body)
        if rewritten is None:
            break
        body = rewritten
        steps += 1
        if trace is not None:
            trace(render_expr(body, spaced=True))
        if steps > max_steps:
            raise RewriteLimitExceeded(f"more than {max_steps} rewrite steps")
    leaf = _concrete_leaf(body)
    if leaf is not None:
        return leaf
    return thunk(body, v.capture_map())


def outcome(normalise, v, max_steps, traced):
    """The trace lines, then the result or the error raised."""
    lines = []
    try:
        result = normalise(v, max_steps, lines.append if traced else None)
    except PsiError as err:
        return lines, type(err), str(err)
    return lines, result


# --- random terms over shared subterms ---

BIG = MonomialRegister(0, 2**30, 0, 1)  # its square overflows a register
LEAVES = st.one_of(
    st.integers(-3, 3).map(ast.ValueLeaf),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda c: ast.ValueLeaf(ComplexV(*c))),
    st.sampled_from([BIG, MonomialRegister(1, 2, 0, 1)]).map(
        lambda r: ast.ValueLeaf(RegisterV(r))),
    st.just(ast.ValueLeaf(FAIL)),
    st.sampled_from(["x", "y"]).map(ast.Ident),
    st.just(ast.FieldAccess(ast.Ident("z"), "Re")),
)


def tree_leaves(e: ast.Expr) -> int:
    """Leaves of the tree a DAG unfolds to, counted once per shared node."""
    counts: dict[int, int] = {}

    def count(e):
        if id(e) not in counts:
            if isinstance(e, ast.Infix):
                counts[id(e)] = count(e.lhs) + count(e.rhs)
            elif isinstance(e, ast.Prefix):
                counts[id(e)] = count(e.operand)
            else:
                counts[id(e)] = 1
        return counts[id(e)]

    return count(e)


def over_free(body: ast.Expr) -> ThunkV:
    """A thunk of ``body`` whose identifiers are free variables."""
    return thunk(body, {name: FreeVarV(name) for name in free_idents(body)})


@st.composite
def terms(draw):
    """A thunk whose body is built from a pool of earlier nodes, so that
    an operand may be shared by several parents. The tree it unfolds to
    has at most 32 leaves, which keeps the restarting oracle quick."""
    pool = [draw(LEAVES)]
    for _ in range(draw(st.integers(3, 16))):
        kind = draw(st.sampled_from(["*", "+", "leaf", "-", "neg"]))
        picks = [pool[-1 - draw(st.integers(0, len(pool) - 1))]
                 for _ in range(1 if kind == "neg" else 2)]
        if kind == "leaf":
            node = draw(LEAVES)
        elif kind == "neg":
            node = ast.Prefix("-", *picks)
        else:
            node = ast.Infix(kind, *picks)
        if tree_leaves(node) <= 32:
            pool.append(node)
    body = max(pool, key=tree_leaves)
    return over_free(body)


def worked_example():
    i, x = ast.ValueLeaf(ComplexV(0, 1)), ast.Ident("x")
    return thunk(ast.Infix("*", ast.Infix("+", i, x), i), {"x": FreeVarV("x")})


def overflow_after_a_step():
    # (x + 1) * 2 distributes, 1 * 2 folds, then BIG * BIG overflows
    x, big = ast.Ident("x"), ast.ValueLeaf(RegisterV(BIG))
    distributed = ast.Infix("*", ast.Infix("+", x, ast.ValueLeaf(1)),
                            ast.ValueLeaf(2))
    return thunk(ast.Infix("+", distributed, ast.Infix("*", big, big)),
                 {"x": FreeVarV("x")})


def distributed(*names: str) -> ast.Infix:
    """``(a + b) * c``"""
    a, b, c = map(ast.Ident, names)
    return ast.Infix("*", ast.Infix("+", a, b), c)


def leaf(n: int) -> ast.ValueLeaf:
    return ast.ValueLeaf(n)


def register(*exponents: int) -> ast.ValueLeaf:
    return ast.ValueLeaf(RegisterV(MonomialRegister(*exponents)))


@settings(max_examples=400, deadline=None)
@given(terms(), st.sampled_from([5, 20, 10_000]), st.booleans())
@example(worked_example(), 10_000, True)
@example(worked_example(), 1, True)
@example(overflow_after_a_step(), 10_000, True)
# a fold makes the rhs of a product scalar, which then prints first, after
# a step that had the product's context computed with the old rhs
@example(over_free(ast.Infix("*", ast.Ident("x"), ast.Infix(
    "+", ast.Infix("+", leaf(1), leaf(2)), leaf(3)))), 10_000, True)
# a distribution under prefix minus, which wraps the new sum
@example(over_free(ast.Prefix("-", distributed("a", "b", "c"))), 10_000, True)
# a distribution in the rhs of -, where the new sum needs parentheses that
# the product did not: at once, and after a step below the same slot
@example(over_free(ast.Infix("-", ast.Ident("x"), distributed("a", "b", "c"))),
         10_000, True)
@example(over_free(ast.Infix("-", ast.Ident("x"), ast.Infix(
    "*", ast.Infix("+", leaf(1), leaf(2)), ast.Infix(
        "+", ast.Ident("a"), ast.Ident("b"))))), 10_000, True)
# the root's slot moves after the fold, then two frames are pushed below it
# before the distribution: three frames are stale at its line
@example(over_free(ast.Infix("+", ast.Infix("+", leaf(1), leaf(2)), ast.Infix(
    "*", ast.Ident("x"), ast.Infix("*", ast.Ident("y"),
                                   distributed("a", "b", "c"))))),
         10_000, True)
# a Prefix frame above a slot that moves, and one pushed below it
@example(over_free(ast.Prefix("-", ast.Infix(
    "+", ast.Infix("+", leaf(1), leaf(2)), ast.Infix(
        "*", ast.Ident("x"), distributed("a", "b", "c"))))), 10_000, True)
@example(over_free(ast.Infix("-", ast.Infix("+", leaf(1), leaf(2)), ast.Prefix(
    "-", ast.Infix("*", ast.Ident("y"), distributed("a", "b", "c"))))),
         10_000, True)
# a right distribution under the rhs of - at depth 4, whose new sum needs
# parentheses there
@example(over_free(ast.Prefix("-", ast.Infix("*", ast.Ident("w"), ast.Infix(
    "-", ast.Ident("x"), ast.Infix("*", ast.Ident("a"), ast.Infix(
        "-", ast.Ident("z"), ast.Infix("*", ast.Ident("b"), ast.Infix(
            "+", leaf(1), ast.Ident("c"))))))))), 10_000, True)
# a finished left operand whose frame's slot moves takes its text from the
# line before: parenthesised there, and printed second after the fold
@example(over_free(ast.Infix("*", ast.Infix(
    "+", ast.Ident("x"), ast.Infix("*", leaf(1), leaf(2))), ast.Infix(
        "+", leaf(1), leaf(2)))), 10_000, True)
# the same under the rhs of -, and under a Prefix frame
@example(over_free(ast.Infix("-", ast.Ident("x"), ast.Infix("*", ast.Infix(
    "+", ast.Ident("a"), ast.Infix("*", leaf(1), leaf(2))), ast.Infix(
        "+", ast.Ident("b"), ast.Ident("c"))))), 10_000, True)
@example(over_free(ast.Prefix("-", ast.Infix("*", ast.Infix(
    "+", ast.Ident("a"), ast.Infix("*", leaf(1), leaf(2))), ast.Infix(
        "+", ast.Ident("b"), ast.Infix("*", leaf(2), leaf(3)))))),
         10_000, True)
# a left operand folds to a scalar beside a scalar right operand, which
# printed first: the swap turns off and the product is laid out again,
# 4 * (1 + 2) to 3 * 4, alone and under x - ...
@example(over_free(ast.Infix("*", ast.Infix("+", leaf(1), leaf(2)), leaf(4))),
         10_000, True)
@example(over_free(ast.Infix("-", ast.Ident("x"), ast.Infix(
    "*", ast.Infix("+", leaf(1), leaf(2)), leaf(4)))), 10_000, True)
# a fold to a register whose text has a space, so at the level of *, on
# the right of a product
@example(over_free(ast.Infix("*", ast.Ident("x"), ast.Infix(
    "*", register(0, 1, 0, 0), register(1, 2, 0, 1)))), 10_000, True)
# a field access, a leaf the walk renders for its length, beside a
# distribution on either side
@example(over_free(ast.Infix("+", ast.Infix(
    "*", ast.FieldAccess(ast.Ident("z"), "Re"), distributed("a", "b", "c").lhs
), ast.Infix("*", distributed("a", "b", "c").lhs,
             ast.FieldAccess(ast.Ident("z"), "Re")))), 10_000, True)
# untraced, the budget runs out between the two products of one
# distribution: x * BIG is normal, and BIG * BIG overflows before its fold
# would take a second step
@example(over_free(ast.Infix("*", ast.Infix(
    "+", ast.Ident("x"), ast.ValueLeaf(RegisterV(BIG))),
    ast.ValueLeaf(RegisterV(BIG)))), 1, False)
def test_simplify_matches_restarting_oracle(v, max_steps, traced):
    expected = outcome(oracle_simplify, v, max_steps, traced)
    assert outcome(simplify, v, max_steps, traced) == expected


# --- shared subterms that are not normal ---

FOLDING_LEAVES = st.one_of(
    st.integers(-3, 3).map(ast.ValueLeaf),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda c: ast.ValueLeaf(ComplexV(*c))),
    st.sampled_from(["x", "y", "z"]).map(ast.Ident),
)


@st.composite
def shared_redexes(draw):
    """A thunk whose body holds a product over a sum, or one that folds, at
    two places at least: nodes of sums, products and prefix minus are built
    from a pool of earlier ones, and the body is the sum or product of two
    that hold it. The tree it unfolds to has at most 64 leaves."""
    redex = ast.Infix("*", ast.Infix("+", draw(FOLDING_LEAVES),
                                     draw(FOLDING_LEAVES)),
                      draw(FOLDING_LEAVES))
    pool = [redex, draw(FOLDING_LEAVES)]
    holders = [redex]  # the nodes of the pool that hold the redex
    held = {id(redex)}
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["*", "+", "neg"]))
        picks = [pool[-1 - draw(st.integers(0, len(pool) - 1))]
                 for _ in range(1 if kind == "neg" else 2)]
        if kind == "neg":
            node = ast.Prefix("-", *picks)
        else:
            node = ast.Infix(kind, *picks)
        if tree_leaves(node) <= 32:
            pool.append(node)
            if any(id(pick) in held for pick in picks):
                holders.append(node)
                held.add(id(node))
    first, second = (holders[draw(st.integers(0, len(holders) - 1))]
                     for _ in range(2))
    return over_free(ast.Infix(draw(st.sampled_from("+*")), first, second))


def normal_text_or_error(v, max_steps, traced):
    """The text of the normal form, or the error raised."""
    lines, *result = outcome(simplify, v, max_steps, traced)
    return (render_value(result[0]),) if len(result) == 1 else tuple(result)


@settings(max_examples=300, deadline=None)
@given(shared_redexes())
# (1 + 2) * (x + y) takes two steps at each of its two places: with three
# steps allowed, the limit runs out inside the second, after its first step
@example(over_free(ast.Infix("+", *[ast.Infix(
    "*", ast.Infix("+", leaf(1), leaf(2)),
    ast.Infix("+", ast.Ident("x"), ast.Ident("y")))] * 2)))
def test_untraced_walk_matches_traced_on_shared_redexes(v):
    # the untraced walk rewrites a shared subterm once and counts its steps
    # at each place; the traced walk rewrites it at each place
    steps = len(outcome(simplify, v, 10_000, True)[0])
    assert steps > 0
    for max_steps in (0, 1, steps - 1, steps, steps + 1):
        assert normal_text_or_error(v, max_steps, False) \
            == normal_text_or_error(v, max_steps, True)


def expand_term(n: int) -> ThunkV:
    """``(x0 + ... + x{n-1}) * (y0 + ... + y{n-1})``"""
    def total(prefix):
        return reduce(partial(ast.Infix, "+"),
                      [ast.Ident(f"{prefix}{k}") for k in range(n)])
    return over_free(ast.Infix("*", total("x"), total("y")))


def test_traced_expand_family_matches_restarting_oracle():
    for n in range(2, 9):
        v = expand_term(n)
        expected = outcome(oracle_simplify, v, 10_000, True)
        assert outcome(simplify, v, 10_000, True) == expected
        assert len(expected[0]) == n * n - 1


def test_overflow_example_fails_after_two_steps():
    lines, error, _ = outcome(simplify, overflow_after_a_step(), 10_000, True)
    assert error is RegisterOverflow
    assert [line.split(" + x2")[0] for line in lines] \
        == ["2 * x + 1 * 2", "2 * x + 2"]


def test_untraced_overflow_example_fails_after_two_steps():
    # the overflowing fold is the third root rewrite: with two steps
    # allowed it raises its own error, with one the budget runs out first
    v = overflow_after_a_step()
    traced = outcome(simplify, v, 10_000, True)[1:]
    assert outcome(simplify, v, 10_000, False) == ([], *traced)
    assert outcome(simplify, v, 2, False)[1] is RegisterOverflow
    assert outcome(simplify, v, 1, False)[1:] \
        == (RewriteLimitExceeded, "more than 1 rewrite steps")


# --- cost and depth ---

def test_expand_visits_linear_nodes(monkeypatch, tmp_path):
    # n*n - 1 steps, each trying the roots of the 3 nodes a distribution
    # makes, plus one try per operator node of the input (3132 tries at
    # n = 32); a walk that visits B again after C*B + D*B takes 4 tries
    # per step
    n = 32
    xs = [f"x{k}" for k in range(n)]
    ys = [f"y{k}" for k in range(n)]
    script = tmp_path / "expand.psi"
    script.write_text(f"var {', '.join(xs + ys)} : Algebra;\n"
                      f"print(simplify(({' + '.join(xs)}) * "
                      f"({' + '.join(ys)})));\n")
    tries = budget(7 * n * n // 2, algebra._root_rewrite)
    monkeypatch.setattr(algebra, "_root_rewrite", tries)
    out, err = io.StringIO(), io.StringIO()
    assert run_file(str(script), stdout=out, stderr=err) == 0, err.getvalue()
    printed = out.getvalue().strip().replace("(", "").replace(")", "")
    assert printed.split(" + ") == [f"{x}*{y}" for x in xs for y in ys]
    assert tries.calls > n * n  # each step is a try


def test_expand_makes_each_node_of_its_normal_form_once(monkeypatch):
    # the normal form holds n*n products and n*n - 1 sums, 2047 nodes at
    # n = 32; a walk that makes C*B at each distribution and then rebuilds
    # the sum around its normal form makes about 4*n*n
    n = 32
    v = expand_term(n)
    made = budget(2 * n * n - 1, ast.Infix.__init__)
    monkeypatch.setattr(ast.Infix, "__init__", made)
    result = simplify(v)
    monkeypatch.undo()
    assert made.calls == 2 * n * n - 1
    printed = render_value(result).replace("(", "").replace(")", "")
    assert printed.split(" + ") \
        == [f"x{a}*y{b}" for a in range(n) for b in range(n)]


def test_normal_shared_dag_is_walked_once(monkeypatch, tmp_path):
    # a_k := a_{k-1} * a_{k-1} has k + 3 nodes and no redex, but unfolds
    # to a tree of 2^(k+2) - 1 nodes; each distinct product is tried once
    # (k + 1 tries)
    k = 12
    script = tmp_path / "doubling.psi"
    script.write_text("var x, y : Algebra;\na0 := x * y;\n"
                      + "".join(f"a{j} := a{j - 1} * a{j - 1};\n"
                                for j in range(1, k + 1))
                      + f"b := simplify(a{k}); print(1);\n")
    tries = budget(k + 3, algebra._root_rewrite)
    monkeypatch.setattr(algebra, "_root_rewrite", tries)
    out, err = io.StringIO(), io.StringIO()
    assert run_file(str(script), stdout=out, stderr=err) == 0, err.getvalue()
    assert out.getvalue() == "1\n"
    assert tries.calls >= k + 1


def doubling(k: int) -> ThunkV:
    """``a0 := (x + y) * z; a{j+1} := a{j} + a{j};``, ``a{k}``: k + 4
    nodes, and 2^k places of ``a0``, which takes a step at each"""
    x, y, z = map(ast.Ident, "xyz")
    a = ast.Infix("*", ast.Infix("+", x, y), z)
    for _ in range(k):
        a = ast.Infix("+", a, a)
    return over_free(a)


def test_shared_non_normal_dag_is_rewritten_once(monkeypatch):
    # each distinct node is walked once: a0 takes 5 root tries, and each
    # sum above it 1, so 11 at k = 6 and 17 at k = 12. A walk that rewrites
    # a0 again at each of its 2^k places tries 5 * 2^k roots
    def tries(k, limit):
        counted = budget(limit, algebra._root_rewrite)
        monkeypatch.setattr(algebra, "_root_rewrite", counted)
        result = simplify(doubling(k))
        monkeypatch.undo()
        text = "x*z + y*z"
        for _ in range(k):
            text = f"{text} + ({text})"
        assert render_value(result) == text
        return counted.calls

    small = tries(6, 10_000)
    assert tries(12, int(2.2 * small)) <= 2.2 * small


def traced_expand(monkeypatch, n, patches):
    """Simplify the expand of ``n`` traced, with ``patches`` (module,
    name, replacement) applied while it runs, and check its trace."""
    v = expand_term(n)
    for module, name, replacement in patches:
        monkeypatch.setattr(module, name, replacement)
    lines = []
    result = simplify(v, trace=lambda line: lines.append(len(line)))
    monkeypatch.undo()
    assert len(lines) == n * n - 1
    assert lines[-1] == len(render_value(result, spaced=True))


def test_traced_expand_renders_linear_nodes(monkeypatch):
    # each step renders the few nodes it makes and splices them into the
    # line: O(1) frames plus the printed line. Rendering the rebuilt path
    # from the root instead costs O(depth) nodes a step, about n. The
    # renderer calls layout once per operator node it makes: the new sum
    # and its two products, 3 a step (3069 calls at n = 32), and never on
    # the input, which is rendered whole. Laying out the y-sum again at
    # each row, or each frame's node again at each step, costs more
    n = 32
    steps, input_nodes = n * n - 1, 4 * n
    layout = budget(4 * steps + input_nodes, pretty.layout)
    traced_expand(monkeypatch, n, [(pretty, "layout", layout),
                                   (algebra, "layout", layout)])


def test_traced_expand_lays_out_no_input_node_and_renders_the_input_once(
        monkeypatch):
    # a step lays out only the nodes it made and slices its operands' texts
    # out of the line: no input node goes through layout, and the input is
    # rendered whole once, at the first step, not again at each row, where
    # the y-sum is a factor of every product
    n = 16
    v = expand_term(n)
    inputs, pending = set(), [v.body]
    while pending:
        e = pending.pop()
        inputs.add(id(e))
        if type(e) is ast.Infix:
            pending += (e.lhs, e.rhs)
    laid_out, rendered = [], []
    render_layout, render_whole = pretty.layout, pretty.expr_text

    def layout(e, *args):
        if id(e) in inputs:
            laid_out.append(e)
        return render_layout(e, *args)

    def expr_text(e, *args):
        rendered.append(e)
        return render_whole(e, *args)

    for module in (pretty, algebra):
        monkeypatch.setattr(module, "layout", layout)
        monkeypatch.setattr(module, "expr_text", expr_text)
    lines = []
    simplify(v, trace=lines.append)
    monkeypatch.undo()
    assert len(lines) == n * n - 1
    assert laid_out == []
    assert rendered == [v.body]


def test_traced_expand_finds_amortised_constant_offsets(monkeypatch):
    # where a node's text starts in the line is found when its frame is
    # pushed, from the frame above, and where a step's new text starts,
    # from the innermost frame (1084 offsets at n = 32); finding every
    # frame's start again from the root at each step costs about n
    # offsets a step. Frames pushed: the 2n - 1 operator nodes of the input
    # and one sum a step
    n = 32
    steps = n * n - 1
    frames_pushed = 2 * n - 1 + steps
    offsets = budget(steps + frames_pushed, algebra._offset)
    traced_expand(monkeypatch, n, [(algebra, "_offset", offsets)])
    assert offsets.calls > steps


def test_traced_expand_renders_each_input_node_whole_once_at_most(
        monkeypatch):
    # a step lays out its new nodes from texts sliced out of the line, so
    # the renderer of whole subtrees runs only on input nodes, and at most
    # once for each: at most 4n times for the 4n - 1 nodes of the input
    # (once here, the whole input at the first step). Rendering the new
    # subterm and a frame's other operand through a render memo at each
    # step enters it twice a step
    n = 32
    renders = budget(4 * n, pretty.expr_text)
    traced_expand(monkeypatch, n, [(pretty, "expr_text", renders),
                                   (algebra, "expr_text", renders)])
    assert renders.calls > 0


def test_traced_left_deep_chain_holds_text_linear_in_its_line():
    # (x + ... + x) * y distributes down the chain: the walk holds the
    # line and records of lengths, not the text of every prefix of the
    # chain. 1.53 MB measured with 1500 sums (Python 3.11) when the walk
    # held the texts beside the path, 1.55 MB with records; keeping each
    # prefix's text, as a render memo does, peaks at 5.91 MB
    sums = 1500
    x, y = ast.Ident("x"), ast.Ident("y")
    v = over_free(ast.Infix("*", reduce(partial(ast.Infix, "+"),
                                        [x] * (sums + 1)), y))
    lines = []
    tracemalloc.start()
    try:
        simplify(v, trace=lambda line: lines.append(len(line)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lines) == sums
    assert peak <= 1.25 * 1.53e6


def test_traced_shared_factor_holds_memory_linear_in_its_terms():
    # (a + b) * (y + ... + y) distributes over the m terms of a sum that
    # every product of a row shares: the walk holds records of lengths,
    # O(m), and slices a factor's text out of the line when a step needs
    # it. Holding each cut prefix of the shared sum's text peaks at O(m^2):
    # 3.20 and 10.47 MB for m = 1000 and 2000 (Python 3.11), 3.3x; 1.48 and
    # 2.96 MB with records
    def peak(m):
        a, b, y = ast.Ident("a"), ast.Ident("b"), ast.Ident("y")
        v = over_free(ast.Infix("*", ast.Infix("+", a, b), reduce(
            partial(ast.Infix, "+"), [y] * m)))
        lines = []
        tracemalloc.start()
        try:
            simplify(v, trace=lambda line: lines.append(len(line)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lines) == 2 * m - 1
        return peak

    small, large = peak(1000), peak(2000)
    assert large <= 2.5 * small
    assert large <= 1.5 * 2.96e6


def test_body_deeper_than_the_recursion_limit_simplifies(tmp_path):
    script = tmp_path / "deep.psi"
    script.write_text("var x, y : Algebra;\na := x;\n"
                      + "a := a + x;\n" * 1500
                      + "b := simplify(a * y); print(1);\n")
    out, err = io.StringIO(), io.StringIO()
    assert run_file(str(script), stdout=out, stderr=err) == 0, err.getvalue()
    assert out.getvalue() == "1\n"


DEEP = 1500  # beyond the default recursion limit of 1000


def right_distribution():
    # y * (x + ... + x) distributes on the right at each of its steps
    x, y = ast.Ident("x"), ast.Ident("y")
    total = reduce(partial(ast.Infix, "+"), [x] * DEEP)
    return (over_free(ast.Infix("*", y, total)), DEEP - 1,
            " + ".join(["y*x"] * DEEP))


def negations_over(inner: ast.Expr) -> ThunkV:
    return over_free(reduce(lambda e, _: ast.Prefix("-", e), range(DEEP),
                            inner))


def remade_negations():
    # the fold below remakes each prefix minus above it
    x, three = ast.Ident("x"), ast.Infix("+", leaf(1), leaf(2))
    return (negations_over(ast.Infix("*", x, three)), 1,
            "-" * DEEP + "(3*x)")


def folded_negations():
    # the fold's result folds again at each prefix minus
    return negations_over(ast.Infix("+", leaf(1), leaf(2))), DEEP + 1, "3"


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("case", [right_distribution, remade_negations,
                                  folded_negations])
def test_deep_body_simplifies_in_both_walks(case, traced):
    v, steps, printed = case()
    lines = []
    result = simplify(v, trace=lines.append if traced else None)
    assert render_value(result) == printed
    if traced:
        assert len(lines) == steps
        assert lines[-1] == render_value(result, spaced=True)
