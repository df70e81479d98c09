"""The renderer against the recursive renderer it replaced, kept here as
the oracle, on random trees and DAGs of every expression kind and on
long left-deep chains: the pre-order emitter behind ``render_expr``,
``render_value`` and ``expr_text``, and the layout of one node that a
trace step makes, with its twin from lengths."""

import tracemalloc
from functools import partial, reduce

from hypothesis import example, given, settings, strategies as st

from psipp import ast
from psipp.algebra import simplify
from psipp.ast import (INFIX_LEVELS, LEVEL_ADD, LEVEL_ATOM, LEVEL_MUL,
                       LEVEL_PREFIX)
from psipp.monomials import MonomialRegister
from psipp.pretty import (_int_text, _value_text, expr_text, extent, layout,
                          render_expr, render_value)
from psipp.values import FAIL, ComplexV, FreeVarV, RegisterV

from test_rewriter import expand_term


# --- the oracle: the recursive renderer, one Python frame per level ---

def oracle_is_scalar_leaf(e):
    return isinstance(e, ast.ValueLeaf) and type(e.value) in (int, ComplexV)


def oracle_wrap(child, min_level):
    text, level = child
    return f"({text})" if level < min_level else text


def oracle_layout(e, kids, texts, spaced):
    if not isinstance(e, ast.Infix):
        return f"-{oracle_wrap(texts[0], LEVEL_PREFIX)}", LEVEL_PREFIX
    lhs, rhs = texts
    level = INFIX_LEVELS[e.op]
    if level == LEVEL_MUL:
        if (oracle_is_scalar_leaf(kids[1])
                and not oracle_is_scalar_leaf(kids[0])):
            lhs, rhs = rhs, lhs
        sep = " * " if spaced else "*"
        return (f"{oracle_wrap(lhs, level)}{sep}"
                f"{oracle_wrap(rhs, level + 1)}"), level
    left_min = level if level == LEVEL_ADD else level + 1
    return (f"{oracle_wrap(lhs, left_min)} {e.op} "
            f"{oracle_wrap(rhs, level + 1)}"), level


def oracle_expr_text(e, spaced, memo=None):
    if memo is None:
        return oracle_node_text(e, spaced, None)
    if id(e) not in memo:
        memo[id(e)] = (e, *oracle_node_text(e, spaced, memo))
    return memo[id(e)][1:]


def oracle_node_text(e, spaced, memo):
    if isinstance(e, ast.Infix):
        lhs = oracle_expr_text(e.lhs, spaced, memo)
        rhs = oracle_expr_text(e.rhs, spaced, memo)
        return oracle_layout(e, (e.lhs, e.rhs), (lhs, rhs), spaced)
    if isinstance(e, ast.ValueLeaf):
        return _value_text(e.value)
    if isinstance(e, ast.IntLit):
        return _int_text(e.value), LEVEL_ATOM
    if isinstance(e, ast.Ident):
        return e.name, LEVEL_ATOM
    if isinstance(e, ast.FailLit):
        return "fail", LEVEL_ATOM
    if isinstance(e, ast.Prefix):
        return oracle_layout(e, (e.operand,),
                             (oracle_expr_text(e.operand, spaced, memo),),
                             spaced)
    if isinstance(e, ast.Call):
        args = ", ".join(oracle_expr_text(a, spaced, memo)[0] for a in e.args)
        return f"{e.name}({args})", LEVEL_ATOM
    if isinstance(e, ast.FieldAccess):
        obj = oracle_wrap(oracle_expr_text(e.obj, spaced, memo), LEVEL_ATOM)
        return f"{obj}.{e.field}", LEVEL_ATOM
    if isinstance(e, ast.InheritedCall):
        inner = oracle_expr_text(e.expr, spaced, memo)[0]
        return f"{e.ancestor}.({inner})", LEVEL_ATOM
    first = oracle_expr_text(e.first, spaced, memo)[0]
    second = oracle_expr_text(e.second, spaced, memo)[0]
    return f"({first}, {second})", LEVEL_ATOM


# --- random expressions ---

registers = [(0, 0, 0, 0), (0, 1, 0, 0), (1, 2, 0, 1), (2, 2, 1, 3)]
# 0 and ±1 are the parts the complex text special-cases
parts = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-20, 20))
values = st.one_of(
    st.integers(-20, 20),
    st.builds(ComplexV, parts, parts),
    st.sampled_from([RegisterV(MonomialRegister(*r)) for r in registers]),
    st.builds(FreeVarV, st.sampled_from(["x", "y"])),
    st.just(FAIL))
names = st.sampled_from(["x", "y", "Re", "f"])
leaves = st.one_of(
    st.builds(ast.IntLit, st.integers(0, 20)),
    st.builds(ast.Ident, names),
    st.builds(ast.FailLit),
    st.builds(ast.ValueLeaf, values))


@st.composite
def dags(draw):
    """An expression whose operands are drawn from the nodes built before
    it, so a node can be the operand of several others. At most 16 nodes:
    a chain of doublings unfolds to 2^16 leaves."""
    pool = [draw(leaves)]

    def node():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["leaf", "infix", "infix", "infix",
                                     "prefix", "call", "field", "inherited",
                                     "pair"]))
        if kind == "leaf":
            pool.append(draw(leaves))
        elif kind == "infix":
            op = draw(st.sampled_from(sorted(INFIX_LEVELS)))
            pool.append(ast.Infix(op, node(), node()))
        elif kind == "prefix":
            pool.append(ast.Prefix("-", node()))
        elif kind == "call":
            args = tuple(node() for _ in range(draw(st.integers(0, 3))))
            pool.append(ast.Call(draw(names), args))
        elif kind == "field":
            pool.append(ast.FieldAccess(node(), draw(names)))
        elif kind == "inherited":
            pool.append(ast.InheritedCall("Complex", node()))
        else:
            pool.append(ast.PairLit(node(), node()))
    return pool[-1], pool


def leaf_operands(test):
    """``test`` with examples, in both spacings, of nodes that the emitter
    writes with their leaf operands in one step: a scalar on the right of
    ``*``, which prints first and in parentheses; a leaf left of a right
    operand that is no leaf and prints in parentheses; prefix minus over a
    product."""
    x, y = ast.Ident("x"), ast.Ident("y")
    roots = (ast.Infix("*", x, ast.ValueLeaf(ComplexV(1, 2))),
             ast.Infix("-", x, ast.Infix("+", ast.Infix("*", x, y), y)),
             ast.Prefix("-", ast.Infix("*", x, y)))
    for root in roots:
        for spaced in (False, True):
            test = example((root, [root]), spaced)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=400)
@given(dags(), st.booleans())
@leaf_operands
def test_renderer_matches_the_recursive_oracle(dag, spaced):
    root, _ = dag
    assert render_expr(root, spaced) == oracle_expr_text(root, spaced)[0]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(dags(), st.booleans())
@leaf_operands
def test_whole_text_and_level_match_the_recursive_oracle(dag, spaced):
    root, _ = dag
    assert expr_text(root, spaced) == oracle_expr_text(root, spaced)


# --- left-deep chains: the spines the emitter walks in one pass ---

two_names = st.builds(ast.Infix, st.sampled_from(sorted(INFIX_LEVELS)),
                      st.builds(ast.Ident, names), st.builds(ast.Ident, names))
scalars = st.builds(ast.ValueLeaf,
                    st.one_of(st.integers(-20, 20),
                              st.builds(ComplexV, parts, parts)))
# small operands, among them a product whose scalar prints first
operands = st.one_of(
    leaves, two_names,
    st.builds(ast.Infix, st.just("*"), st.builds(ast.Ident, names), scalars),
    st.builds(ast.Infix, st.sampled_from(["+", "-"]), two_names, leaves),
    st.builds(ast.Prefix, st.just("-"), st.one_of(leaves, two_names)))


@st.composite
def chains(draw):
    """A left-deep chain of 1 to 60 ``+``, ``-`` and ``*`` nodes over
    small operands: a sum on the right prints in parentheses, and so does
    a sum left of a product; a scalar on the right of a product prints
    first."""
    root = draw(operands)
    for _ in range(draw(st.integers(1, 60))):
        root = ast.Infix(draw(st.sampled_from(["+", "-", "*"])), root,
                         draw(operands))
    return root


def chain(*links):
    """The left-deep chain of ``links``: its first operand, then pairs of
    an operator and a right operand."""
    root = links[0]
    for op, operand in zip(links[1::2], links[2::2]):
        root = ast.Infix(op, root, operand)
    return root


def chain_shapes(test):
    """``test`` with one chain of each shape, in both spacings, and the
    normal form of an expansion: rows of products, summed."""
    x, y = ast.Ident("x"), ast.Ident("y")
    xy = ast.Infix("*", x, y)
    gaussian = ast.ValueLeaf(ComplexV(1, 2))
    roots = (chain(xy, "+", xy, "-", xy, "*", y),
             chain(ast.Infix("*", x, ast.ValueLeaf(2)), "+",
                   ast.Infix("*", y, ast.ValueLeaf(-3)), "*",
                   ast.ValueLeaf(4)),
             chain(x, "+", ast.Infix("+", x, y), "-", ast.Infix("-", xy, y),
                   "*", ast.Infix("+", y, x)),
             chain(ast.Infix("+", x, y), "*", x, "*", xy, "-", y),
             chain(ast.Prefix("-", x), "+", ast.Prefix("-", xy), "*",
                   ast.Prefix("-", ast.Prefix("-", y))),
             chain(ast.Infix("*", gaussian, x), "+",
                   ast.Infix("*", x, gaussian), "*", gaussian),
             chain(ast.ValueLeaf(-1), "*", ast.ValueLeaf(FreeVarV("x")), "+",
                   ast.ValueLeaf(RegisterV(MonomialRegister(1, 2, 0, 1))),
                   "-", ast.ValueLeaf(FAIL), "*",
                   ast.ValueLeaf(ComplexV(0, -1))),
             simplify(expand_term(5)).body)
    for root in roots:
        for spaced in (False, True):
            test = example(root, spaced)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=300)
@given(chains(), st.booleans())
@chain_shapes
def test_a_long_spine_matches_the_recursive_oracle(root, spaced):
    expected = oracle_expr_text(root, spaced)
    assert render_expr(root, spaced) == expected[0]
    assert expr_text(root, spaced) == expected


@settings(derandomize=True, deadline=None, max_examples=400)
@given(dags())
def test_layout_and_its_twin_match_the_recursive_oracle(dag):
    # a trace step lays out a node it made from its operands' texts, and
    # slices an operand's text out of its parent's where extent, from
    # lengths, says it starts: parentheses, separator and scalar-first
    # swap as the oracle lays them
    _, pool = dag
    for node in pool:
        if isinstance(node, (ast.Infix, ast.Prefix)):
            text, level = oracle_expr_text(node, True)
            kids = ast.operands(node)
            texts = [oracle_expr_text(kid, True) for kid in kids]
            sizes = [(len(kid_text), kid_level)
                     for kid_text, kid_level in texts]
            length, twin_level, *offsets = extent(node, kids, sizes)
            assert (length, twin_level) == (len(text), level)
            assert [text[at:at + len(kid_text)] for at, (kid_text, _) in
                    zip(offsets, texts)] == [kid_text for kid_text, _ in texts]
            if isinstance(node, ast.Infix):
                assert layout(node, kids, texts) == (text, level, *offsets)


def test_emitter_memory_stays_near_the_text():
    # pieces are joined into chunks as they come, so no list holds a
    # pointer for every few characters of text: a memoised post-order
    # renderer peaks at about 2x the text, one flat list of pieces at 4.4x
    result = simplify(expand_term(64))
    render_value(result)  # so that no one-time allocation is counted
    tracemalloc.start()
    try:
        text = render_value(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text) + 4096


def test_emitter_memory_stays_near_the_text_of_a_flat_chain():
    # one spine of 3000 sums: the emitter pops each node as it writes it,
    # so the pointers it holds for the spine shrink as the text grows
    result = reduce(partial(ast.Infix, "+"),
                    [ast.Infix("*", ast.Ident(f"x{k}"), ast.Ident(f"y{k}"))
                     for k in range(3000)])
    render_expr(result)
    tracemalloc.start()
    try:
        text = render_expr(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == 39_777
    assert peak <= 2.5 * len(text) + 4096
