"""Property tests of the parser: on random text over the grammar's alphabet
it either returns an expression or raises ExpressionSyntaxError, and nothing
else; and a random tree, printed, parses back to itself."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from implicit_deriv.expressions import (  # noqa: E402
    FUNCTIONS,
    MAX_NESTING,
    BinaryOp,
    ExpressionSyntaxError,
    FunctionCall,
    Negate,
    Number,
    Power,
    Variable,
    parse_expression,
)

TOKENS = [*"0123456789.eE", "x", "y", *FUNCTIONS, *"+-*/^()", " "]
TEXT = st.lists(st.sampled_from(TOKENS), max_size=60).map("".join)
# Deep prefixes reach the nesting cap, which short random text rarely does.
NESTED = st.builds(
    lambda opener, depth, body: opener * depth + body,
    st.sampled_from(["(", "-", "sin(", "-("]),
    st.integers(0, 10 * MAX_NESTING),
    TEXT,
)
EXPRESSION_TYPES = (Number, Variable, BinaryOp, Power, Negate, FunctionCall)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(TEXT, NESTED))
def test_parser_returns_an_expression_or_a_syntax_error(text):
    try:
        tree = parse_expression(text)
    except ExpressionSyntaxError as exc:
        assert 0 <= exc.position <= len(text)
        return
    assert isinstance(tree, EXPRESSION_TYPES)


LEAVES = st.one_of(
    st.sampled_from([Variable("x"), Variable("y")]),
    st.integers(0, 6).map(lambda k: Number(Fraction(k, 2))),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/"), children, children),
        st.builds(Negate, children),
        st.builds(Power, children, st.integers(-3, 4)),
        st.builds(FunctionCall, st.sampled_from(FUNCTIONS), children),
    ),
    max_leaves=12,
)
# How tightly each node binds: a sum 0, a product 1, a factor ("-" or "^")
# and an atom.
FACTOR, ATOM = 2, 3


def _strength(tree):
    if isinstance(tree, BinaryOp):
        return 0 if tree.op in "+-" else 1
    return FACTOR if isinstance(tree, (Negate, Power)) else ATOM


def _tokens(tree, weakest=0):
    """The tokens of `tree`, in parentheses only if it binds less tightly
    than `weakest`, the weakest node its place in the parent admits."""
    if _strength(tree) < weakest:
        return ["(", *_tokens(tree), ")"]
    if isinstance(tree, Variable):
        return [tree.name]
    if isinstance(tree, Number):
        value = tree.value
        return [str(value.numerator if value.denominator == 1 else float(value))]
    if isinstance(tree, Negate):
        return ["-", *_tokens(tree.operand, FACTOR)]
    if isinstance(tree, Power):
        return [*_tokens(tree.base, ATOM), "^", str(tree.exponent)]
    if isinstance(tree, FunctionCall):
        return [tree.name, "(", *_tokens(tree.argument), ")"]
    # left-associative: a right operand of the same level needs parentheses
    level = _strength(tree)
    return [*_tokens(tree.left, level), tree.op, *_tokens(tree.right, level + 1)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(TREES, st.data())
def test_printed_tree_parses_back_to_itself(tree, data):
    space = st.sampled_from(["", " ", "  "])
    text = "".join(data.draw(space) + token for token in [*_tokens(tree), ""])
    assert parse_expression(text) == tree
