"""Property test: the parser on random text over the grammar's alphabet either
returns an expression or raises ExpressionSyntaxError, and nothing else."""

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
