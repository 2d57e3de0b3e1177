"""Property test: the coefficient extraction of `evaluate_formula` against
the term-by-term sum on random rational derivative tables, exactly."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from implicit_deriv import evaluate_formula, required_derivatives  # noqa: E402

from oracles import term_loop_evaluate_formula  # noqa: E402

# Zero entries are frequent so that sparse tables (polynomial curves, whose
# partials vanish above their degree) are drawn as well as dense ones.
ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)
NONZERO = st.builds(
    Fraction, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 5)
)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 10))
    table = {part: draw(ENTRIES) for part in sorted(required_derivatives(n))}
    table[(0, 1)] = draw(NONZERO)
    return n, table


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tables())
def test_extraction_equals_term_loop_exactly(drawn):
    n, table = drawn
    assert evaluate_formula(n, table) == term_loop_evaluate_formula(n, table)
