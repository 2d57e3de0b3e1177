"""Property tests: the Taylor table against symbolic mixed partials on random
expressions, and the series product against the product that skips no
component."""

import math
import struct
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from implicit_deriv.expressions import (  # noqa: E402
    BinaryOp,
    FunctionCall,
    Negate,
    Number,
    Power,
    Variable,
    _accumulate,
    _series_mul,
    taylor_coefficients,
)

from oracles import symbolic_table  # noqa: E402

# Generic points: no small-integer combination of them is exactly zero, so a
# zero divisor or log/sqrt argument can only come from structural
# cancellation, which both paths see alike.
POINTS = (-1.37, -0.52, 0.29, 0.83, 1.21, 1.64)
DOMAIN_ERRORS = (ValueError, ArithmeticError)
LEAVES = st.one_of(
    st.sampled_from([Variable("x"), Variable("y")]),
    st.integers(-3, 3).map(lambda k: Number(Fraction(k, 2))),
)


def _extend(children):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/"), children, children),
        st.builds(Negate, children),
        st.builds(Power, children, st.integers(-3, 4)),
        # log and sqrt at a positive argument, the others at any
        st.builds(FunctionCall, st.sampled_from(["exp", "sin", "cos"]), children),
        st.builds(
            lambda name, u: FunctionCall(name, BinaryOp("+", Number(Fraction(1)), Power(u, 2))),
            st.sampled_from(["log", "sqrt"]),
            children,
        ),
        # or at a constant, 0 included: sqrt(0) is legal, log(0) is not
        st.builds(
            FunctionCall,
            st.sampled_from(["log", "sqrt"]),
            st.integers(0, 3).map(lambda k: Number(Fraction(k, 2))),
        ),
    )


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(EXPRESSIONS, st.sampled_from(POINTS), st.sampled_from(POINTS), st.integers(1, 4))
def test_taylor_table_matches_symbolic_partials(e, x0, y0, n):
    try:
        symbolic = symbolic_table(e, x0, y0, n)
    except DOMAIN_ERRORS as exc:
        with pytest.raises(type(exc)):
            taylor_coefficients(e, x0, y0, n)
        return
    scale = max(abs(v) for v in symbolic.values())
    assume(math.isfinite(scale) and scale < 1e8)
    series = taylor_coefficients(e, x0, y0, n)
    for (i, j), expected in symbolic.items():
        value = math.factorial(i) * math.factorial(j) * series[i + j][j]
        assert math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-11 * max(scale, 1.0)), (
            (i, j), value, expected,
        )


def _unskipped_mul(a, b):
    # The product with no component skipped: every a_p b_q with p + q <= n.
    n = len(a) - 1
    out = [[0.0] * (k + 1) for k in range(n + 1)]
    for p in range(n + 1):
        for q in range(n + 1 - p):
            _accumulate(out[p + q], a[p], b[q], 1.0)
    return out


def _bits(series):
    return [struct.pack("<d", v) for component in series for v in component]


# Entries are zeros of either sign, inf, nan or any float, each as often,
# so that whole components vanish and the non-finite entries are common.
ZEROS = st.sampled_from([0.0, -0.0])
ENTRIES = st.one_of(
    ZEROS,
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _series(draw, n):
    # a series of order n whose components above a drawn degree vanish
    degree = draw(st.integers(-1, n))
    return [
        [draw(ENTRIES if k <= degree else ZEROS) for _ in range(k + 1)]
        for k in range(n + 1)
    ]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(_series(n), _series(n))))
def test_series_product_equals_the_unskipped_product_bitwise(pair):
    # Skipping either factor's vanishing top components changes no bit of
    # the product: not a signed zero, not a nan.
    a, b = pair
    assert _bits(_series_mul(a, b)) == _bits(_unskipped_mul(a, b))
