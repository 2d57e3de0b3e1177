import math
import warnings
from fractions import Fraction

import pytest

from implicit_deriv import (
    ConvergenceError,
    SingularPointError,
    build_formula,
    derivative_table,
    evaluate_formula,
    finite_difference_check,
    implicit_solve,
    parse_expression,
    required_derivatives,
)
from implicit_deriv.expressions import taylor_coefficients
from implicit_deriv import numeric
from implicit_deriv.numeric import _central_weights

from oracles import (
    counter_evaluate_formula,
    symbolic_table,
    term_loop_evaluate_formula,
)

LOG_CURVE = parse_expression("x-exp(y)")  # y = log(x)
CIRCLE = parse_expression("x^2+y^2-1")


class TestEvalConfig:
    def test_defaults(self):
        assert numeric.SINGULAR_TOLERANCE == 1e-12
        assert numeric.NEWTON_TOLERANCE == 1e-13
        assert numeric.NEWTON_MAX_ITER == 64
        assert numeric.FD_STEP == 1e-3
        assert numeric.MAX_EVAL_ORDER == 100


class TestDerivativeTable:
    def test_log_curve_entries(self):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, 2)
        assert table == {
            (1, 0): 1.0,
            (0, 1): -1.0,
            (2, 0): 0.0,
            (1, 1): 0.0,
            (0, 2): -1.0,
        }

    def test_circle_entries(self):
        table = derivative_table(CIRCLE, 0.0, 1.0, 2)
        assert table == {
            (1, 0): 0.0,
            (0, 1): 2.0,
            (2, 0): 2.0,
            (1, 1): 0.0,
            (0, 2): 2.0,
        }

    @pytest.mark.parametrize("n", range(1, 7))
    def test_covers_required_derivatives(self, n):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, n)
        assert set(table) == required_derivatives(n)

    def test_vertical_tangent_rejected(self):
        with pytest.raises(SingularPointError):
            derivative_table(CIRCLE, 1.0, 0.0, 2)

    def test_off_curve_point_warns(self):
        with pytest.warns(UserWarning, match="not on the curve"):
            derivative_table(CIRCLE, 0.5, 1.0, 1)

    def test_near_curve_point_passes_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derivative_table(CIRCLE, 0.0, 1.0 + 1e-10, 1)

    def test_missing_entry_is_reported(self):
        # an order-1 table lacks the partials of order 2 and 3
        table = derivative_table(LOG_CURVE, 1.0, 0.0, 1)
        with pytest.raises(KeyError):
            evaluate_formula(3, table)


# Together these cover every node type (+ - * /, unary minus, ^ with positive,
# zero and negative exponents) and each of exp, log, sin, cos and sqrt.
ORACLE_CASES = [
    ("x^3*y-2*x*y^2+(x-y)^2-y/(1+x^2)", 1.3, 0.7),
    ("-(x*y)^0+x^-2*y+(y+2)^-3-(-x)", 1.3, 0.7),
    ("exp(x*y)-log(1+x^2+y^2)", 0.4, -0.6),
    ("sin(x-y)*cos(x*y)+sqrt(2+x*y)", 0.4, -0.6),
    ("x-exp(y)+sin(x*y)/(1+y^2)", 1.5, 0.7),
    ("sqrt(1+x^2+y^2)*cos(x-y)-log(2+x*y)", 0.5, -0.7),
]


def _assert_tables_close(taylor, symbolic):
    assert taylor.keys() <= symbolic.keys()
    for part, value in taylor.items():
        expected = symbolic[part]
        if expected == 0:
            assert value == pytest.approx(0.0, abs=1e-12), part
        else:
            assert value == pytest.approx(expected, rel=1e-10), part


class TestTaylorAgainstSymbolicPartials:
    """The one-pass Taylor table against symbolic mixed partials evaluated
    as trees (the path the table replaced)."""

    @pytest.mark.parametrize("text, x0, y0", ORACLE_CASES)
    def test_every_partial_through_order_six(self, text, x0, y0):
        e = parse_expression(text)
        series = taylor_coefficients(e, x0, y0, 6)
        taylor = {
            (i, j): math.factorial(i) * math.factorial(j) * series[i + j][j]
            for i in range(7)
            for j in range(7 - i)
        }
        _assert_tables_close(taylor, symbolic_table(e, x0, y0, 6))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.filterwarnings("ignore:.*not on the curve")
    def test_derivative_table_entries(self, n):
        text, x0, y0 = ORACLE_CASES[4]
        e = parse_expression(text)
        table = derivative_table(e, x0, y0, n)
        assert set(table) == required_derivatives(n)
        _assert_tables_close(table, symbolic_table(e, x0, y0, n))

    @pytest.mark.parametrize(
        "text, x0, y0, n, error",
        [("log(x)+y", -1.0, 0.0, 2, ValueError),
         ("sqrt(x)+y", 0.0, 0.0, 1, ZeroDivisionError),
         # arguments that vanish to an order above n are not constants
         ("y-sqrt(x^2)", 0.0, 0.0, 1, ZeroDivisionError),
         ("y-sqrt(x^4)", 0.0, 0.0, 2, ZeroDivisionError),
         ("1/(x-1)+y", 1.0, 0.0, 2, ZeroDivisionError),
         ("(x-1)^-1+y", 1.0, 0.0, 2, ZeroDivisionError),
         ("exp(1000*x)+y", 1.0, 0.0, 1, OverflowError)],
    )
    def test_domain_errors_match(self, text, x0, y0, n, error):
        e = parse_expression(text)
        with pytest.raises(error) as symbolic:
            symbolic_table(e, x0, y0, n)
        with pytest.raises(error) as taylor:
            derivative_table(e, x0, y0, n)
        assert type(taylor.value) is type(symbolic.value) is error


class TestEvaluateFormula:
    def test_log_second_derivative(self):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, 2)
        assert evaluate_formula(2, table) == pytest.approx(-1.0, rel=1e-12)

    def test_log_third_derivative(self):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, 3)
        assert evaluate_formula(3, table) == pytest.approx(2.0, rel=1e-12)

    def test_circle_second_and_fourth(self):
        table = derivative_table(CIRCLE, 0.0, 1.0, 4)
        assert evaluate_formula(2, table) == pytest.approx(-1.0, abs=1e-12)
        assert evaluate_formula(4, table) == pytest.approx(-3.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_log_curve_analytic_family(self, n):
        # y = log(x) at x = 1: the n-th derivative is (-1)^(n-1) (n-1)!
        table = derivative_table(LOG_CURVE, 1.0, 0.0, n)
        expected = (-1) ** (n - 1) * math.factorial(n - 1)
        assert evaluate_formula(n, table) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_explicit_polynomial_graph(self, n):
        # F = y - g(x) with polynomial g: the result is exactly g^(n),
        # since every mixed or pure-y partial vanishes and F_y = 1
        g_curve = parse_expression("y-(x^4-2*x^3+x-5)")
        x0 = 1.5
        y0 = x0**4 - 2 * x0**3 + x0 - 5
        table = derivative_table(g_curve, x0, y0, n)
        for (i, j), value in table.items():
            if j >= 1 and (i, j) != (0, 1):
                assert value == 0.0
        assert table[(0, 1)] == 1.0
        derivatives = {1: 4 * x0**3 - 6 * x0**2 + 1, 2: 12 * x0**2 - 12 * x0,
                       3: 24 * x0 - 12, 4: 24.0, 5: 0.0}
        assert evaluate_formula(n, table) == pytest.approx(derivatives[n], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scale", ["3", "-2", "0.125"])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_scaling_invariance(self, scale, n):
        # each term is degree-0 homogeneous in F, so c*F gives the same value
        scaled = parse_expression(f"{scale}*(x-exp(y))")
        base = derivative_table(LOG_CURVE, 1.0, 0.0, n)
        other = derivative_table(scaled, 1.0, 0.0, n)
        assert evaluate_formula(n, other) == pytest.approx(
            evaluate_formula(n, base), rel=1e-12
        )

    @pytest.mark.parametrize("text, x0, y_guess, n", [
        ("x^2+y^2-1", 0.6, 0.8, 12),
        ("x-exp(y)+sin(x*y)/(1+y^2)", 1.5, 0.7, 7),
    ])
    def test_bit_identical_to_counter_loop(self, text, x0, y_guess, n):
        # the two term-by-term oracles: runs of equal parts fold to the same
        # powers, in the same order, as a multiplicity Counter, so not one
        # rounding may differ
        e = parse_expression(text)
        table = derivative_table(e, x0, implicit_solve(e, x0, y_guess), n)
        assert term_loop_evaluate_formula(n, table) == counter_evaluate_formula(
            build_formula(n), table
        )

    def test_singular_table_rejected(self):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, 2)
        squashed = {**table, (0, 1): 0.0}
        with pytest.raises(SingularPointError):
            evaluate_formula(2, squashed)


def _quiet_table(text, x0, y0, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the points need not be on the curve
        return derivative_table(parse_expression(text), x0, y0, n)


def _exact_table(text, x0, y0, n):
    """The float derivative table, each entry converted exactly to a Fraction."""
    return {part: Fraction(value) for part, value in _quiet_table(text, x0, y0, n).items()}


def _sum_of_absolute_terms(n, table):
    """Sum of |term| over the expansion, term by term: on |F_ij| with
    F_y = -|F_y| every term (-1)^k w prod F / F_y^k is nonnegative."""
    magnitudes = {part: abs(value) for part, value in table.items()}
    magnitudes[(0, 1)] = -magnitudes[(0, 1)]
    return term_loop_evaluate_formula(n, magnitudes)


class TestExtractionAgainstTermLoop:
    """The coefficient extraction against the term-by-term sum it replaced
    (`oracles.term_loop_evaluate_formula`)."""

    @pytest.mark.parametrize("text, x0, y0", ORACLE_CASES)
    def test_exact_on_rational_tables(self, text, x0, y0):
        table = _exact_table(text, x0, y0, 10)
        for n in range(1, 11):
            assert evaluate_formula(n, table) == term_loop_evaluate_formula(n, table), n

    # on the other three ORACLE_CASES tables the terms cancel: there the
    # term-by-term float sum is off the exact value by up to 4.5e-10 for
    # n <= 10, the extraction by at most 4e-14
    @pytest.mark.parametrize("text, x0, y0", [
        ORACLE_CASES[1], ORACLE_CASES[2], ORACLE_CASES[4],
        ("x^2+y^2-1", 0.6, 0.8), ("x-exp(y)", 2.0, math.log(2.0)),
    ])
    def test_float_within_1e12_on_well_conditioned_curves(self, text, x0, y0):
        table = _quiet_table(text, x0, y0, 12)
        for n in range(1, 13):
            assert evaluate_formula(n, table) == pytest.approx(
                term_loop_evaluate_formula(n, table), rel=1e-12
            ), n

    @pytest.mark.parametrize("text, x0, y0", ORACLE_CASES)
    def test_rounding_bound_covers_the_float_error(self, text, x0, y0):
        # u * sum of |terms|, the bound the cancellation warning reads,
        # against the exact value of the same table; it is a first-order
        # estimate, so a few roundings at low orders may reach twice it
        exact = _exact_table(text, x0, y0, 10)
        floats = {part: float(value) for part, value in exact.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in range(1, 11):
                error = abs(evaluate_formula(n, floats) - evaluate_formula(n, exact))
                bound = float(_sum_of_absolute_terms(n, exact)) * 2.0**-53
                assert error <= 4 * bound, n


class TestCancellationWarning:
    CUBIC = parse_expression("y^3+y-x^3-x")  # y = x: every order >= 2 is 0

    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_cancelling_terms_warn(self, n):
        table = derivative_table(self.CUBIC, 0.5, 0.5, n)
        with pytest.warns(UserWarning, match="cancelling terms"):
            evaluate_formula(n, table)

    @pytest.mark.parametrize("text, x0, y_guess, n", [
        ("x-exp(y)+sin(x*y)/(1+y^2)", 1.5, 0.7, 7),
        ("sqrt(1+x^2+y^2)*cos(x-y)-log(2+x*y)", 0.0, 1.1, 6),
        ("x^2+y^2-1", 0.6, 0.8, 24),
        ("x-exp(y)", 2.0, 0.7, 30),
    ])
    def test_well_conditioned_values_pass_quietly(self, text, x0, y_guess, n):
        e = parse_expression(text)
        table = derivative_table(e, x0, implicit_solve(e, x0, y_guess), n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_formula(n, table)

    def test_structural_zeros_pass_quietly(self):
        # every term of order 5 is 0 on this graph: no terms, no cancellation
        e = parse_expression("y-(x^4-2*x^3+x-5)")
        table = derivative_table(e, 1.5, 1.5**4 - 2 * 1.5**3 + 1.5 - 5, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate_formula(5, table) == 0.0

    def test_exact_tables_do_not_warn(self):
        table = {part: Fraction(value) for part, value in
                 derivative_table(self.CUBIC, 0.5, 0.5, 8).items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate_formula(8, table) == 0


class TestImplicitSolve:
    def test_exact_root(self):
        assert implicit_solve(LOG_CURVE, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_circle_root(self):
        y = implicit_solve(CIRCLE, 0.1, 1.0)
        assert y == pytest.approx(math.sqrt(0.99), rel=1e-12)

    def test_no_real_root(self):
        with pytest.raises(ConvergenceError):
            implicit_solve(CIRCLE, 2.0, 1.0)

    def test_needs_no_x_derivative(self):
        # sqrt(x) has no x-derivative at 0, but F and F_y exist there
        assert implicit_solve(parse_expression("y-sqrt(x)"), 0.0, 0.5) == 0.0

    def test_derivative_underflow(self):
        # start exactly on the vertical tangent of the circle
        with pytest.raises(ConvergenceError, match="underflow"):
            implicit_solve(CIRCLE, 0.5, 0.0)


class TestCentralWeights:
    def test_known_stencils(self):
        for n, expected in [
            (1, [Fraction(-1, 2), 0, Fraction(1, 2)]),
            (2, [1, -2, 1]),
            (3, [Fraction(-1, 2), 1, 0, -1, Fraction(1, 2)]),
            (4, [1, -4, 6, -4, 1]),
        ]:
            doubled, m = _central_weights(n)
            assert [Fraction(w, 2) for w in doubled] == expected
            assert len(doubled) == 2 * m + 1

    def test_stencil_width(self):
        for n in range(1, 7):
            weights, m = _central_weights(n)
            assert m == math.ceil(n / 2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_moment_conditions(self, n):
        # the defining system: sum of w_k k^j is n! at j = n and 0 otherwise
        doubled, m = _central_weights(n)
        for j in range(2 * m + 1):
            moment = sum(w * k**j for w, k in zip(doubled, range(-m, m + 1)))
            assert moment == 2 * (math.factorial(n) if j == n else 0)


def _fd_check(curve, x0, y0, n):
    """The expansion's value at the point and the finite-difference estimate."""
    value = evaluate_formula(n, derivative_table(curve, x0, y0, n))
    return value, finite_difference_check(curve, x0, y0, n)


class TestFiniteDifferenceCheck:
    def test_circle_second_derivative(self):
        value, fd = _fd_check(CIRCLE, 0.0, 1.0, 2)
        assert value == pytest.approx(-1.0, abs=1e-12)
        assert abs(value - fd) < 1e-6

    def test_log_first_derivative(self):
        value, fd = _fd_check(LOG_CURVE, 1.0, 0.0, 1)
        assert value == pytest.approx(1.0, rel=1e-12)
        assert fd == pytest.approx(1.0, rel=1e-6)

    def test_log_third_derivative(self):
        value, fd = _fd_check(LOG_CURVE, 1.0, 0.0, 3)
        assert value == pytest.approx(2.0, rel=1e-9)
        assert abs(value - fd) < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_curves_agree_at_low_orders(self, n):
        for curve, x0, y0 in [(CIRCLE, 0.0, 1.0), (LOG_CURVE, 1.0, 0.0)]:
            value, fd = _fd_check(curve, x0, y0, n)
            assert abs(value - fd) < 1e-4

    @pytest.mark.parametrize(
        "curve, x0, y0, n, recorded",
        [
            (CIRCLE, 0.0, 1.0, 1, 0.0),
            (CIRCLE, 0.0, 1.0, 2, -1.0000002498289362),
            (CIRCLE, 0.0, 1.0, 3, 0.0),
            (LOG_CURVE, 1.0, 0.0, 1, 1.000000333333487),
            (LOG_CURVE, 1.0, 0.0, 2, -1.0000005000957575),
            (LOG_CURVE, 1.0, 0.0, 3, 2.0000060407723144),
        ],
        ids=["circle-1", "circle-2", "circle-3", "log-1", "log-2", "log-3"],
    )
    def test_stencil_value_is_the_recorded_one(self, curve, x0, y0, n, recorded):
        # the stencil values recorded (Python 3.11, built-in sum()) when the
        # check also returned the caller's formula value and the difference.
        # math.fsum, like sum() from Python 3.12 on, moves the circle's
        # n = 2 value by 1.1e-10 of itself, to -1.0000002499399585: rounding
        # of order 1e-16 in the stencil sum, divided by h^2 = 1e-6.  The
        # other five are unchanged.
        assert finite_difference_check(curve, x0, y0, n) == pytest.approx(recorded, rel=1e-9)
