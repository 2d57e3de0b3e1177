import math
from fractions import Fraction

import pytest

from implicit_deriv import (
    ConvergenceError,
    EvalConfig,
    SingularPointError,
    derivative_table,
    evaluate_formula,
    finite_difference_check,
    implicit_solve,
    parse_expression,
    required_derivatives,
)
from implicit_deriv.expressions import taylor_coefficients
from implicit_deriv.numeric import _central_weights

from oracles import symbolic_table

LOG_CURVE = parse_expression("x-exp(y)")  # y = log(x)
CIRCLE = parse_expression("x^2+y^2-1")


class TestEvalConfig:
    def test_defaults(self):
        config = EvalConfig()
        assert config.singular_tolerance == 1e-12
        assert config.newton_tolerance == 1e-13
        assert config.newton_max_iter == 64
        assert config.fd_step == 1e-3

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            EvalConfig(fd_step=0.0)
        with pytest.raises(ValueError):
            EvalConfig(singular_tolerance=-1e-9)


class TestDerivativeTable:
    def test_log_curve_entries(self):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, 2)
        assert table.entries == {
            (1, 0): 1.0,
            (0, 1): -1.0,
            (2, 0): 0.0,
            (1, 1): 0.0,
            (0, 2): -1.0,
        }

    def test_circle_entries(self):
        table = derivative_table(CIRCLE, 0.0, 1.0, 2)
        assert table.entries == {
            (1, 0): 0.0,
            (0, 1): 2.0,
            (2, 0): 2.0,
            (1, 1): 0.0,
            (0, 2): 2.0,
        }

    @pytest.mark.parametrize("n", range(1, 7))
    def test_covers_required_derivatives(self, n):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, n)
        assert set(table.entries) == required_derivatives(n)

    def test_vertical_tangent_rejected(self):
        with pytest.raises(SingularPointError):
            derivative_table(CIRCLE, 1.0, 0.0, 2)

    def test_off_curve_point_warns(self):
        with pytest.warns(UserWarning, match="not on the curve"):
            derivative_table(CIRCLE, 0.5, 1.0, 1)

    def test_near_curve_point_passes_quietly(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derivative_table(CIRCLE, 0.0, 1.0 + 1e-10, 1)

    def test_missing_entry_is_reported(self):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, 1)
        with pytest.raises(KeyError):
            table[(5, 5)]


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
        assert set(table.entries) == required_derivatives(n)
        _assert_tables_close(table.entries, symbolic_table(e, x0, y0, n))

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
        for (i, j), value in table.entries.items():
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

    def test_singular_table_rejected(self):
        table = derivative_table(LOG_CURVE, 1.0, 0.0, 2)
        squashed = type(table)(x=table.x, y=table.y,
                               entries={**table.entries, (0, 1): 0.0})
        with pytest.raises(SingularPointError):
            evaluate_formula(2, squashed)


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
            weights, m = _central_weights(n)
            assert weights == expected
            assert len(weights) == 2 * m + 1

    def test_stencil_width(self):
        for n in range(1, 7):
            weights, m = _central_weights(n)
            assert m == math.ceil(n / 2)


class TestFiniteDifferenceCheck:
    def test_circle_second_derivative(self):
        check = finite_difference_check(CIRCLE, 0.0, 1.0, 2)
        assert check.formula_value == pytest.approx(-1.0, abs=1e-12)
        assert check.abs_diff < 1e-6

    def test_log_first_derivative(self):
        check = finite_difference_check(LOG_CURVE, 1.0, 0.0, 1)
        assert check.formula_value == pytest.approx(1.0, rel=1e-12)
        assert check.fd_value == pytest.approx(1.0, rel=1e-6)

    def test_log_third_derivative(self):
        check = finite_difference_check(LOG_CURVE, 1.0, 0.0, 3)
        assert check.formula_value == pytest.approx(2.0, rel=1e-9)
        assert check.abs_diff < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_curves_agree_at_low_orders(self, n):
        for curve, x0, y0 in [(CIRCLE, 0.0, 1.0), (LOG_CURVE, 1.0, 0.0)]:
            check = finite_difference_check(curve, x0, y0, n)
            assert check.abs_diff < 1e-4
