import math
import random
import struct
import sys
from fractions import Fraction

import pytest

import implicit_deriv.expressions as expressions
from implicit_deriv import ExpressionSyntaxError, parse_expression
from implicit_deriv._symbolic import _div, _pow
from implicit_deriv.expressions import (
    MAX_LITERAL_EXPONENT,
    MAX_NESTING,
    taylor_coefficients,
    differentiate,
    evaluate,
    mixed_partial,
    BinaryOp,
    FunctionCall,
    Negate,
    Number,
    Power,
    Variable,
)

from oracles import full_series_mul


class TestParser:
    def test_circle(self):
        tree = parse_expression("x^2+y^2-1")
        assert tree == BinaryOp(
            "-",
            BinaryOp("+", Power(Variable("x"), 2), Power(Variable("y"), 2)),
            Number(Fraction(1)),
        )

    def test_function_call(self):
        tree = parse_expression("x-exp(y)")
        assert tree == BinaryOp("-", Variable("x"), FunctionCall("exp", Variable("y")))

    def test_syntax_error_position(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("x-*y")
        assert info.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("x+tan(y)")
        assert info.value.position == 2

    def test_unknown_character(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("x + $")
        assert info.value.position == 4

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(x+y")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x+y)")

    def test_integer_exponent_required(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x^1.5")
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x^y")

    def test_negative_exponent(self):
        assert parse_expression("x^-2") == Power(Variable("x"), -2)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_expression("-x^2") == Negate(Power(Variable("x"), 2))
        assert evaluate(parse_expression("-x^2"), 3.0, 0.0) == -9.0

    def test_left_associativity(self):
        assert evaluate(parse_expression("8/4/2"), 0.0, 0.0) == 1.0
        assert evaluate(parse_expression("8-4-2"), 0.0, 0.0) == 2.0

    def test_precedence(self):
        assert evaluate(parse_expression("2+3*4"), 0.0, 0.0) == 14.0
        assert evaluate(parse_expression("2*3^2"), 0.0, 0.0) == 18.0

    def test_scientific_literals_exact(self):
        assert parse_expression("1.5e-3") == Number(Fraction(3, 2000))

    def test_an_integer_literal_is_an_int_and_any_other_a_fraction(self):
        assert type(parse_expression("2").value) is int
        assert type(parse_expression("007").value) is int
        for text, value in (("0.5", Fraction(1, 2)), ("2e0", 2), ("1e-1", Fraction(1, 10))):
            number = parse_expression(text)
            assert number == Number(value)
            assert type(number.value) is Fraction

    def test_literal_exponent_limit(self):
        limit = MAX_LITERAL_EXPONENT
        assert parse_expression(f"1e{limit}") == Number(Fraction(10**limit))
        assert parse_expression(f"1E-{limit}") == Number(Fraction(1, 10**limit))
        assert parse_expression(f"1e000{limit}") == Number(Fraction(10**limit))
        for text in (f"x+1e{limit + 1}", f"x+2.5E-{limit + 1}", "x+1e99999999999"):
            with pytest.raises(ExpressionSyntaxError) as info:
                parse_expression(text)
            assert info.value.position == 2

    def test_power_exponent_limit(self):
        limit = MAX_LITERAL_EXPONENT
        assert parse_expression(f"x^{limit}") == Power(Variable("x"), limit)
        assert parse_expression(f"x^-{limit}") == Power(Variable("x"), -limit)
        for text, position in ((f"x^{limit + 1}", 2), (f"x^-{limit + 1}", 3)):
            with pytest.raises(ExpressionSyntaxError, match="exponent beyond") as info:
                parse_expression(text)
            assert info.value.position == position

    def test_overlong_digit_strings(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("the interpreter's int-string limit is off")
        digits = "1" * (limit + 1)
        for text in (f"x+{digits}", f"x^{digits}", f"x+1.{digits}"):
            with pytest.raises(ExpressionSyntaxError) as info:
                parse_expression(text)
            assert info.value.position == 2
        assert parse_expression("1" * limit) == Number(Fraction(int("1" * limit)))

    def test_nested_functions(self):
        tree = parse_expression("log(exp(x*y))")
        assert evaluate(tree, 2.0, 3.0) == pytest.approx(6.0, rel=1e-12)

    def test_nesting_limit(self):
        # the minus, the call, the parentheses and the innermost factor x
        # make MAX_NESTING levels; the tree still differentiates and
        # evaluates recursively
        depth = MAX_NESTING - 3
        text = "-sin(" + "(" * depth + "x*y" + ")" * depth + ")"
        tree = parse_expression(text)
        assert evaluate(differentiate(tree, "x"), 0.5, 2.0) == pytest.approx(
            -2 * math.cos(1.0), rel=1e-12
        )
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("-" + text)


class TestDifferentiate:
    def test_polynomial(self):
        e = parse_expression("x^2+y^2-1")
        assert evaluate(differentiate(e, "y"), 0.5, 2.0) == 4.0
        assert evaluate(differentiate(e, "x"), 0.5, 2.0) == 1.0

    def test_quotient_rule(self):
        e = parse_expression("x/y")
        dy = differentiate(e, "y")
        assert evaluate(dy, 3.0, 2.0) == pytest.approx(-0.75)

    def test_function_rules(self):
        point = (0.7, 0.3)
        for text, dx in [
            ("exp(x)", math.exp(0.7)),
            ("log(x)", 1 / 0.7),
            ("sin(x)", math.cos(0.7)),
            ("cos(x)", -math.sin(0.7)),
            ("sqrt(x)", 0.5 / math.sqrt(0.7)),
        ]:
            d = differentiate(parse_expression(text), "x")
            assert evaluate(d, *point) == pytest.approx(dx, rel=1e-12)

    def test_derivative_of_constant(self):
        assert differentiate(parse_expression("3.25"), "x") == Number(Fraction(0))

    def test_constant_folding_of_int_literals_stays_exact(self):
        d = differentiate(parse_expression("x/3"), "x")
        assert d == Number(Fraction(1, 3))
        assert type(d.value) is Fraction
        for folded, value in ((_div(Number(1), Number(3)), Fraction(1, 3)),
                              (_pow(Number(2), -2), Fraction(1, 4)),
                              (_pow(Number(Fraction(2, 3)), -1), Fraction(3, 2))):
            assert folded == Number(value)
            assert type(folded.value) is Fraction


class TestMixedPartial:
    def test_first_partial_of_circle(self):
        e = parse_expression("x^2+y^2-1")
        assert evaluate(mixed_partial(e, 0, 1), 1.0, 3.0) == 6.0

    def test_vanishing_mixed_partial(self):
        e = parse_expression("x-exp(y)")
        assert mixed_partial(e, 1, 1) == Number(Fraction(0))

    def test_pure_y_partial(self):
        e = parse_expression("x-exp(y)")
        third = mixed_partial(e, 0, 3)
        assert evaluate(third, 0.0, 0.0) == -1.0
        assert evaluate(third, 0.0, 1.0) == pytest.approx(-math.e, rel=1e-12)

    def test_rejects_negative_orders(self):
        with pytest.raises(ValueError):
            mixed_partial(parse_expression("x"), -1, 0)

    def test_mixed_partials_commute_numerically(self):
        rng = random.Random(7)
        expressions = [
            "x^2+y^2-1",
            "x-exp(y)",
            "x*sin(y)+log(x)*cos(y)",
            "sqrt(x)*y^3-x/y",
        ]
        for text in expressions:
            e = parse_expression(text)
            xy = mixed_partial(mixed_partial(e, 1, 0), 0, 1)
            yx = mixed_partial(e, 1, 1)
            for _ in range(5):
                x = rng.uniform(0.5, 2.0)
                y = rng.uniform(0.5, 1.5)
                assert evaluate(xy, x, y) == pytest.approx(
                    evaluate(yx, x, y), rel=1e-12, abs=1e-12
                )


class TestEvaluate:
    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            evaluate(parse_expression("x/y"), 1.0, 0.0)

    def test_log_domain_error_raises(self):
        with pytest.raises(ValueError):
            evaluate(parse_expression("log(x)"), -1.0, 0.0)

    def test_float_semantics(self):
        assert evaluate(parse_expression("x^3"), -2.0, 0.0) == -8.0


class TestTaylorCoefficients:
    def test_component_shapes(self):
        series = taylor_coefficients(parse_expression("x*y"), 2.0, 3.0, 4)
        assert [len(component) for component in series] == [1, 2, 3, 4, 5]

    def test_product_of_variables(self):
        # x*y at (2, 3) is 6 + 3X + 2Y + XY
        series = taylor_coefficients(parse_expression("x*y"), 2.0, 3.0, 2)
        assert series == [[6.0], [3.0, 2.0], [0.0, 1.0, 0.0]]

    def test_exp_of_x_has_reciprocal_factorials(self):
        series = taylor_coefficients(parse_expression("exp(x)"), 0.0, 0.0, 8)
        for k, component in enumerate(series):
            assert component[0] == pytest.approx(1 / math.factorial(k), rel=1e-15)
            assert component[1:] == [0.0] * k

    def test_sin_and_cos_of_y(self):
        sin_series = taylor_coefficients(parse_expression("sin(y)"), 0.0, 0.0, 5)
        cos_series = taylor_coefficients(parse_expression("cos(y)"), 0.0, 0.0, 5)
        assert [c[-1] for c in sin_series] == pytest.approx([0, 1, 0, -1 / 6, 0, 1 / 120])
        assert [c[-1] for c in cos_series] == pytest.approx([1, 0, -1 / 2, 0, 1 / 24, 0])

    def test_negative_power_is_geometric_series(self):
        # 1/(1 - x) at 0 is sum of X^k
        series = taylor_coefficients(parse_expression("(1-x)^-1"), 0.0, 0.0, 6)
        assert [c[0] for c in series] == [1.0] * 7

    @pytest.mark.parametrize(
        "text",
        ["x^3*y-2*x*y^2+(x-y)^2-y/(1+x^2)", "-(x*y)^0+x^-2*y+(y+2)^-3",
         "exp(x*y)-log(1+x^2+y^2)", "sin(x-y)*cos(x*y)+sqrt(2+x*y)"],
    )
    def test_constant_term_is_evaluate_bit_for_bit(self, text):
        e = parse_expression(text)
        for x, y in [(1.3, 0.7), (0.4, -0.6), (2.5, 1.9)]:
            assert taylor_coefficients(e, x, y, 3)[0][0] == evaluate(e, x, y)

    def test_degree_zero_is_the_value(self):
        e = parse_expression("sin(x)*y")
        assert taylor_coefficients(e, 0.5, 2.0, 0) == [[evaluate(e, 0.5, 2.0)]]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            taylor_coefficients(parse_expression("x"), 0.0, 0.0, -1)

    def test_flat_chain_needs_no_recursion(self):
        # a left-associative chain is as deep as it is long
        e = parse_expression("+".join(["x"] * 3000) + "-y")
        series = taylor_coefficients(e, 1.0, 2.0, 2)
        assert series[0] == [2998.0]
        assert series[1] == [3000.0, -1.0]

    def test_shared_subtrees_are_walked_per_use(self):
        # 12 doublings of x: a DAG of 13 nodes, walked as its tree of 2^13 - 1
        e = Variable("x")
        for _ in range(12):
            e = BinaryOp("+", e, e)
        series = taylor_coefficients(e, 3.0, 0.0, 3)
        assert series[0] == [3.0 * 2.0**12]
        assert series[1] == [2.0**12, 0.0]
        assert series[2:] == [[0.0] * 3, [0.0] * 4]

    def test_first_error_in_evaluation_order(self):
        # both terms fail at x = 1: log with ValueError, 1/0 with
        # ZeroDivisionError; evaluate takes the left one first
        e = parse_expression("log(x-2)+1/(x-1)")
        with pytest.raises(ValueError):
            evaluate(e, 1.0, 0.0)
        with pytest.raises(ValueError):
            taylor_coefficients(e, 1.0, 0.0, 2)

    @pytest.mark.parametrize(
        "text, x, error",
        [("log(x)", -1.0, ValueError), ("sqrt(x)", -1.0, ValueError),
         ("1/x", 0.0, ZeroDivisionError), ("x^-2", 0.0, ZeroDivisionError),
         ("sqrt(x)", 0.0, ZeroDivisionError), ("exp(1000*x)", 1.0, OverflowError),
         ("x^40", 1e10, OverflowError)],
    )
    def test_domain_errors(self, text, x, error):
        with pytest.raises(error):
            taylor_coefficients(parse_expression(text), x, 0.0, 2)

    @pytest.mark.parametrize("text, n", [("sqrt(x^2)", 1), ("sqrt(x^4)", 2), ("sqrt(x^4)", 3)])
    def test_argument_vanishing_above_order_n_is_not_constant(self, text, n):
        # x^4 truncates to 0 at n = 2, but it is no constant: sqrt's
        # derivative is undefined there, as on the symbolic path
        with pytest.raises(ZeroDivisionError):
            taylor_coefficients(parse_expression(text), 0.0, 0.0, n)

    def test_expansion_in_y_alone(self):
        e = parse_expression("x*y^2+sqrt(x)")
        series = taylor_coefficients(e, 0.0, 3.0, 2, variables="y")
        assert series == [[0.0], [0.0, 0.0], [0.0, 0.0, 0.0]]
        series = taylor_coefficients(e, 1.0, 3.0, 2, variables="y")
        assert series == [[10.0], [0.0, 6.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("n", [12, 30])
    @pytest.mark.parametrize(
        "text",
        ["+".join(["x*y"] * 40) + "-y", "(x+y)^7*x-(1+x*y)^-2", "y*(x^2+1)*(x-y^3)",
         "sin(x*y)/(1+y^2)-exp(y)*x", "x*x*x*y*y+2.5*x", "sqrt(1+x^2+y^2)*cos(x-y)-log(2+x*y)"],
    )
    def test_products_are_the_full_product_bit_for_bit(self, monkeypatch, text, n):
        # stopping at the left factor's last nonzero component skips only
        # products that add nothing
        e = parse_expression(text)
        fast = taylor_coefficients(e, 0.7, 0.4, n)
        monkeypatch.setattr(expressions, "_series_mul", full_series_mul)
        assert _bits(fast) == _bits(taylor_coefficients(e, 0.7, 0.4, n))

    def test_series_product_with_zero_top_components_is_bit_identical(self):
        # zeros of either sign, infinities and nans, in components the
        # product skips and in those it keeps
        rng = random.Random(5)
        entries = [0.0, -0.0, 1.5, -2.25, 1e308, math.inf, -math.inf, math.nan]
        for _ in range(300):
            n = rng.randrange(6)
            a, b = ([[rng.choice(entries) for _ in range(k + 1)] for k in range(n + 1)]
                    for _ in range(2))
            for k in range(rng.randrange(n + 2), n + 1):
                a[k] = [rng.choice([0.0, -0.0]) for _ in range(k + 1)]
            assert _bits(expressions._series_mul(a, b)) == _bits(full_series_mul(a, b))

    def test_constant_sqrt_argument_at_zero_is_legal(self):
        # sqrt(0) has no derivative terms to propagate
        series = taylor_coefficients(parse_expression("sqrt(0)+x"), 1.0, 0.0, 2)
        assert series == [[1.0], [1.0, 0.0], [0.0, 0.0, 0.0]]


def _bits(series):
    """Each component's floats as bytes, so -0.0 and nan compare exactly."""
    return [struct.pack(f"{len(c)}d", *c) for c in series]
