import math
import random
from fractions import Fraction

import pytest

from implicit_deriv import (
    ExpressionSyntaxError,
    differentiate,
    evaluate,
    mixed_partial,
    parse_expression,
)
from implicit_deriv.expressions import (
    MAX_NESTING,
    BinaryOp,
    FunctionCall,
    Negate,
    Number,
    Power,
    Variable,
)


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
