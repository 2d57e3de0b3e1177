from dataclasses import replace
from fractions import Fraction

import pytest

from implicit_deriv import (
    DerivativeFormula,
    Partition2D,
    brute_force_expansion,
    build_formula,
    cf_notation,
    compare_with_formula,
    faa_di_bruno_coefficient,
    faa_di_bruno_expansion,
    formula_to_expr,
    monomial,
    partitions_1d,
    term_count_gf,
    total_derivative,
)
from implicit_deriv.oracle import SymbolicExpr

from oracles import bell_number

FX = (1, 0)
FY = (0, 1)


class TestSymbolicExpr:
    def test_like_terms_merge(self):
        e = SymbolicExpr.from_terms([(1, {FX: 1}), (2, {FX: 1})])
        assert e == monomial(3, {FX: 1})

    def test_zero_coefficients_vanish(self):
        e = SymbolicExpr.from_terms([(1, {FX: 1}), (-1, {FX: 1})])
        assert not e
        assert len(e) == 0

    def test_product_adds_exponents(self):
        a = monomial(2, {FX: 1, FY: -1})
        b = monomial(Fraction(1, 2), {FY: -2})
        assert a * b == monomial(1, {FX: 1, FY: -3})

    def test_scalar_multiplication(self):
        assert monomial(1, {FX: 2}) * 3 == monomial(3, {FX: 2})

    def test_zero_exponents_dropped(self):
        assert monomial(5, {FX: 0}) == monomial(5, {})


class TestTotalDerivative:
    def test_first_partial_by_hand(self):
        # d/dx of F_x along the curve: F_xx - F_x F_xy / F_y
        result = total_derivative(monomial(1, {FX: 1}))
        expected = SymbolicExpr.from_terms(
            [(1, {(2, 0): 1}), (-1, {FX: 1, (1, 1): 1, FY: -1})]
        )
        assert result == expected

    def test_constant_kills(self):
        assert total_derivative(monomial(1, {})) == SymbolicExpr()

    def test_second_derivative_matches_known_expansion(self):
        result = total_derivative(monomial(-1, {FX: 1, FY: -1}))
        expected = SymbolicExpr.from_terms(
            [
                (-1, {(2, 0): 1, FY: -1}),
                (2, {FX: 1, (1, 1): 1, FY: -2}),
                (-1, {FX: 2, (0, 2): 1, FY: -3}),
            ]
        )
        assert result == expected


class TestBruteForceExpansion:
    def test_order_one(self):
        assert brute_force_expansion(1) == monomial(-1, {FX: 1, FY: -1})

    def test_order_two_coefficients(self):
        e = brute_force_expansion(2)
        assert len(e) == 3
        assert sorted(c for _, c in e.terms()) == [-1, -1, 2]

    def test_order_five_contains_worked_monomial(self):
        e = brute_force_expansion(5)
        assert e.coefficient({FX: 2, (1, 1): 3, (0, 2): 1, FY: -6}) == 600

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            brute_force_expansion(0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_coefficients_are_ints(self, n):
        assert all(type(c) is int for _, c in brute_force_expansion(n).terms())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_monomial_count_is_term_count(self, n):
        assert len(brute_force_expansion(n)) == term_count_gf(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_monomial_shape(self, n):
        # only F_y carries a negative exponent and it balances the numerator
        for powers, coeff in brute_force_expansion(n).terms():
            positive_total = 0
            for symbol, exponent in powers:
                if exponent < 0:
                    assert symbol == FY
                else:
                    positive_total += exponent
            assert dict(powers)[FY] == -positive_total
            assert coeff.denominator == 1


class TestCompareWithFormula:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_at_small_orders(self, n):
        report = compare_with_formula(n)
        assert report.status == "equal"
        assert report.missing == ()
        assert report.extra == ()
        assert report.coefficient_mismatches == ()

    def test_cf_mode_flags_exactly_the_overshoot_at_order_two(self):
        report = compare_with_formula(2, cf_original=True)
        assert report.status == "mismatch"
        assert report.missing == () and report.extra == ()
        assert len(report.coefficient_mismatches) == 1
        mismatch = report.coefficient_mismatches[0]
        assert mismatch.partition == Partition2D([(1, 0), (1, 0), (0, 2)])
        assert mismatch.found == 2 * mismatch.expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cf_mode_mismatches_are_the_q_factors(self, n):
        report = compare_with_formula(n, cf_original=True)
        predicted = {
            p: cf_notation(p).q
            for p in (t.partition for t in build_formula(n).terms)
            if cf_notation(p).q > 1
        }
        assert {m.partition for m in report.coefficient_mismatches} == set(predicted)
        for m in report.coefficient_mismatches:
            assert m.found == predicted[m.partition] * m.expected

    def test_tampered_formula_is_reported(self):
        f = build_formula(3)
        bumped = replace(f.terms[0], coefficient=f.terms[0].coefficient * 3)
        tampered = DerivativeFormula(n=3, terms=(bumped,) + f.terms[1:])
        report = compare_with_formula(3, formula=tampered)
        assert report.status == "mismatch"
        assert [m.partition for m in report.coefficient_mismatches] == [
            f.terms[0].partition
        ]

    def test_missing_and_extra_terms_are_reported(self):
        f = build_formula(2)
        dropped = DerivativeFormula(n=2, terms=f.terms[:-1])
        report = compare_with_formula(2, formula=dropped)
        assert report.status == "mismatch"
        assert [p for p, _ in report.missing] == [f.terms[-1].partition]
        assert report.extra == ()

    def test_report_json_shape(self):
        payload = compare_with_formula(2, cf_original=True).to_json()
        assert payload["n"] == 2
        assert payload["status"] == "mismatch"
        assert payload["missing"] == [] and payload["extra"] == []
        assert payload["coefficient_mismatches"] == [
            {"partition": [[1, 0], [1, 0], [0, 2]], "expected": "-1", "found": "-2"}
        ]


class TestInductionStep:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_total_derivative_advances_the_formula(self, n):
        previous = formula_to_expr(build_formula(n - 1))
        assert total_derivative(previous) == formula_to_expr(build_formula(n))


class TestFaaDiBruno:
    def test_order_one(self):
        assert faa_di_bruno_expansion(1) == monomial(1, {("z", 1): 1, ("y", 1): 1})

    def test_order_two(self):
        expected = SymbolicExpr.from_terms(
            [
                (1, {("z", 1): 1, ("y", 2): 1}),
                (1, {("z", 2): 1, ("y", 1): 2}),
            ]
        )
        assert faa_di_bruno_expansion(2) == expected

    def test_order_three(self):
        expected = SymbolicExpr.from_terms(
            [
                (1, {("z", 1): 1, ("y", 3): 1}),
                (3, {("z", 2): 1, ("y", 1): 1, ("y", 2): 1}),
                (1, {("z", 3): 1, ("y", 1): 3}),
            ]
        )
        assert faa_di_bruno_expansion(3) == expected

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_partition_sum(self, n):
        expected_terms = []
        for parts in partitions_1d(n):
            powers = {("z", len(parts)): 1}
            for k in parts:
                powers[("y", k)] = powers.get(("y", k), 0) + 1
            expected_terms.append((faa_di_bruno_coefficient(parts), powers))
        assert faa_di_bruno_expansion(n) == SymbolicExpr.from_terms(expected_terms)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_coefficients_sum_to_bell_number(self, n):
        total = sum(c for _, c in faa_di_bruno_expansion(n).terms())
        assert total == bell_number(n)
