from fractions import Fraction

import pytest

from implicit_deriv import (
    cf_term_count,
    series_table,
    term_count_enum,
    term_count_gf,
)

import implicit_deriv.counting
import implicit_deriv.partitions
from oracles import count_part_tables, log_recurrence_table, log_u_coefficient

# published table of term counts, orders 1 through 24
TERM_COUNTS = [
    1, 3, 9, 24, 61, 145, 333, 732, 1565, 3247, 6583, 13047,
    25379, 48477, 91159, 168883, 308736, 557335, 994638, 1755909,
    3068960, 5313318, 9118049, 15516710,
]


def divisor_sum_log_coefficient(m: int, bound: int) -> list[Fraction]:
    """The u^m coefficient of the log of the counting product in closed
    form: the sum over d | m of t^(i*d) / d for i = 0 .. m/d + 1."""
    coeffs = [Fraction(0)] * (bound + 1)
    for d in range(1, m + 1):
        if m % d == 0:
            for i in range(min(m // d + 1, bound // d) + 1):
                coeffs[i * d] += Fraction(1, d)
    return coeffs


class TestLogSeries:
    """The u-coefficients of the log of the counting product, which the
    series table is checked against (`log_u_coefficient`)."""

    def test_index_one(self):
        assert log_u_coefficient(1, 4) == [1, 1, 1, 0, 0]

    def test_index_two(self):
        assert log_u_coefficient(2, 4) == [
            Fraction(3, 2),
            1,
            Fraction(3, 2),
            1,
            Fraction(1, 2),
        ]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_constant_term_is_divisor_harmonic_sum(self, m):
        expected = sum(Fraction(1, d) for d in range(1, m + 1) if m % d == 0)
        assert log_u_coefficient(m, 5)[0] == expected

    @pytest.mark.parametrize("m", range(1, 9))
    def test_against_direct_expansion(self, m):
        # the divisor-sum form must equal the term-by-term log expansion
        assert divisor_sum_log_coefficient(m, 8) == log_u_coefficient(m, 8)


class TestSeriesTable:
    def test_base_entry_is_all_ones(self):
        assert series_table(0) == [[1, 1]]

    def test_first_entry_degree_two(self):
        assert series_table(1)[1][2] == 3

    def test_fifth_count_from_fourth_entry(self):
        assert series_table(4)[4][5] == 61

    @pytest.mark.parametrize("max_index", range(0, 8))
    def test_shape_reaches_every_count(self, max_index):
        # entries p_0 .. p_max_index, each to degree max_index + 1, so that
        # a(n) = table[n - 1][n] is there for every n up to max_index + 1
        table = series_table(max_index)
        assert [len(row) for row in table] == [max_index + 2] * (max_index + 1)
        assert [table[n - 1][n] for n in range(1, max_index + 2)] == TERM_COUNTS[: max_index + 1]

    def test_negative_index_is_rejected(self):
        with pytest.raises(ValueError):
            series_table(-1)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_recurrence_matches_direct_product(self, n):
        # independent check: rebuild the product from its logarithm
        assert series_table(11)[n] == log_recurrence_table(11, 12)[n]


class TestTermCounts:
    def test_published_values_small(self):
        assert term_count_gf(1) == 1
        assert term_count_gf(2) == 3
        assert term_count_gf(3) == 9

    def test_published_value_order_twelve(self):
        assert term_count_gf(12) == 13047

    def test_published_value_order_twenty_four(self):
        assert term_count_gf(24) == 15516710

    @pytest.mark.parametrize("n", range(1, 15))
    def test_gf_equals_enumeration(self, n):
        assert term_count_gf(n) == term_count_enum(n)

    def test_enumeration_known_values(self):
        assert term_count_enum(2) == 3
        assert term_count_enum(8) == 732

    def test_enumeration_counts_the_stream(self, monkeypatch):
        # the count never builds the list of partitions
        def no_list(n):
            raise AssertionError("formula_partitions called")

        monkeypatch.setattr(implicit_deriv.counting, "formula_partitions", no_list)
        monkeypatch.setattr(implicit_deriv.partitions, "formula_partitions", no_list)
        assert term_count_enum(8) == 732

    def test_enumeration_rejects_zero(self):
        with pytest.raises(ValueError):
            term_count_enum(0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            term_count_gf(0)
        with pytest.raises(ValueError):
            cf_term_count(0)


class TestCfTermCount:
    def test_disagrees_at_order_two(self):
        assert cf_term_count(2) == 2
        assert term_count_gf(2) == 3

    def test_agrees_at_order_one(self):
        assert cf_term_count(1) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_table_enumeration(self, n):
        # the published count equals the number of unconstrained multiplicity
        # tables over the admissible parts with column sums (n, n-1)
        assert cf_term_count(n) == count_part_tables(n, n - 1)

    def test_coincides_at_order_three_then_diverges(self):
        # the wrong and right counts happen to agree at n = 3 (both 9);
        # the next orders separate again
        assert cf_term_count(3) == 9 == term_count_gf(3)
        assert cf_term_count(4) == 28 != term_count_gf(4)
        assert cf_term_count(5) != term_count_gf(5)
