import random
from fractions import Fraction

import pytest

from implicit_deriv import (
    TruncatedSeries,
    cf_term_count,
    log_series,
    series_table,
    term_count_enum,
    term_count_gf,
)

from oracles import count_part_tables, log_recurrence_table, log_u_coefficient

# published table of term counts, orders 1 through 24
TERM_COUNTS = [
    1, 3, 9, 24, 61, 145, 333, 732, 1565, 3247, 6583, 13047,
    25379, 48477, 91159, 168883, 308736, 557335, 994638, 1755909,
    3068960, 5313318, 9118049, 15516710,
]


class TestTruncatedSeries:
    def test_truncates_on_construction(self):
        s = TruncatedSeries([1, 2, 3, 4], bound=2)
        assert s.coefficients() == (1, 2, 3)
        assert s.bound == 2

    def test_pads_to_bound(self):
        s = TruncatedSeries([1], bound=3)
        assert s.coefficients() == (1, 0, 0, 0)

    def test_indexing_bounds(self):
        s = TruncatedSeries([1, 2], bound=1)
        assert s[1] == 2
        with pytest.raises(IndexError):
            s[2]

    def test_multiplication_truncates(self):
        a = TruncatedSeries([1, 1, 1], bound=2)  # 1 + t + t^2
        b = TruncatedSeries([1, 2], bound=2)  # 1 + 2t
        assert (a * b).coefficients() == (1, 3, 3)

    def test_scalar_multiplication(self):
        s = TruncatedSeries([1, 2], bound=1) * Fraction(1, 2)
        assert s.coefficients() == (Fraction(1, 2), 1)

    def test_algebra_laws_on_random_series(self):
        rng = random.Random(20240811)

        def random_series():
            return TruncatedSeries(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)],
                bound=6,
            )

        for _ in range(25):
            f, g, h = random_series(), random_series(), random_series()
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


class TestLogSeries:
    def test_index_one(self):
        assert log_series(1, 4).coefficients() == (1, 1, 1, 0, 0)

    def test_index_two(self):
        assert log_series(2, 4).coefficients() == (
            Fraction(3, 2),
            1,
            Fraction(3, 2),
            1,
            Fraction(1, 2),
        )

    @pytest.mark.parametrize("m", range(1, 9))
    def test_constant_term_is_divisor_harmonic_sum(self, m):
        expected = sum(Fraction(1, d) for d in range(1, m + 1) if m % d == 0)
        assert log_series(m, 5)[0] == expected

    @pytest.mark.parametrize("m", range(1, 9))
    def test_against_direct_expansion(self, m):
        # the divisor-sum form must equal the term-by-term log expansion
        assert list(log_series(m, 8).coefficients()) == log_u_coefficient(m, 8)


class TestSeriesTable:
    def test_base_entry_is_all_ones(self):
        table = series_table(0, 5)
        assert table[0] == [1, 1, 1, 1, 1, 1]

    def test_first_entry_degree_two(self):
        assert series_table(1, 4)[1][2] == 3

    def test_fifth_count_from_fourth_entry(self):
        assert series_table(4, 5)[4][5] == 61

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            series_table(5, 4)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_recurrence_matches_direct_product(self, n):
        # independent check: rebuild the product from its logarithm
        expected = list(log_recurrence_table(11, 12)[n].coefficients())
        assert series_table(11, 12)[n] == expected


class TestTermCounts:
    def test_published_values_small(self):
        assert term_count_gf(1) == 1
        assert term_count_gf(2) == 3
        assert term_count_gf(3) == 9

    def test_published_value_order_twelve(self):
        assert term_count_gf(12) == 13047

    def test_published_value_order_twenty_four(self):
        assert term_count_gf(24) == 15516710

    @pytest.mark.parametrize("n", range(1, 13))
    def test_gf_equals_enumeration(self, n):
        assert term_count_gf(n) == term_count_enum(n)

    def test_enumeration_known_values(self):
        assert term_count_enum(2) == 3
        assert term_count_enum(8) == 732

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
