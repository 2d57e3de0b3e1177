import tracemalloc
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from implicit_deriv import (
    Partition2D,
    formula_partitions,
    formula_terms,
    iter_formula_partitions,
    lower_x,
    lower_y,
    partition_coefficient,
    partitions_1d,
    term_count_enum,
)

import implicit_deriv.partitions
from implicit_deriv.partitions import formula_heads, weighted_formula_partitions
from oracles import (
    classical_partition_count,
    count_part_tables,
    count_set_partitions_with_block_sizes,
    fraction_partition_coefficient,
    partitions_2d,
)


def chain_rule_weight(parts) -> int:
    """The Faa di Bruno weight of a one-dimensional partition: the weight of
    the two-dimensional partition with parts (k, 0)."""
    return partition_coefficient(Partition2D([(k, 0) for k in parts]))


class TestCanonicalize:
    def test_sorts_descending(self):
        p = Partition2D([(1, 0), (2, 0)])
        assert p.parts == ((2, 0), (1, 0))
        assert (p.x_sum, p.y_sum, p.size) == (3, 0, 2)

    def test_three_parts(self):
        p = Partition2D([(0, 2), (1, 0), (1, 1)])
        assert p.parts == ((1, 1), (1, 0), (0, 2))
        assert (p.x_sum, p.y_sum, p.size) == (2, 3, 3)

    def test_zero_part_rejected(self):
        with pytest.raises(ValueError):
            Partition2D([(0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Partition2D([])

    @pytest.mark.parametrize(
        "parts", [[(1.5, 0)], [(True, "2")], [(2, 0), (1, 1.0)], [(1, False)]],
        ids=["float", "bool-and-str", "integral-float", "bool"],
    )
    def test_non_integer_coordinates_rejected(self, parts):
        # formerly int()-converted: [(1.5, 0)] was (1,0), [(True, "2")] was (1,2)
        with pytest.raises(ValueError, match="integers"):
            Partition2D(parts)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Partition2D([(1, -1)])

    def test_idempotent_and_order_insensitive(self):
        parts = [(1, 1), (0, 2), (1, 1), (1, 0), (0, 3)]
        p = Partition2D(parts)
        assert Partition2D(p.parts) == p
        assert Partition2D(reversed(parts)) == p
        assert Partition2D(sorted(parts)) == p

    def test_multiplicity(self):
        p = Partition2D([(1, 1), (1, 1), (1, 0)])
        assert p.multiplicity(1, 1) == 2
        assert p.multiplicity(1, 0) == 1
        assert p.multiplicity(9, 9) == 0
        assert p.multiplicities() == {(1, 1): 2, (1, 0): 1}

    def test_str(self):
        p = Partition2D([(1, 1)] * 3 + [(1, 0)] * 2 + [(0, 2)])
        assert str(p) == "(1,1)^3+(1,0)^2+(0,2)"

    def test_json_round_trip(self):
        p = Partition2D([(1, 1), (1, 0), (0, 2)])
        assert p.to_json() == [[1, 1], [1, 0], [0, 2]]
        assert Partition2D(p.to_json()) == p


class TestFormulaPartitions:
    def test_order_one(self):
        assert formula_partitions(1) == [Partition2D([(1, 0)])]

    def test_order_two(self):
        expected = [
            Partition2D([(2, 0)]),
            Partition2D([(1, 1), (1, 0)]),
            Partition2D([(1, 0), (1, 0), (0, 2)]),
        ]
        assert formula_partitions(2) == expected

    def test_order_five_contains_worked_example(self):
        worked = Partition2D([(1, 1)] * 3 + [(1, 0)] * 2 + [(0, 2)])
        assert worked in formula_partitions(5)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            formula_partitions(0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_constraints_and_size_bound(self, n):
        seen = formula_partitions(n)
        assert len(set(seen)) == len(seen)
        for p in seen:
            assert p.x_sum == n
            assert p.y_sum == p.size - 1
            assert (0, 1) not in p
            assert p.size <= 2 * n - 1
        # the extreme size is attained, by n copies of (1,0) and n-1 of (0,2)
        extreme = Partition2D([(1, 0)] * n + [(0, 2)] * (n - 1))
        assert max(p.size for p in seen) == 2 * n - 1
        assert extreme in seen

    @pytest.mark.parametrize("n", range(1, 9))
    def test_canonical_descending_output(self, n):
        seen = formula_partitions(n)
        assert seen == sorted(seen, reverse=True)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_filtered_partitions_2d(self, n):
        # an independent enumeration: every partition of (n, m), kept when
        # it meets the formula constraints
        expected = [
            p
            for m in range(2 * n - 1)
            for p in partitions_2d(n, m)
            if p.y_sum == p.size - 1 and (0, 1) not in p
        ]
        assert formula_partitions(n) == sorted(expected, reverse=True)

    def test_iterator_rejects_zero_before_yielding(self):
        with pytest.raises(ValueError):
            iter_formula_partitions(0)

    def test_iterator_is_lazy(self):
        # a(30) = 323,685,343: only a walk that yields as it goes can start
        walk = iter_formula_partitions(30)
        assert next(walk) == Partition2D([(30, 0)])
        assert next(walk) == Partition2D([(29, 1), (1, 0)])


class TestPartitions2D:
    @pytest.mark.parametrize("n,m", [(1, 0), (0, 1), (2, 1), (3, 2), (2, 4), (5, 5)])
    def test_counts_match_table_oracle(self, n, m):
        seen = partitions_2d(n, m)
        assert len(set(seen)) == len(seen)
        assert len(seen) == count_part_tables(n, m, excluded=((0, 0),))
        for p in seen:
            assert (p.x_sum, p.y_sum) == (n, m)

    def test_rejects_empty_weight(self):
        with pytest.raises(ValueError):
            partitions_2d(0, 0)


class TestPartitions1D:
    def test_one(self):
        assert partitions_1d(1) == [(1,)]

    def test_three(self):
        assert partitions_1d(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_five_has_seven(self):
        assert len(partitions_1d(5)) == classical_partition_count(5) == 7

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_match_recursive_oracle(self, n):
        assert len(partitions_1d(n)) == classical_partition_count(n)


class TestCoefficients:
    def test_single_part(self):
        assert chain_rule_weight((7,)) == 1

    def test_frozen_small_values(self):
        # independently derived from three-step chain-rule differentiation
        assert chain_rule_weight((2, 1)) == 3
        assert chain_rule_weight((1, 1, 1)) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_set_partition_oracle(self, n):
        for parts in partitions_1d(n):
            assert chain_rule_weight(parts) == (
                count_set_partitions_with_block_sizes(parts)
            )

    def test_paper_quoted_2d_values(self):
        assert partition_coefficient(Partition2D([(2, 0)])) == 1
        assert partition_coefficient(Partition2D([(1, 1), (1, 0)])) == 2
        assert partition_coefficient(Partition2D([(1, 0), (1, 0), (0, 2)])) == 1
        worked = Partition2D([(1, 1)] * 3 + [(1, 0)] * 2 + [(0, 2)])
        assert partition_coefficient(worked) == 600

    @pytest.mark.parametrize("n", range(1, 13))
    def test_integrality_over_formula_partitions(self, n):
        for p in formula_partitions(n):
            assert isinstance(partition_coefficient(p), int)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_fraction_oracle_on_formula_partitions(self, n):
        for p in formula_partitions(n):
            assert partition_coefficient(p) == fraction_partition_coefficient(p), p

    @pytest.mark.parametrize("total", range(1, 11))
    def test_matches_fraction_oracle_on_all_partitions(self, total):
        for n in range(total + 1):
            for p in partitions_2d(n, total - n):
                assert partition_coefficient(p) == fraction_partition_coefficient(p), p

    def test_non_integral_quotient_raises(self, monkeypatch):
        # With k -> k + 1 in place of k!, (2,1)+(1,0) gives 4 * 2 / (3 * 2 * 2)
        monkeypatch.setattr(
            implicit_deriv.partitions, "_FACTORIALS", [k + 1 for k in range(4)]
        )
        assert partition_coefficient(Partition2D([(1, 0)])) == 1
        with pytest.raises(ArithmeticError):
            partition_coefficient(Partition2D([(2, 1), (1, 0)]))

    def test_coordinate_sums_past_the_factorial_table(self):
        # 0! .. 255! are held; larger sums are computed, and the table keeps
        # its size whatever partition is weighed
        table = implicit_deriv.partitions._FACTORIALS
        assert len(table) == 256
        assert partition_coefficient(Partition2D([(5000, 0)])) == 1
        assert partition_coefficient(Partition2D([(300, 0), (1, 1)])) == 301
        for p in (
            Partition2D([(255, 0), (0, 255)]),
            Partition2D([(200, 2), (40, 25), (40, 25), (0, 7)]),
        ):
            assert partition_coefficient(p) == fraction_partition_coefficient(p), p
        assert implicit_deriv.partitions._FACTORIALS is table
        assert len(table) == 256

    def test_non_integral_chain_rule_weight_raises(self, monkeypatch):
        # Past the factorial table, with k -> k + 1 in place of k!, the
        # chain-rule weight of (256, 1) gives 258 / (257 * 2)
        monkeypatch.setattr(implicit_deriv.partitions, "factorial", lambda k: k + 1)
        with pytest.raises(ArithmeticError):
            chain_rule_weight((256, 1))


class TestWeightedWalk:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_weights_equal_partition_coefficient(self, n):
        walked = list(weighted_formula_partitions(n))
        assert [p for p, _ in walked] == formula_partitions(n)
        for p, weight in walked:
            assert weight == partition_coefficient(p), p
            assert weight == fraction_partition_coefficient(p), p

    @pytest.mark.parametrize("n", [127, 128, 129, 200])
    def test_weights_across_the_factorial_table(self, n):
        # up to n = 128 the walk reads every factorial it can need, up to
        # (2n - 2)!, from the table of 0! .. 255!; from n = 129 it computes
        # them
        for p, weight in islice(weighted_formula_partitions(n), 2000):
            assert weight == partition_coefficient(p), p

    def test_planted_non_integral_denominator_raises(self, monkeypatch):
        # With k -> k + 1 in place of k!, the head (1,1)+(1,0) of the second
        # order-2 term has denominator 2 * 2 * 2 * 1 against 3 * 2
        monkeypatch.setattr(
            implicit_deriv.partitions, "_FACTORIALS", [k + 1 for k in range(4)]
        )
        walk = weighted_formula_partitions(2)
        assert next(walk) == (Partition2D([(2, 0)]), 1)
        with pytest.raises(ArithmeticError, match=r"\(1,1\)\+\(1,0\)"):
            next(walk)

    def test_rejects_zero_before_yielding(self):
        for walk in (formula_heads, weighted_formula_partitions):
            with pytest.raises(ValueError):
                walk(0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_heads_and_tails_make_the_partitions(self, n):
        # a head is the parts with i >= 1, its tails the parts (0, j); each
        # denominator is the product of i! * j! * multiplicity! over its parts
        made = []
        for head, head_denominator, tails in formula_heads(n):
            assert head and all(i >= 1 for i, _ in head)
            assert head_denominator == _product_of_factorials(head)
            for tail, tail_denominator in tails:
                assert all(i == 0 for i, _ in tail)
                assert tail_denominator == _product_of_factorials(tail)
                made.append(Partition2D(head + tail))
        assert made == formula_partitions(n)

    def test_enumeration_count_builds_no_partition(self, monkeypatch):
        def refuse(parts):
            raise AssertionError("a partition was built")

        monkeypatch.setattr(Partition2D, "_from_sorted", refuse)
        assert term_count_enum(8) == 732

    @pytest.mark.parametrize(
        "walk", [formula_terms, iter_formula_partitions], ids=["terms", "partitions"]
    )
    def test_memory_stays_flat(self, walk):
        # The walk holds one frame per placed head part and the tails, made
        # once per deficit: about 15 KB (partitions) and 80 KB (terms) at
        # their peak over the first 50,000 items of order 25.  A walk that
        # caches each state's candidate moves peaks near 1 MB here (and
        # grows with n).
        tracemalloc.start()
        try:
            for _ in islice(walk(25), 50_000):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def _product_of_factorials(parts) -> int:
    # The product of i! * j! over the parts and of the multiplicity
    # factorials.
    value = 1
    for i, j in parts:
        value *= factorial(i) * factorial(j)
    for part in set(parts):
        value *= factorial(parts.count(part))
    return value


class TestMoves:
    def test_lower_x_single_part(self):
        assert lower_x(Partition2D([(2, 0)]), 2, 0) == Partition2D([(1, 0)])

    def test_lower_x_derived_example(self):
        p = Partition2D([(1, 1), (1, 0)])
        assert lower_x(p, 1, 1) == Partition2D([(1, 0), (0, 1)])

    def test_lower_x_rejects_unit_x_part(self):
        with pytest.raises(ValueError):
            lower_x(Partition2D([(1, 0)]), 1, 0)

    def test_lower_x_rejects_absent_part(self):
        with pytest.raises(ValueError):
            lower_x(Partition2D([(2, 0)]), 3, 0)

    def test_lower_y_single_part(self):
        assert lower_y(Partition2D([(0, 2)]), 0, 2) == Partition2D([(0, 1)])

    def test_lower_y_derived_example(self):
        p = Partition2D([(1, 1), (1, 0)])
        assert lower_y(p, 1, 1) == Partition2D([(1, 0), (1, 0)])

    def test_lower_y_rejects_unit_y_part(self):
        with pytest.raises(ValueError):
            lower_y(Partition2D([(0, 1)]), 0, 1)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 3)])
    def test_moves_preserve_size_and_shift_sums(self, n, m):
        for p in partitions_2d(n, m):
            for (i, j) in set(p.parts):
                if i > 0 and (i, j) != (1, 0):
                    moved = lower_x(p, i, j)
                    assert moved.size == p.size
                    assert (moved.x_sum, moved.y_sum) == (n - 1, m)
                if j > 0 and (i, j) != (0, 1):
                    moved = lower_y(p, i, j)
                    assert moved.size == p.size
                    assert (moved.x_sum, moved.y_sum) == (n, m - 1)


class TestRemove:
    def test_remove_single(self):
        p = Partition2D([(1, 1), (1, 0)])
        assert p.remove((1, 1)) == Partition2D([(1, 0)])

    def test_remove_pair(self):
        p = Partition2D([(1, 0), (1, 0), (0, 2)])
        assert p.remove((1, 0), (0, 2)) == Partition2D([(1, 0)])

    def test_remove_absent(self):
        with pytest.raises(ValueError):
            Partition2D([(2, 0)]).remove((1, 0))

    def test_remove_to_empty(self):
        with pytest.raises(ValueError):
            Partition2D([(2, 0)]).remove((2, 0))


def _ratio(p, q):
    return Fraction(partition_coefficient(q), partition_coefficient(p))


def _all_partitions_up_to(total):
    for n in range(total + 1):
        for m in range(total + 1 - n):
            if n == 0 and m == 0:
                continue
            yield n, m, partitions_2d(n, m)


class TestWeightRatioIdentities:
    """Exact ratio identities relating the weight of a partition to the
    weights of its images under the moves and removals, checked exhaustively
    on every partition with total weight at most 10."""

    def test_lower_x_ratio(self):
        for n, m, batch in _all_partitions_up_to(10):
            for p in batch:
                for (i, j) in set(p.parts):
                    if i > 0 and (i, j) != (1, 0):
                        expected = Fraction(
                            i * p.multiplicity(i, j),
                            n * (p.multiplicity(i - 1, j) + 1),
                        )
                        assert _ratio(p, lower_x(p, i, j)) == expected

    def test_lower_y_ratio(self):
        for n, m, batch in _all_partitions_up_to(10):
            for p in batch:
                for (i, j) in set(p.parts):
                    if j > 0 and (i, j) != (0, 1):
                        expected = Fraction(
                            j * p.multiplicity(i, j),
                            m * (p.multiplicity(i, j - 1) + 1),
                        )
                        assert _ratio(p, lower_y(p, i, j)) == expected

    def test_removal_ratios(self):
        for n, m, batch in _all_partitions_up_to(10):
            for p in batch:
                if (1, 0) in p and p.size > 1:
                    assert _ratio(p, p.remove((1, 0))) == Fraction(
                        p.multiplicity(1, 0), n
                    )
                if (1, 1) in p and p.size > 1:
                    assert _ratio(p, p.remove((1, 1))) == Fraction(
                        p.multiplicity(1, 1), n * m
                    )
                if (1, 0) in p and (0, 2) in p and p.size > 2:
                    assert _ratio(p, p.remove((1, 0), (0, 2))) == Fraction(
                        2 * p.multiplicity(1, 0) * p.multiplicity(0, 2),
                        n * m * (m - 1),
                    )

    def test_composite_ratio(self):
        # lower_y applied after removing one (1, 0)
        for n, m, batch in _all_partitions_up_to(10):
            for p in batch:
                if (1, 0) not in p or p.size < 2:
                    continue
                stripped = p.remove((1, 0))
                for (i, j) in set(stripped.parts):
                    if j > 0 and (i, j) != (0, 1):
                        expected = Fraction(
                            j * p.multiplicity(i, j) * p.multiplicity(1, 0),
                            m * n * (stripped.multiplicity(i, j - 1) + 1),
                        )
                        assert _ratio(p, lower_y(stripped, i, j)) == expected
