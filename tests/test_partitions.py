import tracemalloc
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from implicit_deriv import (
    Partition2D,
    formula_partitions,
    lower_x,
    lower_y,
    partition_coefficient,
    partitions_1d,
    term_count_enum,
)

import implicit_deriv.partitions
from implicit_deriv.partitions import TermCheckError, formula_heads, weighted_formula_heads
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

    @pytest.mark.parametrize("n", range(1, 9))
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
            formula_heads(0)

    def test_iterator_is_lazy(self):
        # a(30) = 323,685,343: only a walk that yields as it goes can start
        walk = weighted_formula_heads(30)
        assert next(walk) == (((30, 0),), (((), -1),))
        assert next(walk)[0] == ((29, 1), (1, 0))


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
        # With k -> k + 1 in place of k!, (2,1)+(1,0) gives 4 * 2 over
        # (3 * 2) * (2 * 1), times 2 for each multiplicity of 1
        p = Partition2D([(2, 1), (1, 0)])
        assert partition_coefficient(p) == 3
        monkeypatch.setattr(implicit_deriv.partitions, "factorial", lambda k: k + 1)
        with pytest.raises(ArithmeticError):
            partition_coefficient(p)

    def test_coordinate_sums_past_the_factorial_table(self):
        # coordinate sums far past any order whose expansion can be walked
        assert partition_coefficient(Partition2D([(5000, 0)])) == 1
        assert partition_coefficient(Partition2D([(300, 0), (1, 1)])) == 301
        for p in (
            Partition2D([(255, 0), (0, 255)]),
            Partition2D([(200, 2), (40, 25), (40, 25), (0, 7)]),
        ):
            assert partition_coefficient(p) == fraction_partition_coefficient(p), p

    def test_non_integral_chain_rule_weight_raises(self, monkeypatch):
        # With k -> k + 1 in place of k!, the chain-rule weight of (256, 1)
        # gives 258 over (257 * 1) * (2 * 1), times 2 for each multiplicity
        # of 1
        monkeypatch.setattr(implicit_deriv.partitions, "factorial", lambda k: k + 1)
        with pytest.raises(ArithmeticError):
            chain_rule_weight((256, 1))


def weighted_partitions(n: int):
    """Each term of `weighted_formula_heads(n)` as its partition and its
    weight, the coefficient's sign checked to be (-1)^(part count)."""
    for head, tails in weighted_formula_heads(n):
        for tail, coefficient in tails:
            p = Partition2D(head + tail)
            assert (coefficient < 0) == bool(p.size & 1), p
            yield p, abs(coefficient)


def _weighted_terms(n):
    # The weighted walk's terms one at a time, as (head, tail, coefficient).
    return (
        (head, tail, coefficient)
        for head, tails in weighted_formula_heads(n)
        for tail, coefficient in tails
    )


class TestWeightedWalk:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_weights_equal_partition_coefficient(self, n):
        walked = list(weighted_partitions(n))
        assert [p for p, _ in walked] == formula_partitions(n)
        for p, weight in walked:
            assert weight == partition_coefficient(p), p
            assert weight == fraction_partition_coefficient(p), p

    @pytest.mark.parametrize("n", [127, 128, 129, 200])
    def test_weights_at_high_orders(self, n):
        # the first terms of orders whose walk could never finish, with
        # factorials up to (2n - 2)!
        for p, weight in islice(weighted_partitions(n), 2000):
            assert weight == partition_coefficient(p), p

    def test_trailing_runs_at_a_high_order(self):
        # The first 2,000 heads of order 40 end in runs of up to 8 copies of
        # (1,0), each closed in one step of the walk; the run's factors and
        # the deficit it leaves show in every denominator and weight
        groups = islice(zip(formula_heads(40), weighted_formula_heads(40)), 2000)
        longest = 0
        for (head, head_denominator, _), (weighed_head, tails) in groups:
            assert weighed_head == head
            assert head_denominator == _product_of_factorials(head)
            for tail, coefficient in tails:
                assert abs(coefficient) == partition_coefficient(Partition2D(head + tail))
            longest = max(longest, head.count((1, 0)))
        assert longest == 8

    def test_planted_non_integral_denominator_raises(self, monkeypatch):
        # With k -> k + 1 in place of k!, the head (1,1)+(1,0) of the second
        # order-2 term has denominator 2 * 2 * 2 * 1 against 3 * 2
        monkeypatch.setattr(implicit_deriv.partitions, "factorial", lambda k: k + 1)
        walk = weighted_formula_heads(2)
        assert next(walk) == (((2, 0),), (((), -1),))
        with pytest.raises(ArithmeticError, match=r"\(1,1\)\+\(1,0\)"):
            next(walk)

    def test_a_failed_check_comes_after_the_good_terms_of_its_head(self, monkeypatch):
        # The last order-4 head, (1,0)^4, has the 3 tails of deficit 3; a
        # denominator of 7 on the third, which leaves a remainder, gives
        # that head with the first two, then the error, which is both a
        # ValueError and an ArithmeticError
        walked = list(formula_heads(4))
        head, head_denominator, (first, second, (tail, _)) = walked[-1]
        walked[-1] = head, head_denominator, (first, second, (tail, 7))
        monkeypatch.setattr(implicit_deriv.partitions, "formula_heads", lambda n: iter(walked))
        walk = weighted_formula_heads(4)
        groups = list(islice(walk, len(walked) - 1))
        assert sum(len(tails) for _, tails in groups) == 21
        assert next(walk) == (head, ((first[0], -1), (second[0], 10)))
        with pytest.raises(TermCheckError, match=r"weight for \(1,0\)\^4\+\(0,2\)\^3"):
            next(walk)
        assert issubclass(TermCheckError, ValueError)
        assert issubclass(TermCheckError, ArithmeticError)

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_one_factorial_of_n_before_the_first_group(self, monkeypatch, n):
        # n! is the largest factorial the first group needs (its one term is
        # (n, 0) alone) and the costliest at high orders: 0.1 s at 10^5
        calls = []

        def counted(k):
            calls.append(k)
            return factorial(k)

        monkeypatch.setattr(implicit_deriv.partitions, "factorial", counted)
        assert next(weighted_formula_heads(n)) == (((n, 0),), (((), -1),))
        assert calls.count(n) == 1

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_one_numerator_per_part_count(self, monkeypatch, n):
        # n! * (size - 1)! is made once for each part count the walk meets,
        # not once per term; the walk itself ran before factorial is counted
        heads = list(formula_heads(n))
        expected = list(weighted_formula_heads(n))
        calls = []

        def counted(k):
            calls.append(k)
            return factorial(k)

        monkeypatch.setattr(implicit_deriv.partitions, "factorial", counted)
        assert list(implicit_deriv.partitions._weigh(iter(heads))) == expected
        sizes = {len(head) + len(tail) for head, _, tails in heads for tail, _ in tails}
        assert sorted(calls) == sorted(size - 1 for size in sizes)

    def test_rejects_zero_before_yielding(self):
        for walk in (formula_heads, weighted_formula_heads):
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
        "walk", [_weighted_terms, formula_heads], ids=["terms", "partitions"]
    )
    def test_memory_stays_flat(self, walk):
        # The walk holds a frame per placed head part (not for the last part
        # or a trailing run of (1,0), which close the head in one step) and
        # the tails, made once per deficit: about 9 KB (heads) and 53 KB
        # (terms; 90 KB outside pytest) at their peak over the first 50,000
        # items of order 25 (Python 3.11.7).  A walk that caches each
        # state's candidate moves peaks near 1 MB here (and grows with n).
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
