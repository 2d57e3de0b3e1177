"""Structural lemma for the four ways a partition p maps to a smaller q
during one total-derivative step: removing (1,1), lowering a part in x,
removing the pair {(1,0), (0,2)}, and lowering a part of p minus (1,0) in y.

For each relation the lemma pins down (a) how the part count and coordinate
sums change, (b) that p indexes a formula term iff q indexes one of the next
lower order, (c) how membership of (0,1) transfers, with exactly two
exceptional moves that always create a (0,1), and (d) the exact weight ratio.
Checked exhaustively for every partition of total weight at most 10.
"""

from fractions import Fraction

from implicit_deriv import Partition2D, lower_x, lower_y, partition_coefficient

from oracles import partitions_2d


def _weight_ratio(p: Partition2D, q: Partition2D) -> Fraction:
    return Fraction(partition_coefficient(q), partition_coefficient(p))


def _cases(p: Partition2D):
    """Yield (case, move, q) for every relation defined on p."""
    if (1, 1) in p and p.size > 1:
        yield 1, None, p.remove((1, 1))
    for (i, j) in set(p.parts):
        if i > 0 and (i, j) != (1, 0):
            yield 2, (i, j), lower_x(p, i, j)
    if (1, 0) in p and (0, 2) in p and p.size > 2:
        yield 3, None, p.remove((1, 0), (0, 2))
    if (1, 0) in p and p.size > 1:
        stripped = p.remove((1, 0))
        for (i, j) in set(stripped.parts):
            if j > 0 and (i, j) != (0, 1):
                yield 4, (i, j), lower_y(stripped, i, j)


def _all_partitions(total_weight: int):
    for n in range(total_weight + 1):
        for m in range(total_weight + 1 - n):
            if n == 0 and m == 0:
                continue
            for p in partitions_2d(n, m):
                yield n, m, p


SIZE_DROP = {1: 1, 2: 0, 3: 2, 4: 1}
SUM_DROP = {1: (1, 1), 2: (1, 0), 3: (1, 2), 4: (1, 1)}


def test_part_counts_and_sums():
    for n, m, p in _all_partitions(10):
        for case, _, q in _cases(p):
            assert p.size == q.size + SIZE_DROP[case]
            dx, dy = SUM_DROP[case]
            assert (q.x_sum, q.y_sum) == (n - dx, m - dy)


def test_formula_shape_transfers():
    for n, m, p in _all_partitions(10):
        for case, _, q in _cases(p):
            assert (p.y_sum == p.size - 1) == (q.y_sum == q.size - 1)


def test_unit_y_part_membership_transfer():
    for n, m, p in _all_partitions(10):
        for case, move, q in _cases(p):
            if (0, 1) not in q:
                assert (0, 1) not in p
            if (0, 1) not in p:
                exceptional = (case == 2 and move == (1, 1)) or (
                    case == 4 and move == (0, 2)
                )
                if exceptional:
                    assert (0, 1) in q
                else:
                    assert (0, 1) not in q


def test_weight_ratios():
    for n, m, p in _all_partitions(10):
        stripped = p.remove((1, 0)) if (1, 0) in p and p.size > 1 else None
        for case, move, q in _cases(p):
            if case == 1:
                expected = Fraction(p.multiplicity(1, 1), n * m)
            elif case == 2:
                i, j = move
                expected = Fraction(
                    i * p.multiplicity(i, j), n * (p.multiplicity(i - 1, j) + 1)
                )
            elif case == 3:
                expected = Fraction(
                    2 * p.multiplicity(1, 0) * p.multiplicity(0, 2),
                    n * m * (m - 1),
                )
            else:
                i, j = move
                expected = Fraction(
                    j * p.multiplicity(i, j) * p.multiplicity(1, 0),
                    n * m * (stripped.multiplicity(i, j - 1) + 1),
                )
            assert _weight_ratio(p, q) == expected, (p, case, move)
