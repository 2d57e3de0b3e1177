"""Independent brute-force oracles used only by the tests.

These deliberately avoid the code paths they are used to check: set
partitions are enumerated directly, the counting product is rebuilt from its
logarithm by a rational convolution recurrence rather than multiplied out,
multiplicity tables are enumerated by a different scheme than the package's
partition walk, and mixed partials come from symbolic differentiation rather
than the Taylor pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from implicit_deriv import (
    TruncatedSeries,
    evaluate,
    formula_partitions,
    log_series,
    mixed_partial,
)


def set_partitions(elements: list) -> Iterator[list[list]]:
    """All partitions of a set, by inserting the first element everywhere."""
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for blocks in set_partitions(rest):
        for index in range(len(blocks)):
            yield blocks[:index] + [blocks[index] + [head]] + blocks[index + 1 :]
        yield [[head]] + blocks


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set, by full enumeration."""
    return sum(1 for _ in set_partitions(list(range(n))))


def count_set_partitions_with_block_sizes(parts: tuple[int, ...]) -> int:
    """Set partitions of sum(parts) elements whose block sizes are `parts`."""
    target = tuple(sorted(parts, reverse=True))
    total = 0
    for blocks in set_partitions(list(range(sum(parts)))):
        if tuple(sorted((len(b) for b in blocks), reverse=True)) == target:
            total += 1
    return total


def classical_partition_count(n: int, max_part: int | None = None) -> int:
    """Number of partitions of n, by the bounded-largest-part recursion."""
    if n == 0:
        return 1
    if max_part is None:
        max_part = n
    return sum(
        classical_partition_count(n - k, k) for k in range(min(n, max_part), 0, -1)
    )


def count_part_tables(
    n: int, m: int, excluded: tuple = ((0, 0), (0, 1))
) -> int:
    """Multisets of parts with coordinate sums (n, m), counted by assigning a
    multiplicity to every admissible part in turn (a multiplicity-table walk,
    unlike the package's descending-part walk)."""
    parts = [
        (i, j)
        for i in range(n + 1)
        for j in range(m + 1)
        if (i, j) != (0, 0) and (i, j) not in excluded
    ]

    def assign(index: int, rx: int, ry: int) -> int:
        if rx == 0 and ry == 0:
            return 1
        if index == len(parts):
            return 0
        i, j = parts[index]
        total = 0
        multiplicity = 0
        while multiplicity * i <= rx and multiplicity * j <= ry:
            total += assign(index + 1, rx - multiplicity * i, ry - multiplicity * j)
            multiplicity += 1
        return total

    return assign(0, n, m)


def log_u_coefficient(m: int, t_bound: int) -> list[Fraction]:
    """t-coefficients of the u^m term of log of the corrected counting
    product, straight from the definition: sum over parts (i, j) and repeat
    counts r of (t^i u^(i+j-1))^r / r."""
    coeffs = [Fraction(0)] * (t_bound + 1)
    for s in range(1, m + 1):  # s = i + j - 1; only divisors of m contribute
        if m % s:
            continue
        r = m // s
        for i in range(s + 2):  # j = s + 1 - i >= 0; all such (i, j) admissible
            if i * r <= t_bound:
                coeffs[i * r] += Fraction(1, r)
    return coeffs


def log_recurrence_table(max_index: int, bound: int) -> list[TruncatedSeries]:
    """u-coefficients p_0 .. p_max_index of the corrected counting product,
    from its logarithm: p_0 = 1/(1 - t) and n * p_n = sum over s of
    s * q_s * p_(n-s), with q_s = log_series(s), in exact rationals."""
    logs = [log_series(s, bound) for s in range(1, max_index + 1)]
    table = [TruncatedSeries([1] * (bound + 1))]
    for n in range(1, max_index + 1):
        acc = TruncatedSeries.zero(bound)
        for s in range(1, n + 1):
            acc = acc + logs[s - 1] * table[n - s] * s
        table.append(acc * Fraction(1, n))
    return table


def required_derivatives_by_walk(n: int) -> set[tuple[int, int]]:
    """Mixed-partial orders the order-n expansion reads, collected from the
    parts of every formula partition plus (0, 1) for the denominator."""
    needed = {(0, 1)}
    for p in formula_partitions(n):
        needed.update(p.parts)
    return needed


def symbolic_table(e, x0: float, y0: float, n: int) -> dict[tuple[int, int], float]:
    """F and its mixed partials of total order <= n at (x0, y0), each by
    symbolic differentiation and a tree evaluation."""
    cache: dict = {}
    return {
        (i, j): evaluate(mixed_partial(e, i, j, cache), x0, y0)
        for i in range(n + 1)
        for j in range(n + 1 - i)
    }
