"""Independent brute-force oracles used only by the tests.

These deliberately avoid the code paths they are used to check: set
partitions are enumerated directly, the counting product is rebuilt from its
logarithm by a rational convolution recurrence rather than multiplied out,
multiplicity tables are enumerated by a different scheme than the package's
partition walk, mixed partials come from symbolic differentiation rather
than the Taylor pass, partition weights are exact rationals over a
multiplicity `Counter` rather than one integer pass, the JSON rendering
goes through `json.dumps` rather than string building, and the expansion is
evaluated on a derivative table term by term rather than by coefficient
extraction.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterator

from implicit_deriv import (
    TruncatedSeries,
    build_formula,
    evaluate,
    formula_partitions,
    log_series,
    mixed_partial,
)
from implicit_deriv.formula import JSON_SCHEMA_ID


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


def fraction_partition_coefficient(p) -> int:
    """Weight n! * m! / (prod of i! * j! * prod of e!) of a two-dimensional
    partition, as a `Fraction` over the multiplicities of a `Counter`;
    raises ArithmeticError if it is not an integer."""
    numerator = factorial(sum(i for i, _ in p.parts)) * factorial(sum(j for _, j in p.parts))
    denominator = prod(factorial(i) * factorial(j) for i, j in p.parts)
    denominator *= prod(factorial(e) for e in Counter(p.parts).values())
    value = Fraction(numerator, denominator)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral partition weight for {p}")
    return int(value)


def json_dumps_render(formula) -> str:
    """The `implicit-deriv/1` JSON document of a formula, as a payload of
    dicts and lists serialised by `json.dumps`."""
    payload = {
        "schema": JSON_SCHEMA_ID,
        "n": formula.n,
        "term_count": len(formula.terms),
        "terms": [
            {
                "coefficient": str(term.coefficient),
                "partition": [[i, j] for i, j in term.partition.parts],
                "fy_exponent": term.fy_exponent,
            }
            for term in formula.terms
        ],
    }
    return json.dumps(payload)


def counter_evaluate_formula(formula, table) -> float:
    """The expansion summed on a derivative table, each term's partials
    raised to the multiplicities of a `Counter` in order of first
    appearance."""
    fy = table[(0, 1)]
    total = 0.0
    for term in formula.terms:
        product = float(term.coefficient)
        for part, multiplicity in Counter(term.partition.parts).items():
            product *= table[part] ** multiplicity
        total += product / fy**term.fy_exponent
    return total


def term_loop_evaluate_formula(n: int, table):
    """The order-n expansion summed term by term on a derivative table, in
    canonical order, each term's runs of equal parts raised to one power in
    order of first appearance.  Generic over the table's scalar: exact on a
    `Fraction` table."""
    fy = table[(0, 1)]
    total = 0
    for term in build_formula(n).terms:
        product = term.coefficient
        previous, run = None, 0
        for part in term.partition.parts:
            if part == previous:
                run += 1
            else:
                if run:
                    product *= table[previous] ** run
                previous, run = part, 1
        product *= table[previous] ** run
        total += product / fy**term.fy_exponent
    return total


def _falling(a: Fraction, k: int) -> Fraction:
    value = Fraction(1)
    for i in range(k):
        value *= a - i
    return value


def circle_derivative(n: int, x: float) -> float:
    """d^n y/dx^n of the upper unit circle y = (1 - x)^(1/2) (1 + x)^(1/2),
    by the Leibniz rule on the two factors."""
    half = Fraction(1, 2)
    return sum(
        comb(n, k)
        * float((-1) ** k * _falling(half, k) * _falling(half, n - k))
        * (1 - x) ** (0.5 - k)
        * (1 + x) ** (0.5 - n + k)
        for k in range(n + 1)
    )
