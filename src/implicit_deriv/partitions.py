"""One- and two-dimensional integer partitions.

A two-dimensional partition is a multiset of parts (i, j), where i and j are
non-negative integers not both zero, kept as a lexicographically non-increasing
sequence.  The partitions indexing the implicit-derivative expansion of order n
("formula partitions") are those whose first coordinates sum to n, whose second
coordinates sum to one less than the number of parts, and which avoid the part
(0, 1).

One-dimensional partitions are represented as plain non-increasing tuples of
positive integers.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial
from operator import mul
from typing import Iterable, Iterator

Part = tuple[int, int]


def _validate_part(part: Part) -> Part:
    i, j = part
    if type(i) is not int or type(j) is not int:
        raise ValueError(f"part coordinates must be integers, not {[i, j]!r}")
    if i < 0 or j < 0 or (i, j) == (0, 0):
        raise ValueError(f"invalid part {part!r}: coordinates must be "
                         "non-negative and not both zero")
    return (i, j)


class Partition2D:
    """A two-dimensional partition: canonically sorted multiset of parts.

    Construction canonicalizes (sorts non-increasing) and validates the parts.
    Instances are immutable values; all derived quantities (coordinate sums,
    multiplicities) are computed from the part sequence.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[Part]):
        items = [_validate_part(part) for part in parts]
        if not items:
            raise ValueError("a partition needs at least one part")
        self._parts = tuple(sorted(items, reverse=True))

    @classmethod
    def _from_sorted(cls, parts: tuple[Part, ...]) -> "Partition2D":
        # Fast path for enumerators that already produce canonical sequences.
        self = object.__new__(cls)
        self._parts = parts
        return self

    @property
    def parts(self) -> tuple[Part, ...]:
        return self._parts

    @property
    def x_sum(self) -> int:
        """Sum of the first coordinates."""
        return sum(i for i, _ in self._parts)

    @property
    def y_sum(self) -> int:
        """Sum of the second coordinates."""
        return sum(j for _, j in self._parts)

    @property
    def size(self) -> int:
        """Number of parts, counted with multiplicity."""
        return len(self._parts)

    def multiplicity(self, i: int, j: int) -> int:
        """Number of occurrences of the part (i, j)."""
        return self._parts.count((i, j))

    def multiplicities(self) -> dict[Part, int]:
        """Multiplicity table, keyed by part in canonical (descending) order.

        Equal parts are adjacent in canonical order, so one pass counts each
        run of them.  Every multiplicity table in the package comes from
        here; `partition_coefficient` counts the runs within its own pass.
        """
        parts = self._parts
        counts: dict[Part, int] = {}
        previous, start = parts[0], 0
        for index, part in enumerate(parts):
            if part != previous:
                counts[previous] = index - start
                previous, start = part, index
        counts[previous] = len(parts) - start
        return counts

    def is_formula_partition(self) -> bool:
        """True when this partition indexes a term of the derivative formula
        of order ``x_sum``: second coordinates sum to size - 1 and (0, 1) is
        not a part.  One pass over the parts: (0, 1) is the least part there
        is, so if present it is the last canonical part."""
        parts = self._parts
        y_sum = 0
        for _, j in parts:
            y_sum += j
        return y_sum == len(parts) - 1 and parts[-1] != (0, 1)

    def remove(self, *parts: Part) -> "Partition2D":
        """Partition with one copy of each listed part removed.

        Raises ValueError if a part is absent or nothing would remain.
        """
        remaining = list(self._parts)
        for part in parts:
            try:
                remaining.remove(part)
            except ValueError:
                raise ValueError(f"part {part!r} not present in {self}") from None
        if not remaining:
            raise ValueError("removal would leave an empty partition")
        return Partition2D._from_sorted(tuple(remaining))

    def to_json(self) -> list[list[int]]:
        """Serialize as a list of [i, j] pairs in canonical order."""
        return [[i, j] for i, j in self._parts]

    def __contains__(self, part: Part) -> bool:
        return part in self._parts

    def __iter__(self) -> Iterator[Part]:
        return iter(self._parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition2D):
            return NotImplemented
        return self._parts == other._parts

    # The one ordering method: sorted() needs only <, and a > b falls back
    # to b < a.
    def __lt__(self, other: "Partition2D") -> bool:
        return self._parts < other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __str__(self) -> str:
        return "+".join([
            f"({i},{j})" if count == 1 else f"({i},{j})^{count}"
            for (i, j), count in self.multiplicities().items()
        ])

    def __repr__(self) -> str:
        return f"Partition2D({list(self._parts)!r})"


def lower_x(p: Partition2D, i: int, j: int) -> Partition2D:
    """Move one copy of the part (i, j) to (i - 1, j).

    Defined for i > 0, j >= 0, (i, j) != (1, 0) and (i, j) present in p; the
    excluded case would create the empty part (0, 0).  The number of parts is
    preserved; the first-coordinate sum drops by one.
    """
    if i <= 0 or j < 0 or (i, j) == (1, 0):
        raise ValueError(f"lower_x undefined for part ({i},{j})")
    if p.multiplicity(i, j) == 0:
        raise ValueError(f"part ({i},{j}) not present in {p}")
    remaining = list(p.parts)
    remaining.remove((i, j))
    remaining.append((i - 1, j))
    return Partition2D(remaining)


def lower_y(p: Partition2D, i: int, j: int) -> Partition2D:
    """Move one copy of the part (i, j) to (i, j - 1).

    Defined for i >= 0, j > 0, (i, j) != (0, 1) and (i, j) present in p.  The
    number of parts is preserved; the second-coordinate sum drops by one.
    """
    if i < 0 or j <= 0 or (i, j) == (0, 1):
        raise ValueError(f"lower_y undefined for part ({i},{j})")
    if p.multiplicity(i, j) == 0:
        raise ValueError(f"part ({i},{j}) not present in {p}")
    remaining = list(p.parts)
    remaining.remove((i, j))
    remaining.append((i, j - 1))
    return Partition2D(remaining)


def partitions_1d(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n into positive parts, non-increasing, in descending
    lexicographic order.  partitions_1d(0) is [()]."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    result: list[tuple[int, ...]] = []
    for first in range(min(max_part, n), 0, -1):
        for rest in partitions_1d(n - first, first):
            result.append((first,) + rest)
    return result


def iter_formula_partitions(n: int) -> Iterator[Partition2D]:
    """The partitions indexing the order-n derivative expansion, yielded one
    at a time in descending lexicographic order; raises ValueError on n < 1
    before yielding anything.

    These are the two-dimensional partitions with first coordinates summing to
    n, second coordinates summing to (number of parts) - 1, and (0, 1) not a
    part.  Every such partition has at most 2n - 1 parts.

    The walk places parts in non-increasing order, tracking the remaining
    first-coordinate weight rx and the remaining value `deficit` that the sum
    of (j - 1) over the still-unplaced parts must reach (the second-coordinate
    constraint rewritten per part).  Parts with i = 0 must have j >= 2 and can
    only raise the deficit, so they come last: once rx is exhausted, the
    values j - 1 of the remaining parts form any one-dimensional partition of
    the deficit.  Those tails are made once per deficit met (at most n
    lists) and every prefix shares them.  The walk holds only the current
    prefix and the tails, so memory does not grow with the number of
    partitions.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    chosen: list[Part] = []
    tails: dict[int, list[tuple[Part, ...]]] = {}

    def descend(bound_i: int, bound_j: int, rx: int, deficit: int) -> Iterator[Partition2D]:
        for i in range(min(bound_i, rx), 0, -1):
            # j - 1 may not exceed what later parts can compensate: each of
            # the at most rx - i remaining x-carrying parts contributes >= -1.
            j_top = deficit + rx - i + 1
            if i == bound_i:
                j_top = min(j_top, bound_j)
            for j in range(j_top, -1, -1):
                chosen.append((i, j))
                left = deficit - (j - 1)
                if i < rx:
                    yield from descend(i, j, rx - i, left)
                else:
                    if left not in tails:
                        tails[left] = [
                            tuple((0, k + 1) for k in parts) for parts in partitions_1d(left)
                        ]
                    head = tuple(chosen)
                    for tail in tails[left]:
                        yield Partition2D._from_sorted(head + tail)
                chosen.pop()

    return descend(n, n, n, -1)


def formula_partitions(n: int) -> list[Partition2D]:
    """All partitions of `iter_formula_partitions(n)`, as a list."""
    return list(iter_formula_partitions(n))


# k! at index k, for k below 256.  A weight whose coordinate sums reach 256,
# far past any order whose expansion can be enumerated, reads its factorials
# from _AnyFactorial instead, so the table never grows.
_FACTORIALS = tuple(accumulate(range(1, 256), mul, initial=1))


class _AnyFactorial:
    """k! for any k, read by subscript as from `_FACTORIALS`."""

    __slots__ = ()

    def __getitem__(self, k: int) -> int:
        return factorial(k)


def partition_coefficient(p: Partition2D) -> int:
    """Weight of a two-dimensional partition: the bivariate analogue of the
    chain-rule coefficient.

    With n and m the coordinate sums, this is n! * m! divided by the product
    of i! * j! over the parts and the factorials of the multiplicities.  One
    pass over the canonical parts accumulates n, m and that denominator: equal
    parts are adjacent, so multiplying in the running length r of each run of
    equal parts contributes exactly the multiplicity factorials.  Factorials
    are read from a fixed table of 0! .. 255!, or computed past it.  The
    quotient is an exact integer division checked to leave no remainder,
    which holds empirically but is asserted rather than assumed.
    """
    try:
        numerator, denominator = _weight_terms(p, _FACTORIALS)
    except IndexError:
        numerator, denominator = _weight_terms(p, _AnyFactorial())
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"non-integral partition weight for {p}")
    return value


def _weight_terms(p: Partition2D, table) -> tuple[int, int]:
    # The numerator and denominator of partition_coefficient, with k! read
    # as table[k]; the one pass over the parts that its docstring describes.
    x_sum = y_sum = 0
    denominator = run = 1
    previous = None
    for part in p.parts:
        i, j = part
        x_sum += i
        y_sum += j
        if part == previous:
            run += 1
            denominator *= table[i] * table[j] * run
        else:
            run = 1
            denominator *= table[i] * table[j]
            previous = part
    return table[x_sum] * table[y_sum], denominator
