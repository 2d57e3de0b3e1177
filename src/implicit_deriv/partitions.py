"""One- and two-dimensional integer partitions.

A two-dimensional partition is a multiset of parts (i, j), where i and j are
non-negative integers not both zero, kept as a lexicographically non-increasing
sequence.  The partitions indexing the implicit-derivative expansion of order n
("formula partitions") are those whose first coordinates sum to n, whose second
coordinates sum to one less than the number of parts, and which avoid the part
(0, 1).

One walk makes them (`formula_heads`): it yields each head (the parts with
i >= 1) with the denominator of its weight and the shared tails (the
parts (0, j)) that complete it.  The partitions (`iter_formula_partitions`),
the partitions with their weights (`weighted_formula_partitions`) and the
enumeration count all read that walk; `partition_coefficient` weighs any
single partition.

One-dimensional partitions are represented as plain non-increasing tuples of
positive integers.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial
from operator import mul
from typing import Iterable, Iterator

Part = tuple[int, int]
# A head of a formula partition, and the tails completing it, each with its
# denominator (see `formula_heads`).
Head = tuple[Part, ...]
Tails = tuple[tuple[tuple[Part, ...], int], ...]


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
        here; the weights count the runs as they multiply their
        denominators.
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


def formula_heads(n: int) -> Iterator[tuple[Head, int, Tails]]:
    """The heads of the order-n formula partitions, each with its
    denominator and the tails that complete it, yielded in
    descending lexicographic order; raises ValueError on n < 1 before
    yielding anything.  This one walk serves the partitions, their weights
    and the enumeration count.

    A formula partition has first coordinates summing to n, second
    coordinates summing to (number of parts) - 1, and (0, 1) not a part; it
    has at most 2n - 1 parts.  Its head is its parts with i >= 1, its tail
    the parts (0, j), which must have j >= 2 and so come last.  The walk
    places head parts in non-increasing order, tracking the remaining
    first-coordinate weight rx and the remaining value `deficit` that the sum
    of (j - 1) over the still-unplaced parts must reach (the
    second-coordinate constraint rewritten per part).  Once rx is exhausted,
    the values j - 1 of the tail's parts form any one-dimensional partition
    of the deficit.  Those tails are made once per deficit met (at most n
    tuples of them) and every head leaving that deficit shares them.

    A head's denominator is the product of i! * j! * r over its parts, r
    the running length of each run of equal parts; each tail carries the
    same product over its own parts.  No run of equal parts crosses from
    head to tail, so a partition's weight is n! * (size - 1)! over the two
    denominators (see `partition_coefficient`).

    The walk is a loop over one explicit stack, a frame per placed head
    part, not a recursion: it advances from candidate to candidate by
    arithmetic and carries the head's denominator down the stack, one
    factor per part placed.  Its memory is the current head and the tails,
    whatever the number of partitions.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    return _walk_heads(n)


def _walk_heads(n: int) -> Iterator[tuple[Head, int, Tails]]:
    table = _factorials(2 * n - 2)
    tails: dict[int, Tails] = {}
    head: list[Part] = []
    # The open frame places the next head part.  It holds the part placed
    # before it, (bi, bj), with that part's run length and the head's
    # denominator through it, its state (rx, deficit) and its candidate
    # part (i, j).  A frame below it keeps only (bi, bj, run, denominator):
    # its candidate is the (bi, bj) of the frame above, and its state is
    # that frame's with the candidate added back.
    frames: list[tuple[int, int, int, int]] = []
    bi = bj = n  # the first part is at most (n, n) ...
    run, denominator, rx, deficit = 0, 1, n, -1
    i, j = n, 1  # ... and is (n, 0); j starts one above it for the advance
    while True:
        # Advance to the next candidate: j down to 0, then i down to 1 with
        # j from its top, deficit + rx - i + 1 (j - 1 may overshoot the
        # deficit by at most rx - i: each of the at most rx - i later head
        # parts makes up at most one), then back to the frame below.
        j -= 1
        while j < 0:
            if i > 1:
                i -= 1
                j = deficit + rx - i + 1
            elif frames:
                i, j = bi, bj
                rx += i
                deficit += j - 1
                bi, bj, run, denominator = frames.pop()
                head.pop()
                j -= 1
            else:
                return
        r = run + 1 if i == bi and j == bj else 1
        placed = denominator * table[i] * table[j] * r
        left = deficit - j + 1
        if i < rx:
            # Open a frame for the next part, at most (i, j); its first
            # candidate is the highest the advance can reach from one above.
            frames.append((bi, bj, run, denominator))
            head.append((i, j))
            bi, bj, run, denominator, rx, deficit = i, j, r, placed, rx - i, left
            i = min(bi, rx)
            j = deficit + rx - i + 1
            if i == bi and j > bj:
                j = bj
            j += 1
            continue
        completions = tails.get(left)
        if completions is None:
            completions = tails[left] = _tails(left, table)
        yield (*head, (i, j)), placed, completions


def _tails(deficit: int, table) -> Tails:
    # Every tail closing a head that leaves `deficit`, with its denominator.
    tails = []
    for values in partitions_1d(deficit):
        parts = tuple([(0, k + 1) for k in values])
        tails.append((parts, _denominator(parts, table)))
    return tuple(tails)


def iter_formula_partitions(n: int) -> Iterator[Partition2D]:
    """The partitions indexing the order-n derivative expansion, yielded one
    at a time in descending lexicographic order: each head of
    `formula_heads(n)` followed by each of its tails.  Raises ValueError on
    n < 1 before yielding anything."""
    heads = formula_heads(n)
    return (
        Partition2D._from_sorted(head + tail)
        for head, _, tails in heads
        for tail, _ in tails
    )


def weighted_formula_partitions(n: int) -> Iterator[tuple[Partition2D, int]]:
    """Each partition of `iter_formula_partitions(n)`, in the same order,
    with its weight `partition_coefficient`: n! * (size - 1)! over the
    head's and the tail's denominators from `formula_heads(n)`, an exact
    division checked to leave no remainder.  Raises ValueError on n < 1
    before yielding anything."""
    return _weighted(n, formula_heads(n))


def _weighted(n: int, heads) -> Iterator[tuple[Partition2D, int]]:
    table = _factorials(2 * n - 2)
    top = table[n]
    for head, head_denominator, tails in heads:
        for tail, tail_denominator in tails:
            parts = head + tail
            weight, remainder = divmod(
                top * table[len(parts) - 1], head_denominator * tail_denominator
            )
            if remainder:
                raise ArithmeticError(
                    f"non-integral partition weight for {Partition2D._from_sorted(parts)}"
                )
            yield Partition2D._from_sorted(parts), weight


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


def _factorials(top: int):
    # A table of k! for every k <= top.
    return _FACTORIALS if top < len(_FACTORIALS) else _AnyFactorial()


def _denominator(parts: tuple[Part, ...], table) -> int:
    # The product of i! * j! * r over canonical parts, r the running length
    # of each run of equal parts (adjacent in canonical order): the product
    # of i! * j! times the factorials of the multiplicities.
    denominator = run = 1
    previous = None
    for part in parts:
        i, j = part
        if part == previous:
            run += 1
            denominator *= table[i] * table[j] * run
        else:
            run = 1
            denominator *= table[i] * table[j]
            previous = part
    return denominator


def partition_coefficient(p: Partition2D) -> int:
    """Weight of a two-dimensional partition: the bivariate analogue of the
    chain-rule coefficient.

    With n and m the coordinate sums, this is n! * m! divided by the product
    of i! * j! over the parts and the factorials of the multiplicities.
    Factorials are read from a fixed table of 0! .. 255!, or computed past
    it.  The quotient is an exact integer division checked to leave no
    remainder, which holds empirically but is asserted rather than assumed.
    For formula partitions, `weighted_formula_partitions` gives the same
    weights as it walks.
    """
    x_sum, y_sum = p.x_sum, p.y_sum
    table = _factorials(max(x_sum, y_sum))
    value, remainder = divmod(table[x_sum] * table[y_sum], _denominator(p.parts, table))
    if remainder:
        raise ArithmeticError(f"non-integral partition weight for {p}")
    return value
