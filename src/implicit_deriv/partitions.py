"""One- and two-dimensional integer partitions.

A two-dimensional partition is a multiset of parts (i, j), where i and j are
non-negative integers not both zero, kept as a lexicographically non-increasing
sequence.  The partitions indexing the implicit-derivative expansion of order n
("formula partitions") are those whose first coordinates sum to n, whose second
coordinates sum to one less than the number of parts, and which avoid the part
(0, 1).

One walk makes them (`formula_heads`): it yields each head (the parts with
i >= 1) with the denominator of its weight and the shared tails (the
parts (0, j)) that complete it.  The partitions (`formula_partitions`), the
terms grouped by head (`weighted_formula_heads`, each tail with its term's
checked, signed coefficient) and the enumeration count all read that walk;
`partition_coefficient` weighs any single partition.  The terms stay
grouped by head up to their rendering, so that what a head's terms share
(its labels, its part count, its y-sum) is worked out once per head, and
what a tail's share once per tail.

One-dimensional partitions are represented as plain non-increasing tuples of
positive integers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain
from math import factorial, perm

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
        """Multiplicity table, keyed by part in canonical (descending) order:
        the runs of `part_runs`."""
        return dict(part_runs(self._parts))

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
        return parts_label(self._parts)

    def __repr__(self) -> str:
        return f"Partition2D({list(self._parts)!r})"


def part_runs(parts: tuple[Part, ...]) -> list[tuple[Part, int]]:
    """Each run of equal parts of a canonical part sequence, in order, as
    (part, length).  Equal parts are adjacent in canonical order, so one
    pass finds them."""
    runs = []
    previous, count = None, 0
    for part in parts:
        if part == previous:
            count += 1
        else:
            if count:
                runs.append((previous, count))
            previous, count = part, 1
    if count:
        runs.append((previous, count))
    return runs


def parts_label(parts: tuple[Part, ...]) -> str:
    """A canonical part sequence as `str(Partition2D)` prints it: each run
    as (i,j), or (i,j)^length past one, joined by "+".  No run crosses
    from a head to its tail, so a partition's label is its head's label,
    "+" and its tail's."""
    return "+".join([
        f"({i},{j})" if count == 1 else f"({i},{j})^{count}"
        for (i, j), count in part_runs(parts)
    ])


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


# The highest order the streaming commands (expand and partitions as text or
# LaTeX, compare-cf) accept.  The walk starts at once at any order, but each
# term of order n is weighed with factorials of up to 2n - 2 and renders to
# O(n) bytes.  At this cap the first line comes in 0.25 s in 18 MB; at 10^6
# it takes 10 s, math.factorial(10^6) alone 5 s, and each further line
# seconds more (2 vCPUs, Python 3.11).  Past sys.maxsize, math.factorial
# refuses the order outright.
MAX_STREAM_ORDER = 100_000


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
    factor per part placed.  A trailing run of (1, 0), the least head part,
    leaves nothing to choose once its first copy is the candidate, so it
    closes the head in that one step, with one factor for the whole run.
    Its memory is the current head and the tails, whatever the number of
    partitions.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    return _walk_heads(n)


def _walk_heads(n: int) -> Iterator[tuple[Head, int, Tails]]:
    tails: dict[int, Tails] = {}
    head: list[Part] = []
    # The open frame places the next head part; the head's last part and
    # a trailing run of (1, 0) close it without a frame of their own.  The
    # frame holds the part placed before it, (bi, bj), with that part's run
    # length and the head's denominator through it, its state (rx, deficit)
    # and its candidate part (i, j).  A frame below it keeps only (bi, bj,
    # run, denominator): its candidate is the (bi, bj) of the frame above,
    # and its state is that frame's with the candidate added back.
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
        if i == rx:
            # The candidate is the head's last part.
            placed = denominator * factorial(i) * factorial(j) * r
            left = deficit - j + 1
            closed = (*head, (i, j))
        elif j or i > 1:
            # Open a frame for the next part, at most (i, j); its first
            # candidate is the highest the advance can reach from one above.
            frames.append((bi, bj, run, denominator))
            head.append((i, j))
            denominator *= factorial(i) * factorial(j) * r
            bi, bj, run, rx, deficit = i, j, r, rx - i, deficit - j + 1
            i = min(bi, rx)
            j = deficit + rx - i + 1
            if i == bi and j > bj:
                j = bj
            j += 1
            continue
        else:
            # The candidate is (1, 0) with more to place.  It is the least
            # head part, so every later head part is (1, 0) too: the head
            # closes here with rx copies of it, whose run factors are r,
            # r + 1, ..., r + rx - 1, and each copy adds one to the deficit.
            placed = denominator * perm(r + rx - 1, rx)
            left = deficit + rx
            closed = (*head, *((1, 0),) * rx)
        completions = tails.get(left)
        if completions is None:
            completions = tails[left] = _tails(left)
        yield closed, placed, completions


def _tails(deficit: int) -> Tails:
    # Every tail closing a head that leaves `deficit`, with its denominator.
    tails = []
    for values in partitions_1d(deficit):
        parts = tuple([(0, k + 1) for k in values])
        tails.append((parts, _denominator(parts)))
    return tuple(tails)


class TermCheckError(ValueError, ArithmeticError):
    """A term of `weighted_formula_heads` failed a check: its weight is not
    a positive integer, or its partition is not a formula partition.  An
    ArithmeticError for the weight, a ValueError for the sign and the
    shape, as the same checks raise on a single term."""


# A group of the weighted walk: a head and each tail completing it, with
# the signed coefficient of the term they make.
WeightedHead = tuple[Head, tuple[tuple[tuple[Part, ...], int], ...]]


def weighted_formula_heads(n: int) -> Iterator[WeightedHead]:
    """The order-n terms grouped by head: each head of `formula_heads(n)`
    with each of its tails and the signed coefficient of the term that head
    and tail make, in the same order as `formula_partitions(n)`.
    Raises ValueError on n < 1 before yielding anything.

    The coefficient of a partition is (-1)^size times its weight, n! *
    (size - 1)! over the head's and the tail's denominators (see
    `partition_coefficient`).  Every term is checked as it is weighed, with
    the checks a single `FormulaTerm` makes: an exact division, a positive
    weight, a y-sum of size - 1 and no part (0, 1).  The y-sum, the part
    count and the presence of (0, 1) are found once per head and once per
    tail, so each check is a few integer operations per term.  On a failed
    check the walk yields the terms of that head made before it, then
    raises TermCheckError.
    """
    return _weigh(formula_heads(n))


def _weigh(heads: Iterator[tuple[Head, int, Tails]]) -> Iterator[WeightedHead]:
    # The walk's first head is (n, 0) alone, and its denominator n! * 0! * 1
    # is the n! of every weight, so n! is computed once per walk.
    first = next(heads)
    top = first[1]
    # The numerator n! * (size - 1)! of each part count met, made once per
    # walk: a walk meets at most 2n - 1 part counts, but a(n) terms.
    numerators: dict[int, int] = {}
    # The shapes of each tails tuple the walk yields (one per deficit, shared
    # by every head leaving it), keyed by identity; each value holds its
    # tuple, so no id is reused while the walk runs.
    shapes: dict[int, tuple] = {}
    for head, head_denominator, tails in chain((first,), heads):
        shape = shapes.get(id(tails))
        if shape is None:
            shape = shapes[id(tails)] = (tails, _tail_shapes(tails))
        head_size = len(head)
        # The sum of j - 1 that the tail's parts must make up; None when
        # the head holds (0, 1), which no tail can mend.
        deficit = None if (0, 1) in head else head_size - 1 - sum([j for _, j in head])
        weighed = []
        for tail, tail_denominator, tail_size, excess in shape[1]:
            size = head_size + tail_size
            numerator = numerators.get(size)
            if numerator is None:
                numerator = numerators[size] = top * factorial(size - 1)
            weight, remainder = divmod(numerator, head_denominator * tail_denominator)
            if remainder or weight <= 0 or excess != deficit or deficit is None:
                if weighed:
                    yield head, tuple(weighed)
                raise _failed_check(head + tail, remainder, weight)
            weighed.append((tail, -weight if size & 1 else weight))
        yield head, tuple(weighed)


def _tail_shapes(tails: Tails) -> tuple[tuple[tuple[Part, ...], int, int, int | None], ...]:
    # Each tail with its denominator, its part count and its excess, the sum
    # of j - 1 over its parts, which must equal its head's deficit; None for
    # a tail holding (0, 1).
    return tuple([
        (tail, denominator, len(tail),
         None if (0, 1) in tail else sum([j for _, j in tail]) - len(tail))
        for tail, denominator in tails
    ])


def _failed_check(parts: tuple[Part, ...], remainder: int, weight: int) -> TermCheckError:
    # The first check the term fails, in the order a single term is checked.
    p = Partition2D._from_sorted(parts)
    if remainder:
        return TermCheckError(f"non-integral partition weight for {p}")
    if weight <= 0:
        return TermCheckError(
            f"weight {weight} of {p}: coefficient sign must be (-1)^(part count)"
        )
    return TermCheckError(f"{p} is not a formula partition")


def formula_partitions(n: int) -> list[Partition2D]:
    """The partitions indexing the order-n derivative expansion, in
    descending lexicographic order: each head of `formula_heads(n)`
    followed by each of its tails.  Raises ValueError on n < 1."""
    return [
        Partition2D._from_sorted(head + tail)
        for head, _, tails in formula_heads(n)
        for tail, _ in tails
    ]


def _denominator(parts: tuple[Part, ...]) -> int:
    # The product of i! * j! over canonical parts times the factorials of
    # the multiplicities: (i! * j!)^length * length! over the runs.
    denominator = 1
    for (i, j), length in part_runs(parts):
        denominator *= (factorial(i) * factorial(j)) ** length * factorial(length)
    return denominator


def partition_coefficient(p: Partition2D) -> int:
    """Weight of a two-dimensional partition: the bivariate analogue of the
    chain-rule coefficient.

    With n and m the coordinate sums, this is n! * m! divided by the product
    of i! * j! over the parts and the factorials of the multiplicities.
    Every factorial comes from `math.factorial`.  The quotient is an exact
    integer division checked to leave no remainder, which holds empirically
    but is asserted rather than assumed.
    For formula partitions, `weighted_formula_heads` gives the same weights,
    signed, as it walks.
    """
    value, remainder = divmod(factorial(p.x_sum) * factorial(p.y_sum), _denominator(p.parts))
    if remainder:
        raise ArithmeticError(f"non-integral partition weight for {p}")
    return value
