"""Closed-form expansion of d^n y/dx^n for an implicitly defined y(x).

For F(x, y) = 0 with F_y != 0, the n-th derivative of y is a signed integer
combination of products of mixed partials of F divided by powers of F_y: one
term per formula partition p, with coefficient (-1)^size * weight(p) and
denominator exponent equal to the number of parts.

Every command reads the terms as the weighted walk yields them, grouped by
head (`weighted_formula_heads`): to render them (`render_chunks`), in
memory that does not grow with the number of terms, or to pair each with
its 1974 coefficient (`cf_original_groups`).  The renderer formats each
head's labels once and each distinct tail's once; `build_formula` and
`render` hold the whole expansion or its whole rendering, `render` passing
each held term to the same renderer as a head with the empty tail.

The module also computes the coefficient that Comtet and Fiolet's 1974
publication assigns to each term, and the bookkeeping (row/column sums of
the multiplicity table) in which the publication states it.  For a formula
partition the published factor q = 1 + sum of (j - 1) over the parts with
j >= 2 is the number of parts (i, 0), all of them in the head, and the 1974
coefficient is q times the term's weight: too large whenever q > 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from operator import itemgetter

from ._record import Record
# formula_partitions is unused here: bench/trace_child.py wraps it under
# this name, bound at import beside the names this module reads from
# partitions.
from .partitions import (  # noqa: F401
    Head,
    Part,
    Partition2D,
    WeightedHead,
    formula_partitions,
    part_runs,
    partition_coefficient,
    weighted_formula_heads,
)

JSON_SCHEMA_ID = "implicit-deriv/1"
RENDER_FORMATS = ("text", "latex", "json")

# The denominator F_y, labelled as the part (0, 1).
_F_Y: Part = (0, 1)


class FormulaTerm(Record):
    """One term of the expansion: partition and signed coefficient.

    Construction checks that the coefficient's sign is (-1)^(part count) and
    that the partition is a formula partition
    (`Partition2D.is_formula_partition`).
    """

    __slots__ = ("partition", "coefficient")
    partition: Partition2D
    coefficient: int

    def __init__(self, partition: Partition2D, coefficient: int):
        if not (coefficient < 0 if len(partition.parts) & 1 else coefficient > 0):
            raise ValueError("coefficient sign must be (-1)^(part count)")
        if not partition.is_formula_partition():
            raise ValueError(f"{partition} is not a formula partition")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "coefficient", coefficient)

    @classmethod
    def _from_checked(cls, partition: Partition2D, coefficient: int) -> "FormulaTerm":
        # For terms of the weighted walk, which has made the same checks.
        self = object.__new__(cls)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "coefficient", coefficient)
        return self

    @property
    def fy_exponent(self) -> int:
        """The power of F_y in the denominator: the part count."""
        return len(self.partition.parts)


class DerivativeFormula(Record):
    """The full order-n expansion, terms in canonical (descending) order."""

    __slots__ = ("n", "terms")
    n: int
    terms: tuple[FormulaTerm, ...]


def build_formula(n: int) -> DerivativeFormula:
    """Expansion of the n-th derivative, held: a term per partition of the
    weighted walk (`weighted_formula_heads`), whose checks each term has
    passed, in descending lexicographic order of the part sequences."""
    make = FormulaTerm._from_checked
    return DerivativeFormula(n=n, terms=tuple([
        make(Partition2D._from_sorted(head + tail), coefficient)
        for head, tails in weighted_formula_heads(n)
        for tail, coefficient in tails
    ]))


class CfNotation(Record):
    """Row/column bookkeeping of a partition's multiplicity table.

    row_sums[k] counts parts with first coordinate k; col_sums[j] counts parts
    with second coordinate j; s sums the columns from index 2 up; and
    q = 1 + sum of j * col_sums[j + 1].  For a formula partition,
    q + s + col_sums[1] equals the number of parts, and q is col_sums[0]
    (`cf_q`), the factor by which the historical coefficient overshoots.
    """

    __slots__ = ("row_sums", "col_sums", "s", "q")
    row_sums: Mapping[int, int]
    col_sums: Mapping[int, int]
    s: int
    q: int


def cf_notation(p: Partition2D) -> CfNotation:
    """Row sums, column sums and the derived quantities s and q for p."""
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for (i, j), count in p.multiplicities().items():
        rows[i] = rows.get(i, 0) + count
        cols[j] = cols.get(j, 0) + count
    s = sum(count for j, count in cols.items() if j >= 2)
    q = 1 + sum((j - 1) * count for j, count in cols.items() if j >= 2)
    return CfNotation(rows, cols, s, q)


def cf_q(parts: Iterable[Part]) -> int:
    """The factor q of a formula partition, given its parts: its number of
    parts (i, 0).  The second coordinates of a formula partition sum to
    one less than its part count, so the sum of j - 1 over its parts is
    -1, and the published q = 1 + the sum of j - 1 over the parts with
    j >= 2 is the number of parts with j = 0.  Every part (i, 0) lies in
    the head, so a head's q is each of its terms'."""
    return [j for _, j in parts].count(0)


def cf_original_coefficient(p: Partition2D) -> int:
    """Unsigned coefficient the 1974 Comtet-Fiolet formula assigns to the
    formula partition p; raises ValueError on any other partition.

    The publication's value is n! * q * (m - 1)! over the product of
    k!^(col_sums[k] + row_sums[k]) and the multiplicity factorials, with n
    the first-coordinate sum and m the part count; its rising-factorial
    expression reduces to exactly this.  That denominator is the weight's
    (the product of i! * j! over the parts times the multiplicity
    factorials), and m - 1 is the second-coordinate sum, so the value is q
    (`cf_q`) times the weight (`partition_coefficient`): it overshoots
    whenever q > 1.
    """
    if not p.is_formula_partition():
        raise ValueError(f"{p} is not a formula partition")
    return cf_q(p.parts) * partition_coefficient(p)


def cf_original_groups(
    groups: Iterable[WeightedHead],
) -> Iterator[tuple[Head, tuple[tuple[tuple[Part, ...], int, int, int], ...]]]:
    """The 1974 counterpart of each term, read lazily a group at a time:
    each head of `groups` (as `weighted_formula_heads` yields them) with,
    per tail, the tail, the term's corrected coefficient, the signed 1974
    coefficient of its partition (see `cf_original_coefficient`) and the
    partition's factor q.  A term's 1974 coefficient is q times its walked
    one, and q (`cf_q`) is found once per head: tails hold no part (i, 0).
    `verify --cf-mode` checks each 1974 coefficient against the brute force
    times a q read off its own monomial, so a wrong q here shows."""
    for head, tails in groups:
        q = cf_q(head)
        yield head, tuple([(tail, coefficient, q * coefficient, q) for tail, coefficient in tails])


class _Fragments(dict):
    """Values made once per key by `make`, for the length of one pass over
    the terms: a term's factors repeat across terms, so each is formatted
    (or weighed) once."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _factor(run: tuple[Part, int], latex: bool) -> tuple[int, str]:
    """A factor F_{x^i y^j}^power: its print position and its label,
    F_{xxy}^{e} in LaTeX and Fxxy^e in text, the power left out at 1.

    Factors print in ascending total order and, within it, ascending
    y-order, matching the usual typeset form (F_x before F_xy before F_yy).
    The position is the part's place in that order, unique per part, so a
    term's factors sort by it alone.
    """
    (i, j), power = run
    total = i + j
    subscript = "x" * i + "y" * j
    if latex:
        label = f"F_{{{subscript}}}" + (f"^{{{power}}}" if power > 1 else "")
    else:
        label = f"F{subscript}" + (f"^{power}" if power > 1 else "")
    return total * (total + 1) // 2 + j, label


class TermCountMismatch(ValueError):
    """A JSON rendering wrote a different number of terms than its header's
    term_count."""


def _fractions(groups: Iterable[WeightedHead], latex: bool) -> Iterator[tuple[int, str, str]]:
    # Each term's coefficient, its numerator's factor labels in print order
    # joined (by "*" in text, by nothing in LaTeX) and its denominator
    # F_y^(part count).  No run of equal parts crosses from head to tail,
    # so a term's factors are its head's and its tail's: each head's are
    # sorted once, each tail's once per rendering, and a term's are the two
    # sorted lists merged (one timsort pass over two runs), or the head's
    # alone for the empty tail, and joined.
    separator = "" if latex else "*"
    factors = _Fragments(lambda run: _factor(run, latex))
    tail_factors = _Fragments(lambda tail: sorted(map(factors.__getitem__, part_runs(tail))))
    denominators = _Fragments(lambda size: factors[_F_Y, size][1])
    label = itemgetter(1)
    for head, tails in groups:
        head_factors = sorted(map(factors.__getitem__, part_runs(head)))
        head_size = len(head)
        for tail, coefficient in tails:
            runs = sorted(head_factors + tail_factors[tail]) if tail else head_factors
            yield coefficient, separator.join(map(label, runs)), denominators[head_size + len(tail)]


def _text_chunks(groups: Iterable[WeightedHead]) -> Iterator[str]:
    minus, plus = "-", ""  # the signs of the first term
    for coefficient, body, denominator in _fractions(groups, latex=False):
        magnitude = abs(coefficient)
        if magnitude != 1:
            body = f"{magnitude}*{body}"
        yield f"{minus if coefficient < 0 else plus}{body}/{denominator}"
        minus, plus = " - ", " + "


def _latex_chunks(groups: Iterable[WeightedHead]) -> Iterator[str]:
    plus = ""  # the sign of a positive first term
    for coefficient, labels, denominator in _fractions(groups, latex=True):
        magnitude = abs(coefficient)
        yield (
            f"{'-' if coefficient < 0 else plus}{magnitude if magnitude != 1 else ''}"
            f"\\frac{{{labels}}}{{{denominator}}}"
        )
        plus = "+"


def _json_chunks(n: int, groups: Iterable[WeightedHead], term_count: int) -> Iterator[str]:
    # Byte for byte what json.dumps gives for the payload {"schema", "n",
    # "term_count", "terms": [{"coefficient": str, "partition": [[i, j], ...],
    # "fy_exponent"}, ...]} with default separators; every value is an int or
    # an int's decimal string, so nothing needs escaping.  Building strings
    # directly avoids a million small lists per document: a head's pairs
    # are joined once, a tail's once per rendering.  The header goes out
    # before the terms, so its count is checked against the terms written
    # before the closing "]}".
    yield (
        f'{{"schema": "{JSON_SCHEMA_ID}", "n": {n}, '
        f'"term_count": {term_count}, "terms": ['
    )
    pairs = _Fragments(lambda part: f"[{part[0]}, {part[1]}]")
    suffixes = _Fragments(lambda tail: "".join([", " + pairs[part] for part in tail]))
    separator = ""
    written = 0
    for head, tails in groups:
        prefix = ", ".join(map(pairs.__getitem__, head))
        head_size = len(head)
        for tail, coefficient in tails:
            yield (
                f'{separator}{{"coefficient": "{coefficient}", '
                f'"partition": [{prefix}{suffixes[tail]}], '
                f'"fy_exponent": {head_size + len(tail)}}}'
            )
            separator = ", "
        written += len(tails)
    if written != term_count:
        raise TermCountMismatch(
            f"wrote {written} terms under a header term_count of {term_count}"
        )
    yield "]}"


def render_chunks(
    n: int, groups: Iterable[WeightedHead], fmt: str, term_count: int | None
) -> Iterator[str]:
    """Render the order-n terms as "text", "latex" or "json", one string
    chunk per term (plus the JSON header and closing), consuming `groups`
    lazily; the chunks join to a single line.

    `groups` holds the terms as `weighted_formula_heads(n)` yields them:
    each head (a canonical tuple of parts) with each tail that completes it
    and the signed coefficient of their term.  Each head's labels are
    formatted once, and each distinct tail's once.

    `term_count` is the JSON header's count (None for the other formats,
    which ignore it); the JSON rendering raises TermCountMismatch before its
    closing "]}" when the terms written differ from it in number.  The
    format, and for JSON that the count is an int, are checked before any
    chunk is made.
    """
    if fmt == "text":
        return _text_chunks(groups)
    if fmt == "latex":
        return _latex_chunks(groups)
    if fmt == "json":
        if type(term_count) is not int:
            raise TypeError(f"a JSON rendering needs an int term_count, not {term_count!r}")
        return _json_chunks(n, groups, term_count)
    raise ValueError(f"unknown format {fmt!r}; expected one of {RENDER_FORMATS}")


def render(formula: DerivativeFormula, fmt: str) -> str:
    """Render a formula as "text", "latex" or "json" (a single line each):
    the joined chunks of `render_chunks`, each held term a head with the
    empty tail."""
    groups = ((term.partition.parts, (((), term.coefficient),)) for term in formula.terms)
    return "".join(render_chunks(formula.n, groups, fmt, len(formula.terms)))
