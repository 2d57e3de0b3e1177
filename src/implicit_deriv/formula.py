"""Closed-form expansion of d^n y/dx^n for an implicitly defined y(x).

For F(x, y) = 0 with F_y != 0, the n-th derivative of y is a signed integer
combination of products of mixed partials of F divided by powers of F_y: one
term per formula partition p, with coefficient (-1)^size * weight(p) and
denominator exponent equal to the number of parts.

The terms can be had one at a time (`formula_terms`) and rendered as they
come (`render_chunks`), so a rendering of any order is written in memory
that does not grow with the number of terms; `build_formula` and `render`
hold the whole expansion or its whole rendering.

The module also computes the coefficient that Comtet and Fiolet's 1974
publication assigns to each term, which is too large by an integer factor q
whenever q > 1, and the bookkeeping (row/column sums of the multiplicity
table) from which q is derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Iterable, Iterator, Mapping

# formula_partitions and partition_coefficient are unused here; they stay
# bound because bench/trace_child.py wraps them under these names.
from .partitions import (  # noqa: F401
    Part,
    Partition2D,
    formula_partitions,
    partition_coefficient,
    weighted_formula_partitions,
)

JSON_SCHEMA_ID = "implicit-deriv/1"
RENDER_FORMATS = ("text", "latex", "json")

# The denominator F_y, labelled as the part (0, 1).
_F_Y: Part = (0, 1)


@dataclass(frozen=True, init=False)
class FormulaTerm:
    """One term of the expansion: partition and signed coefficient.

    Construction checks that the coefficient's sign is (-1)^(part count) and
    that the partition is a formula partition
    (`Partition2D.is_formula_partition`).
    """

    partition: Partition2D
    coefficient: int

    def __init__(self, partition: Partition2D, coefficient: int):
        if not (coefficient < 0 if len(partition.parts) & 1 else coefficient > 0):
            raise ValueError("coefficient sign must be (-1)^(part count)")
        if not partition.is_formula_partition():
            raise ValueError(f"{partition} is not a formula partition")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "coefficient", coefficient)

    @property
    def fy_exponent(self) -> int:
        """The power of F_y in the denominator: the part count."""
        return len(self.partition.parts)


@dataclass(frozen=True)
class DerivativeFormula:
    """The full order-n expansion, terms in canonical (descending) order."""

    n: int
    terms: tuple[FormulaTerm, ...]


def formula_terms(n: int) -> Iterator[FormulaTerm]:
    """The terms of the order-n expansion, one per formula partition, yielded
    as the weighted walk (`weighted_formula_partitions`) yields each
    partition with its weight; raises ValueError on n < 1 before yielding
    anything.

    The coefficient of a partition p is (-1)^size(p) times its weight,
    n! * (size - 1)! over the denominators the walk carries for p's head and
    tail; `partition_coefficient(p)` is the same weight from the parts
    alone.  Terms come in descending lexicographic order of the part
    sequences.  Each term is checked as it is made, by the `FormulaTerm`
    constructor.
    """
    weighted = weighted_formula_partitions(n)  # checks n before any term is asked for
    return (
        FormulaTerm(p, -weight if len(p.parts) & 1 else weight) for p, weight in weighted
    )


def build_formula(n: int) -> DerivativeFormula:
    """Expansion of the n-th derivative: all of `formula_terms(n)`, held."""
    return DerivativeFormula(n=n, terms=tuple(formula_terms(n)))


def required_derivatives(n: int) -> set[Part]:
    """All mixed-partial orders (i, j) a numeric evaluation of the order-n
    expansion reads (the parts of every term, plus (0, 1) for the
    denominator): exactly those with 1 <= i + j <= n.

    Proof: the y-orders of a formula partition sum to one less than its part
    count, so a part (i, j) has j - 1 = -1 + the sum of 1 - j_k over the
    other parts, each term at most 0, or at most i_k when j_k = 0; hence
    j <= n - i.  Conversely (i, j), j * (1, 0), (n - i - j) * (1, 1) is a
    formula partition of order n containing (i, j).
    """
    return {(i, j) for i in range(n + 1) for j in range(n + 1 - i) if i + j >= 1}


@dataclass(frozen=True, eq=True)
class CfNotation:
    """Row/column bookkeeping of a partition's multiplicity table.

    row_sums[k] counts parts with first coordinate k; col_sums[j] counts parts
    with second coordinate j; s sums the columns from index 2 up; and
    q = 1 + sum of j * col_sums[j + 1].  For a formula partition,
    q + s + col_sums[1] equals the number of parts, and q is exactly the
    factor by which the historical coefficient overshoots.
    """

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
    q = 1 + sum(j * cols.get(j + 1, 0) for j in range(1, max(cols, default=0) + 1))
    return CfNotation(row_sums=rows, col_sums=cols, s=s, q=q)


def cf_original_coefficient(p: Partition2D, notation: CfNotation | None = None) -> int:
    """Unsigned coefficient the 1974 Comtet-Fiolet formula assigns to p.

    Evaluates n! * q * (m - 1)! over the product of k!^(col_sums[k] +
    row_sums[k]) and the multiplicity factorials, with n the first-coordinate
    sum and m the part count.  The rising-factorial expression in the original
    publication reduces to exactly this; it equals q times the correct weight,
    so it overshoots whenever q > 1.  `notation` is `cf_notation(p)`, passed
    by a caller that has it already.
    """
    if notation is None:
        notation = cf_notation(p)
    n = p.x_sum
    m = p.size
    numerator = factorial(n) * notation.q * factorial(m - 1)
    top_index = max(max(notation.row_sums), max(notation.col_sums))
    denominator = prod(
        factorial(k) ** (notation.col_sums.get(k, 0) + notation.row_sums.get(k, 0))
        for k in range(1, top_index + 1)
    )
    denominator *= prod(factorial(e) for e in p.multiplicities().values())
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"non-integral historical coefficient for {p}")
    return value


def cf_original_terms(
    terms: Iterable[FormulaTerm],
) -> Iterator[tuple[FormulaTerm, FormulaTerm, int]]:
    """Each term with its 1974 counterpart, read lazily: the term, the same
    term with the signed `cf_original_coefficient` of its partition, and
    the partition's factor q, from one `cf_notation` per term."""
    for term in terms:
        notation = cf_notation(term.partition)
        original = cf_original_coefficient(term.partition, notation)
        if term.coefficient < 0:
            original = -original
        yield term, FormulaTerm(term.partition, original), notation.q


class _Fragments(dict):
    """Values made once per key by `make`, for the length of one rendering:
    a term's factors repeat across terms, so each is formatted once."""

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


def _text_chunks(terms: Iterable[FormulaTerm]) -> Iterator[str]:
    factors = _Fragments(lambda run: _factor(run, latex=False))
    minus, plus = "-", ""  # the signs of the first term
    for term in terms:
        runs = sorted(map(factors.__getitem__, term.partition.multiplicities().items()))
        body = "*".join([label for _, label in runs])
        magnitude = abs(term.coefficient)
        if magnitude != 1:
            body = f"{magnitude}*{body}"
        _, denominator = factors[_F_Y, len(term.partition.parts)]  # F_y^(part count)
        yield f"{minus if term.coefficient < 0 else plus}{body}/{denominator}"
        minus, plus = " - ", " + "


def _latex_chunks(terms: Iterable[FormulaTerm]) -> Iterator[str]:
    factors = _Fragments(lambda run: _factor(run, latex=True))
    plus = ""  # the sign of a positive first term
    for term in terms:
        runs = sorted(map(factors.__getitem__, term.partition.multiplicities().items()))
        numerator = "".join([label for _, label in runs])
        _, denominator = factors[_F_Y, len(term.partition.parts)]  # F_y^(part count)
        magnitude = abs(term.coefficient)
        yield (
            f"{'-' if term.coefficient < 0 else plus}{magnitude if magnitude != 1 else ''}"
            f"\\frac{{{numerator}}}{{{denominator}}}"
        )
        plus = "+"


def _json_chunks(n: int, terms: Iterable[FormulaTerm], term_count: int) -> Iterator[str]:
    # Byte for byte what json.dumps gives for the payload {"schema", "n",
    # "term_count", "terms": [{"coefficient": str, "partition": [[i, j], ...],
    # "fy_exponent"}, ...]} with default separators; every value is an int or
    # an int's decimal string, so nothing needs escaping.  Building strings
    # directly avoids a million small lists per document.  The header goes
    # out before the terms, so its count is checked against the terms
    # written before the closing "]}".
    yield (
        f'{{"schema": "{JSON_SCHEMA_ID}", "n": {n}, '
        f'"term_count": {term_count}, "terms": ['
    )
    pairs = _Fragments(lambda part: f"[{part[0]}, {part[1]}]")
    separator = ""
    written = 0
    for written, term in enumerate(terms, 1):
        parts = ", ".join(map(pairs.__getitem__, term.partition.parts))
        yield (
            f'{separator}{{"coefficient": "{term.coefficient}", "partition": [{parts}], '
            f'"fy_exponent": {len(term.partition.parts)}}}'
        )
        separator = ", "
    if written != term_count:
        raise TermCountMismatch(
            f"wrote {written} terms under a header term_count of {term_count}"
        )
    yield "]}"


def render_chunks(
    n: int, terms: Iterable[FormulaTerm], fmt: str, term_count: int | None
) -> Iterator[str]:
    """Render the order-n terms as "text", "latex" or "json", one string
    chunk per term (plus the JSON header and closing), consuming `terms`
    lazily; the chunks join to a single line.

    `term_count` is the JSON header's count (None for the other formats,
    which ignore it); the JSON rendering raises TermCountMismatch before its
    closing "]}" when the terms written differ from it in number.  The
    format is checked before any chunk is made.
    """
    if fmt == "text":
        return _text_chunks(terms)
    if fmt == "latex":
        return _latex_chunks(terms)
    if fmt == "json":
        return _json_chunks(n, terms, term_count)
    raise ValueError(f"unknown format {fmt!r}; expected one of {RENDER_FORMATS}")


def render(formula: DerivativeFormula, fmt: str) -> str:
    """Render a formula as "text", "latex" or "json" (a single line each):
    the joined chunks of `render_chunks` over its terms."""
    return "".join(
        render_chunks(formula.n, formula.terms, fmt, len(formula.terms))
    )
