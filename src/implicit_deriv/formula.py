"""Closed-form expansion of d^n y/dx^n for an implicitly defined y(x).

For F(x, y) = 0 with F_y != 0, the n-th derivative of y is a signed integer
combination of products of mixed partials of F divided by powers of F_y: one
term per formula partition p, with coefficient (-1)^size * weight(p) and
denominator exponent equal to the number of parts.

The module also computes the coefficient that Comtet and Fiolet's 1974
publication assigns to each term, which is too large by an integer factor q
whenever q > 1, and the bookkeeping (row/column sums of the multiplicity
table) from which q is derived.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial, prod
from typing import Mapping

from .partitions import Part, Partition2D, formula_partitions, partition_coefficient

JSON_SCHEMA_ID = "implicit-deriv/1"
RENDER_FORMATS = ("text", "latex", "json")


@dataclass(frozen=True)
class FormulaTerm:
    """One term of the expansion: partition, signed coefficient, F_y power."""

    partition: Partition2D
    coefficient: int
    fy_exponent: int

    def __post_init__(self) -> None:
        p = self.partition
        if self.fy_exponent != p.size:
            raise ValueError("denominator exponent must equal the part count")
        if (-1) ** p.size * self.coefficient <= 0:
            raise ValueError("coefficient sign must be (-1)^(part count)")
        if not p.is_formula_partition():
            raise ValueError(f"{p} is not a formula partition")


@dataclass(frozen=True)
class DerivativeFormula:
    """The full order-n expansion, terms in canonical (descending) order."""

    n: int
    terms: tuple[FormulaTerm, ...]

    def term_for(self, partition: Partition2D) -> FormulaTerm:
        for term in self.terms:
            if term.partition == partition:
                return term
        raise KeyError(f"no term for partition {partition}")


def build_formula(n: int) -> DerivativeFormula:
    """Expansion of the n-th derivative: one term per formula partition.

    The coefficient of a partition p is (-1)^size(p) times its weight, and the
    power of F_y in the denominator is size(p).  Terms are ordered by
    descending lexicographic comparison of the part sequences.
    """
    terms = tuple(
        FormulaTerm(
            partition=p,
            coefficient=(-1) ** p.size * partition_coefficient(p),
            fy_exponent=p.size,
        )
        for p in formula_partitions(n)
    )
    return DerivativeFormula(n=n, terms=terms)


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


def cf_original_coefficient(p: Partition2D) -> int:
    """Unsigned coefficient the 1974 Comtet-Fiolet formula assigns to p.

    Evaluates n! * q * (m - 1)! over the product of k!^(col_sums[k] +
    row_sums[k]) and the multiplicity factorials, with n the first-coordinate
    sum and m the part count.  The rising-factorial expression in the original
    publication reduces to exactly this; it equals q times the correct weight,
    so it overshoots whenever q > 1.
    """
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


def _derivative_label(part: Part, latex: bool) -> str:
    i, j = part
    subscript = "x" * i + "y" * j
    return f"F_{{{subscript}}}" if latex else f"F{subscript}"


def _numerator_factors(p: Partition2D) -> list[tuple[Part, int]]:
    # Equal parts are adjacent in canonical order, so each run of them is
    # one factor.  Factors print in ascending total order and, within it,
    # ascending y-order, matching the usual typeset form (F_x before F_xy
    # before F_yy); that key is unique per part.
    runs = []
    previous, count = None, 0
    for part in p.parts:
        if part == previous:
            count += 1
        else:
            if count:
                runs.append((previous, count))
            previous, count = part, 1
    runs.append((previous, count))
    runs.sort(key=lambda run: (run[0][0] + run[0][1], run[0][1]))
    return runs


def _render_text(formula: DerivativeFormula) -> str:
    pieces: list[str] = []
    for index, term in enumerate(formula.terms):
        magnitude = abs(term.coefficient)
        factors = [
            _derivative_label(part, latex=False) + (f"^{e}" if e > 1 else "")
            for part, e in _numerator_factors(term.partition)
        ]
        if magnitude != 1:
            factors.insert(0, str(magnitude))
        body = "*".join(factors)
        body += "/Fy" + (f"^{term.fy_exponent}" if term.fy_exponent > 1 else "")
        if index == 0:
            pieces.append(("-" if term.coefficient < 0 else "") + body)
        else:
            pieces.append(("- " if term.coefficient < 0 else "+ ") + body)
    return " ".join(pieces)


def _render_latex(formula: DerivativeFormula) -> str:
    pieces: list[str] = []
    for index, term in enumerate(formula.terms):
        magnitude = abs(term.coefficient)
        numerator = "".join(
            _derivative_label(part, latex=True) + (f"^{{{e}}}" if e > 1 else "")
            for part, e in _numerator_factors(term.partition)
        )
        denominator = "F_{y}" + (f"^{{{term.fy_exponent}}}" if term.fy_exponent > 1 else "")
        body = (str(magnitude) if magnitude != 1 else "") + f"\\frac{{{numerator}}}{{{denominator}}}"
        sign = "-" if term.coefficient < 0 else ("" if index == 0 else "+")
        pieces.append(sign + body)
    return "".join(pieces)


def _render_json(formula: DerivativeFormula) -> str:
    # Byte for byte what json.dumps gives for the payload {"schema", "n",
    # "term_count", "terms": [{"coefficient": str, "partition": [[i, j], ...],
    # "fy_exponent"}, ...]} with default separators; every value is an int or
    # an int's decimal string, so nothing needs escaping.  Building strings
    # directly avoids a million small lists per document and the GC passes
    # over them.
    pieces = []
    for term in formula.terms:
        parts = ", ".join([f"[{i}, {j}]" for i, j in term.partition.parts])
        pieces.append(
            f'{{"coefficient": "{term.coefficient}", "partition": [{parts}], '
            f'"fy_exponent": {term.fy_exponent}}}'
        )
    terms = ", ".join(pieces)
    return (
        f'{{"schema": "{JSON_SCHEMA_ID}", "n": {formula.n}, '
        f'"term_count": {len(formula.terms)}, "terms": [{terms}]}}'
    )


def render(formula: DerivativeFormula, fmt: str) -> str:
    """Render a formula as "text", "latex" or "json" (a single line each)."""
    if fmt == "text":
        return _render_text(formula)
    if fmt == "latex":
        return _render_latex(formula)
    if fmt == "json":
        return _render_json(formula)
    raise ValueError(f"unknown format {fmt!r}; expected one of {RENDER_FORMATS}")


def formula_from_json(text: str) -> DerivativeFormula:
    """Rebuild a formula from its JSON rendering (inverse of render json),
    rejecting with ValueError any term whose order is not n or whose
    coefficient is not (-1)^size * weight."""
    payload = json.loads(text)
    if payload.get("schema") != JSON_SCHEMA_ID:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    terms = tuple(
        FormulaTerm(
            partition=Partition2D.from_json(entry["partition"]),
            coefficient=int(entry["coefficient"]),
            fy_exponent=int(entry["fy_exponent"]),
        )
        for entry in payload["terms"]
    )
    if len(terms) != payload["term_count"]:
        raise ValueError("term_count does not match the number of terms")
    n = int(payload["n"])
    for term in terms:
        p = term.partition
        if p.x_sum != n:
            raise ValueError(f"term {p} has order {p.x_sum}, not {n}")
        if term.coefficient != (-1) ** p.size * partition_coefficient(p):
            raise ValueError(f"wrong coefficient {term.coefficient} for {p}")
    return DerivativeFormula(n=n, terms=terms)
