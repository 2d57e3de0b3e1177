"""Independent brute-force oracles used only by the tests.

These deliberately avoid the code paths they are used to check: set
partitions are enumerated directly, the counting product is rebuilt from its
logarithm by a rational convolution recurrence rather than multiplied out,
two-dimensional partitions are enumerated without the formula constraint
and filtered afterwards, multiplicity tables are enumerated by a different
scheme than the package's partition walk, mixed partials come from symbolic
differentiation rather than the Taylor pass, partition weights are exact
rationals over a multiplicity `Counter` rather than one integer pass, the
JSON rendering goes through `json.dumps` rather than string building, the
expansion is evaluated on a derivative table term by term rather than by
coefficient extraction, the text, LaTeX and JSON renderings are built as
they were before their fragments were memoised (every label formatted
afresh, every term's runs sorted by a tuple key, multiplicities from a
`Counter`), and the partition lines are made a whole partition at a time,
from its `str` and `partition_coefficient`, not a head and a tail.  The
1974 coefficients come from a partition's whole row and column sums
(`cf_notation`), not from a head's and a tail's shares.  The
brute-force expansion is checked against a generic power-product algebra
that re-sorts a dict of (symbol, exponent) pairs at every product-rule
step, and the chain rule's expansion comes from the same algebra.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from implicit_deriv import (
    Partition2D,
    build_formula,
    cf_notation,
    formula_partitions,
    partition_coefficient,
)
from implicit_deriv.expressions import evaluate, mixed_partial
from implicit_deriv.formula import JSON_SCHEMA_ID
from implicit_deriv.oracle import encode_monomial


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


def log_recurrence_table(max_index: int, bound: int) -> list[list[Fraction]]:
    """u-coefficients p_0 .. p_max_index of the corrected counting product,
    each as its t-coefficients of degree 0 .. bound, from its logarithm:
    p_0 = 1/(1 - t) and n * p_n = sum over s of s * q_s * p_(n-s), with
    q_s = log_u_coefficient(s), in exact rationals."""
    logs = [log_u_coefficient(s, bound) for s in range(1, max_index + 1)]
    table = [[Fraction(1)] * (bound + 1)]
    for n in range(1, max_index + 1):
        acc = [Fraction(0)] * (bound + 1)
        for s in range(1, n + 1):
            q, p = logs[s - 1], table[n - s]
            for d, a in enumerate(q):
                if a:
                    for e in range(bound + 1 - d):
                        acc[d + e] += s * a * p[e]
        table.append([c / n for c in acc])
    return table


def partitions_2d(n: int, m: int) -> list[Partition2D]:
    """All two-dimensional partitions with first coordinates summing to n and
    second coordinates summing to m, in descending lexicographic order, by a
    walk over every part in turn (no formula constraint, unlike the
    package's walk)."""
    if n < 0 or m < 0:
        raise ValueError("coordinate sums must be non-negative")
    if n == 0 and m == 0:
        raise ValueError("(0, 0) has no partitions: parts are non-zero")
    result: list[Partition2D] = []
    chosen: list[tuple[int, int]] = []

    def descend(bound_i: int, bound_j: int, rx: int, ry: int) -> None:
        if rx == 0 and ry == 0:
            result.append(Partition2D(chosen))
            return
        for i in range(min(bound_i, rx), 0, -1):
            j_top = min(ry, bound_j) if i == bound_i else ry
            for j in range(j_top, -1, -1):
                chosen.append((i, j))
                descend(i, j, rx - i, ry - j)
                chosen.pop()
        if rx == 0:
            j_top = min(ry, bound_j) if bound_i == 0 else ry
            for j in range(j_top, 0, -1):
                chosen.append((0, j))
                descend(0, j, 0, ry - j)
                chosen.pop()

    descend(n, m, n, m)
    return result


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


def assert_json_fields(text: str, formula) -> None:
    """Assert that a JSON rendering decodes to the formula's own fields:
    schema, order and term count, then, term by term, the coefficient's
    decimal string, the parts of the partition, and an fy_exponent equal
    to the part count."""
    payload = json.loads(text)
    assert list(payload) == ["schema", "n", "term_count", "terms"]
    assert payload["schema"] == JSON_SCHEMA_ID
    assert (payload["n"], payload["term_count"]) == (formula.n, len(formula.terms))
    assert len(payload["terms"]) == len(formula.terms)
    for entry, term in zip(payload["terms"], formula.terms):
        assert list(entry) == ["coefficient", "partition", "fy_exponent"]
        assert entry["coefficient"] == str(term.coefficient)
        assert entry["partition"] == [[i, j] for i, j in term.partition.parts]
        assert entry["fy_exponent"] == len(term.partition.parts) == term.fy_exponent


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


def counter_partition_str(p) -> str:
    """A partition as "(i,j)^e+..." in canonical order, its multiplicities
    taken from a `Counter`."""
    pieces = []
    for part, count in Counter(p.parts).items():
        text = f"({part[0]},{part[1]})"
        pieces.append(text if count == 1 else f"{text}^{count}")
    return "+".join(pieces)


def _derivative_label(part, latex: bool) -> str:
    i, j = part
    subscript = "x" * i + "y" * j
    return f"F_{{{subscript}}}" if latex else f"F{subscript}"


def _numerator_factors(p) -> list:
    # Runs of equal parts, printed in ascending total order and, within it,
    # ascending y-order.
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


def label_render(formula, fmt: str) -> str:
    """The text, LaTeX or JSON rendering of a formula, each term's labels
    and factor order worked out from scratch."""
    chunks = []
    if fmt == "json":
        chunks.append(
            f'{{"schema": "{JSON_SCHEMA_ID}", "n": {formula.n}, '
            f'"term_count": {len(formula.terms)}, "terms": ['
        )
    for index, term in enumerate(formula.terms):
        magnitude = abs(term.coefficient)
        if fmt == "text":
            factors = [
                _derivative_label(part, latex=False) + (f"^{e}" if e > 1 else "")
                for part, e in _numerator_factors(term.partition)
            ]
            if magnitude != 1:
                factors.insert(0, str(magnitude))
            body = "*".join(factors)
            body += "/Fy" + (f"^{term.fy_exponent}" if term.fy_exponent > 1 else "")
            if index == 0:
                chunks.append(("-" if term.coefficient < 0 else "") + body)
            else:
                chunks.append((" - " if term.coefficient < 0 else " + ") + body)
        elif fmt == "latex":
            numerator = "".join(
                _derivative_label(part, latex=True) + (f"^{{{e}}}" if e > 1 else "")
                for part, e in _numerator_factors(term.partition)
            )
            denominator = "F_{y}" + (
                f"^{{{term.fy_exponent}}}" if term.fy_exponent > 1 else ""
            )
            body = (str(magnitude) if magnitude != 1 else "") + (
                f"\\frac{{{numerator}}}{{{denominator}}}"
            )
            sign = "-" if term.coefficient < 0 else ("" if index == 0 else "+")
            chunks.append(sign + body)
        else:
            parts = ", ".join([f"[{i}, {j}]" for i, j in term.partition.parts])
            separator = ", " if index else ""
            chunks.append(
                f'{separator}{{"coefficient": "{term.coefficient}", '
                f'"partition": [{parts}], "fy_exponent": {term.fy_exponent}}}'
            )
    if fmt == "json":
        chunks.append("]}")
    return "".join(chunks)


def partition_lines(n: int) -> list[str]:
    """The lines of `partitions --n n`, each made from a whole `Partition2D`
    of the walk: its `str`, size, `partition_coefficient` and the sign
    (-1)^size."""
    return [
        f"{p}  size={p.size}  weight={partition_coefficient(p)}  "
        f"sign={'-' if p.size & 1 else '+'}"
        for p in formula_partitions(n)
    ]


def held_groups(terms: Iterable[tuple[tuple, int]]) -> Iterator[tuple]:
    """Held (parts, coefficient) pairs as groups of the weighted walk's
    shape, each term's parts a head with the empty tail: how a test hands
    a tampered or partial expansion to `compare_with_formula`."""
    return ((parts, (((), coefficient),)) for parts, coefficient in terms)


def cf_original_by_notation(p: Partition2D) -> int:
    """The unsigned 1974 coefficient of p, n! * q * (m - 1)! over the
    product of k!^(row_sums[k] + col_sums[k]) and the multiplicity
    factorials, from the whole partition's `cf_notation`: n is the
    first-coordinate sum and m the part count."""
    notation = cf_notation(p)
    numerator = factorial(p.x_sum) * notation.q * factorial(p.size - 1)
    denominator = prod(
        factorial(k) ** count
        for sums in (notation.row_sums, notation.col_sums)
        for k, count in sums.items()
    ) * prod(factorial(count) for count in Counter(p.parts).values())
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"non-integral historical coefficient for {p}")
    return value


def compare_cf_lines(n: int) -> list[str]:
    """The lines of `compare-cf --n n`, header first."""
    lines = ["partition  corrected  cf_original  q"]
    for t in build_formula(n).terms:
        notation = cf_notation(t.partition)
        original = (-1 if t.coefficient < 0 else 1) * cf_original_by_notation(t.partition)
        lines.append(
            f"{counter_partition_str(t.partition)}  {t.coefficient:+d}  "
            f"{original:+d}  {notation.q}"
        )
    return lines


# A generic exact algebra of power products, the second, slow oracle for the
# total-derivative kernel in `implicit_deriv.oracle`: every product-rule step
# copies and re-sorts a dict of (symbol, exponent) pairs.  Symbols are opaque:
# pairs (i, j) stand for the mixed partial F_ij, and ("z", k) and ("y", k)
# for the k-th derivatives of z in y and of y in x, for the chain rule.

PowerProduct = tuple[tuple[Hashable, int], ...]

F_X = (1, 0)
F_Y = (0, 1)


def _normalize_powers(powers: Mapping[Hashable, int]) -> PowerProduct:
    return tuple(sorted((s, e) for s, e in powers.items() if e != 0))


def _multiply_powers(powers_a: PowerProduct, powers_b: PowerProduct) -> PowerProduct:
    exps = dict(powers_a)
    for symbol, e in powers_b:
        exps[symbol] = exps.get(symbol, 0) + e
    return _normalize_powers(exps)


class SymbolicExpr:
    """Immutable sum of monomials: power product -> exact coefficient.

    The arithmetic only adds and multiplies coefficients, so integers in give
    integers out; any exact number type works the same way.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[PowerProduct, int] | None = None):
        self._terms: dict[PowerProduct, int] = {
            powers: coeff for powers, coeff in (terms or {}).items() if coeff != 0
        }

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[int, Mapping[Hashable, int]]]
    ) -> "SymbolicExpr":
        """Build from (coefficient, powers) pairs, merging like monomials."""
        merged: dict[PowerProduct, int] = {}
        for coeff, powers in terms:
            key = _normalize_powers(powers)
            merged[key] = merged.get(key, 0) + coeff
        return cls(merged)

    def terms(self) -> list[tuple[PowerProduct, int]]:
        """Monomials as (power product, coefficient), deterministically sorted."""
        return sorted(self._terms.items())

    def coefficient(self, powers: Mapping[Hashable, int]) -> int:
        return self._terms.get(_normalize_powers(powers), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "SymbolicExpr") -> "SymbolicExpr":
        merged = dict(self._terms)
        for powers, coeff in other._terms.items():
            merged[powers] = merged.get(powers, 0) + coeff
        return SymbolicExpr(merged)

    def __neg__(self) -> "SymbolicExpr":
        return SymbolicExpr({p: -c for p, c in self._terms.items()})

    def __sub__(self, other: "SymbolicExpr") -> "SymbolicExpr":
        return self + (-other)

    def __mul__(self, other: "SymbolicExpr | int") -> "SymbolicExpr":
        if not isinstance(other, SymbolicExpr):
            return SymbolicExpr({p: c * other for p, c in self._terms.items()})
        product: dict[PowerProduct, int] = {}
        for powers_a, coeff_a in self._terms.items():
            for powers_b, coeff_b in other._terms.items():
                key = _multiply_powers(powers_a, powers_b)
                product[key] = product.get(key, 0) + coeff_a * coeff_b
        return SymbolicExpr(product)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._terms:
            return "SymbolicExpr(0)"
        bits = [f"{coeff}*{dict(powers)}" for powers, coeff in self.terms()]
        return "SymbolicExpr(" + " + ".join(bits) + ")"


def monomial(coefficient: int, powers: Mapping[Hashable, int]) -> SymbolicExpr:
    """Single-monomial expression."""
    return SymbolicExpr.from_terms([(coefficient, powers)])


def differentiate(
    expr: SymbolicExpr, rule: Callable[[Hashable], SymbolicExpr]
) -> SymbolicExpr:
    """Derivation defined by a symbol rule, extended by linearity and the
    product/power rule (valid for negative exponents as well)."""
    merged: dict[PowerProduct, int] = {}
    images: dict[Hashable, dict[PowerProduct, int]] = {}  # rule, once per symbol
    for powers, coeff in expr._terms.items():
        for symbol, exponent in powers:
            if symbol not in images:
                images[symbol] = rule(symbol)._terms
            rest = dict(powers)
            rest[symbol] = exponent - 1
            rest = _normalize_powers(rest)
            scale = coeff * exponent
            for rule_powers, rule_coeff in images[symbol].items():
                key = _multiply_powers(rest, rule_powers)
                merged[key] = merged.get(key, 0) + scale * rule_coeff
    return SymbolicExpr(merged)


def _total_rule(symbol: Hashable) -> SymbolicExpr:
    i, j = symbol
    return SymbolicExpr.from_terms(
        [(1, {(i + 1, j): 1}), (-1, {(i, j + 1): 1, F_X: 1, F_Y: -1})]
    )


def symbolic_total_derivative(expr: SymbolicExpr) -> SymbolicExpr:
    """d/dx + y' * d/dy with y' = -F_x / F_y, as the derivation with the symbol
    rule (i, j) -> (i + 1, j) - (i, j + 1) * F_x / F_y."""
    return differentiate(expr, _total_rule)


def symbolic_expansions(max_n: int) -> Iterator[SymbolicExpr]:
    """The order-1..max_n derivatives, from -F_x / F_y by total derivatives."""
    expr = monomial(-1, {F_X: 1, F_Y: -1})
    yield expr
    for _ in range(max_n - 1):
        expr = symbolic_total_derivative(expr)
        yield expr


def keyed(expr: SymbolicExpr) -> dict:
    """The expression in the kernel's keys: the codes of the ascending parts
    with repetition (`oracle.encode_monomial`) -> coefficient.  The generic
    algebra tracks F_y's exponent on its own,
    so each monomial's is checked to be minus its part count, the power the
    kernel's keys leave out."""
    out = {}
    for powers, coeff in expr.terms():
        exponents = dict(powers)
        fy = exponents.pop(F_Y, 0)
        parts = []
        for symbol, exponent in exponents.items():
            if exponent < 0:
                raise ValueError(f"negative exponent on {symbol}")
            parts.extend([symbol] * exponent)
        if fy != -len(parts):
            raise ValueError(f"F_y exponent {fy} is not minus the part count {len(parts)}")
        out[encode_monomial(sorted(parts))] = coeff
    return out


def _chain_rule(symbol: Hashable) -> SymbolicExpr:
    family, k = symbol
    if family == "z":
        # z is a function of y, so d/dx z_k = z_{k+1} * y_1.
        return monomial(1, {("z", k + 1): 1, ("y", 1): 1})
    return monomial(1, {("y", k + 1): 1})


def faa_di_bruno_expansion(n: int) -> SymbolicExpr:
    """Expand the n-th x-derivative of a composite z(y(x)) from scratch.

    Returns the sum over one-dimensional partitions p of n of the chain-rule
    weight of p times z_(number of parts) times the product of y_(part).
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    expr = monomial(1, {("z", 0): 1})
    for _ in range(n):
        expr = differentiate(expr, _chain_rule)
    return expr
