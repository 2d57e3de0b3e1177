"""Brute-force expansion of implicit derivatives by total differentiation.

This is the independent check on the closed-form expansion: starting from
dy/dx = -F_x / F_y and repeatedly applying the total-derivative operator
d/dx + y' * d/dy, it produces the order-n derivative as an exact symbolic
expression, which is then compared term by term with the formula.

An expression is a dict from monomial to exact integer coefficient.  A
monomial F_y^-size * parts of the mixed partials F_ij of F is keyed by its
parts alone: every partial (i, j) but F_y = F_01, once per power, in
ascending order.  The closed form is read as the weighted walk groups it
(`weighted_formula_heads`), and the term of a head and a tail is keyed by
their parts reversed, so the two expansions compare by dict equality.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Mapping

from ._record import Record
# build_formula and cf_original_coefficient are unused here; they stay bound
# because bench/trace_child.py wraps them under these names.
from .formula import build_formula, cf_original_coefficient  # noqa: F401
from .partitions import Part, Partition2D, WeightedHead, weighted_formula_heads

Monomial = tuple[Part, ...]
Expansion = dict[Monomial, int]

F_X: Part = (1, 0)
F_Y: Part = (0, 1)
_F_XY: Part = (1, 1)
_F_YY: Part = (0, 2)

# The highest order `verify --max` accepts: the brute force's memory and
# time grow 1.6-1.7x per order (128 MB, 10 s at 16 on 2 vCPUs).
MAX_VERIFY_ORDER = 16


def total_derivative(expr: Mapping[Monomial, int]) -> Expansion:
    """Apply d/dx + y' * d/dy with y' = -F_x / F_y.

    The operator is a derivation: by the product rule, a monomial's image
    sums over its factors, and a factor of multiplicity m contributes m
    times its own image.  A partial maps as
    (i, j) -> (i + 1, j) - (i, j + 1) * F_x / F_y: its x-derivative plus y'
    times its y-derivative.  For F_y^-size that image, (1, 1) - (0, 2) F_x /
    F_y, is taken -size times with F_y one power lower.  Each of the four
    rules adds one part per power of F_y it lowers, so every image has the
    shape F_y^-size * parts again.  No part ever becomes (0, 1) or (0, 0),
    so the keys stay canonical.
    """
    out: Expansion = {}
    get = out.get
    for parts, c in expr.items():
        size = len(parts)
        start = 0
        while start < size:
            part = parts[start]
            end = start + 1
            while end < size and parts[end] == part:
                end += 1
            multiplicity = end - start
            scale = multiplicity * c
            i, j = part
            # one copy of the part removed; both images sort after it
            rest = parts[:start] + parts[start + 1:]
            in_x = (i + 1, j)
            at = bisect(rest, in_x, start)
            key = rest[:at] + (in_x,) + rest[at:]
            out[key] = get(key, 0) + scale
            in_y = (i, j + 1)
            at = bisect(rest, in_y, start)
            rest = rest[:at] + (in_y,) + rest[at:]
            at = bisect(rest, F_X)
            key = rest[:at] + (F_X,) + rest[at:]
            out[key] = get(key, 0) - scale
            start = end
        scale = -size * c
        at = bisect(parts, _F_XY)
        key = parts[:at] + (_F_XY,) + parts[at:]
        out[key] = get(key, 0) + scale
        # (0, 2) sorts before (1, 0), so F_x goes in after it
        at = bisect(parts, _F_YY)
        rest = parts[:at] + (_F_YY,) + parts[at:]
        at = bisect(rest, F_X, at)
        key = rest[:at] + (F_X,) + rest[at:]
        out[key] = get(key, 0) - scale
    return {key: c for key, c in out.items() if c}


def brute_force_expansion(n: int) -> Expansion:
    """The order-n derivative, expanded by total-derivative steps from
    dy/dx = -F_x / F_y, as a new dict.  Only the latest order is held: each
    step drops the one below."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    expansion: Expansion = {(F_X,): -1}
    for _ in range(n - 1):
        expansion = total_derivative(expansion)
    return expansion


def formula_to_expr(groups: Iterable[WeightedHead]) -> Expansion:
    """The closed-form terms as monomials, read lazily from groups shaped
    as `weighted_formula_heads` yields them: the term of head h and tail t
    is keyed by the parts of h + t in ascending order, (h + t)[::-1]."""
    expr: Expansion = {}
    get = expr.get
    for head, tails in groups:
        for tail, coefficient in tails:
            key = (head + tail)[::-1]
            expr[key] = get(key, 0) + coefficient
    return expr


class CoefficientMismatch(Record):
    __slots__ = ("partition", "expected", "found")
    partition: Partition2D
    expected: int
    found: int


class ComparisonReport(Record):
    """Outcome of checking a closed-form expansion against the brute force.

    `missing` lists monomials the brute force produced that the formula lacks,
    `extra` the converse; both carry the brute-force/formula coefficient.
    """

    __slots__ = ("n", "missing", "extra", "coefficient_mismatches")
    n: int
    missing: tuple[tuple[Partition2D, int], ...]
    extra: tuple[tuple[Partition2D, int], ...]
    coefficient_mismatches: tuple[CoefficientMismatch, ...]

    @property
    def status(self) -> str:
        """The status: "equal" exactly when all three lists are empty."""
        return "mismatch" if self.missing or self.extra or self.coefficient_mismatches else "equal"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "status": self.status,
            "missing": [
                {"partition": p.to_json(), "coefficient": str(c)}
                for p, c in self.missing
            ],
            "extra": [
                {"partition": p.to_json(), "coefficient": str(c)}
                for p, c in self.extra
            ],
            "coefficient_mismatches": [
                {
                    "partition": m.partition.to_json(),
                    "expected": str(m.expected),
                    "found": str(m.found),
                }
                for m in self.coefficient_mismatches
            ],
        }


def _power_product(key: Monomial) -> tuple[tuple[Part, int], ...]:
    """The monomial as sorted (partial, exponent) pairs: the order in which
    a mismatch report lists its entries."""
    powers = {F_Y: -len(key)}
    for part in key:
        powers[part] = powers.get(part, 0) + 1
    return tuple(sorted(powers.items()))


def compare_with_formula(
    n: int,
    groups: Iterable[WeightedHead] | None = None,
    expected: Mapping[Monomial, int] | None = None,
) -> ComparisonReport:
    """Compare order-n closed-form terms, grouped by head as
    `weighted_formula_heads(n)` yields them (the default), against
    `expected`, the order-n brute-force expansion, made here by default.
    A caller that already holds order n passes it in.

    The groups are read once, as they come.  A caller passes the closed
    form itself, a tampered expansion or the 1974 one (each tail with the
    1974 coefficient that `cf_original_groups` gives it), whose report is
    expected to flag every term whose factor q exceeds 1.
    """
    if expected is None:
        expected = brute_force_expansion(n)
    found = formula_to_expr(weighted_formula_heads(n) if groups is None else groups)
    if expected == found:
        return ComparisonReport(n=n, missing=(), extra=(), coefficient_mismatches=())

    missing = []
    extra = []
    mismatches = []
    for key in sorted(expected.keys() | found.keys(), key=_power_product):
        want = expected.get(key)
        have = found.get(key)
        if want is None:
            extra.append((Partition2D(key), have))
        elif have is None:
            missing.append((Partition2D(key), want))
        elif want != have:
            mismatches.append(
                CoefficientMismatch(partition=Partition2D(key), expected=want, found=have)
            )
    return ComparisonReport(
        n=n,
        missing=tuple(missing),
        extra=tuple(extra),
        coefficient_mismatches=tuple(mismatches),
    )

