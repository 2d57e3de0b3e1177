"""Brute-force expansion of implicit derivatives by total differentiation.

This is the independent check on the closed-form expansion: starting from
dy/dx = -F_x / F_y and repeatedly applying the total-derivative operator
d/dx + y' * d/dy, it produces the order-n derivative as an exact symbolic
expression, which is then compared term by term with the formula.

Expressions are finite sums of monomials with exact integer coefficients
over opaque symbols.  Two symbol families are used:

* pairs (i, j), standing for the mixed partial of F of order i in x and j
  in y - only (0, 1) ever carries a negative exponent, since every
  denominator is a power of F_y;
* ("z", k) and ("y", k), the k-th derivatives of z with respect to y and of
  y with respect to x, for the chain-rule expansion check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Hashable, Iterable, Mapping

from .formula import DerivativeFormula, build_formula, cf_original_coefficient
from .partitions import Partition2D

Symbol = Hashable
PowerProduct = tuple[tuple[Symbol, int], ...]

F_X: Symbol = (1, 0)
F_Y: Symbol = (0, 1)


def _normalize_powers(powers: Mapping[Symbol, int]) -> PowerProduct:
    return tuple(sorted((s, e) for s, e in powers.items() if e != 0))


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
        cls, terms: Iterable[tuple[int, Mapping[Symbol, int]]]
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

    def coefficient(self, powers: Mapping[Symbol, int]) -> int:
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


def _multiply_powers(powers_a: PowerProduct, powers_b: PowerProduct) -> PowerProduct:
    exps = dict(powers_a)
    for symbol, e in powers_b:
        exps[symbol] = exps.get(symbol, 0) + e
    return _normalize_powers(exps)


def monomial(coefficient: int, powers: Mapping[Symbol, int]) -> SymbolicExpr:
    """Single-monomial expression."""
    return SymbolicExpr.from_terms([(coefficient, powers)])


def differentiate(
    expr: SymbolicExpr, rule: Callable[[Symbol], SymbolicExpr]
) -> SymbolicExpr:
    """Derivation defined by a symbol rule, extended by linearity and the
    product/power rule (valid for negative exponents as well)."""
    merged: dict[PowerProduct, int] = {}
    images: dict[Symbol, dict[PowerProduct, int]] = {}  # rule, once per symbol
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


def first_derivative() -> SymbolicExpr:
    """dy/dx = -F_x / F_y as a symbolic expression."""
    return monomial(-1, {F_X: 1, F_Y: -1})


def _total_rule(symbol: Symbol) -> SymbolicExpr:
    i, j = symbol
    return SymbolicExpr.from_terms(
        [(1, {(i + 1, j): 1}), (-1, {(i, j + 1): 1, F_X: 1, F_Y: -1})]
    )


def total_derivative(expr: SymbolicExpr) -> SymbolicExpr:
    """Apply d/dx + y' * d/dy with y' = -F_x / F_y.

    The operator is a derivation, so it acts through the product rule with the
    symbol rule (i, j) -> (i + 1, j) - (i, j + 1) * F_x / F_y: the x-derivative
    of a partial plus y' times its y-derivative.
    """
    return differentiate(expr, _total_rule)


_expansion_cache: dict[int, SymbolicExpr] = {1: first_derivative()}


def brute_force_expansion(n: int) -> SymbolicExpr:
    """The order-n derivative, expanded by n - 1 total-derivative steps."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    top = max(_expansion_cache)
    while top < n:
        _expansion_cache[top + 1] = total_derivative(_expansion_cache[top])
        top += 1
    return _expansion_cache[n]


def formula_to_expr(formula: DerivativeFormula) -> SymbolicExpr:
    """Embed a closed-form expansion into the symbolic algebra.

    Each term becomes one monomial: the parts give positive exponents and the
    denominator contributes its (negative) exponent on (0, 1).
    """
    terms = []
    for term in formula.terms:
        powers = dict(term.partition.multiplicities())
        powers[F_Y] = powers.get(F_Y, 0) - term.fy_exponent
        terms.append((term.coefficient, powers))
    return SymbolicExpr.from_terms(terms)


def monomial_to_partition(powers: PowerProduct) -> Partition2D:
    """Recover the partition behind an expansion monomial.

    Positive exponents expand into parts with their multiplicity; the (0, 1)
    exponent must be negative and exactly balance the part count.
    """
    parts: list[tuple[int, int]] = []
    fy_exponent = 0
    for symbol, exponent in powers:
        if symbol == F_Y and exponent < 0:
            fy_exponent = -exponent
            continue
        if exponent < 0:
            raise ValueError(f"negative exponent on {symbol}: not an expansion monomial")
        parts.extend([symbol] * exponent)
    if fy_exponent != len(parts):
        raise ValueError("denominator power does not balance the part count")
    return Partition2D(parts)


@dataclass(frozen=True)
class CoefficientMismatch:
    partition: Partition2D
    expected: int
    found: int


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of checking a closed-form expansion against the brute force.

    `missing` lists monomials the brute force produced that the formula lacks,
    `extra` the converse; both carry the brute-force/formula coefficient.
    Status is "equal" exactly when all three lists are empty.
    """

    n: int
    status: str
    missing: tuple[tuple[Partition2D, int], ...]
    extra: tuple[tuple[Partition2D, int], ...]
    coefficient_mismatches: tuple[CoefficientMismatch, ...]

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


def compare_with_formula(
    n: int,
    formula: DerivativeFormula | None = None,
    cf_original: bool = False,
) -> ComparisonReport:
    """Compare the order-n closed form against the brute-force expansion.

    A formula may be passed explicitly (to probe a tampered one); by default
    build_formula(n) is used.  With cf_original=True the formula coefficients
    are replaced by the signed 1974 coefficients, so the report is expected to
    flag every term whose factor q exceeds 1.
    """
    if formula is None:
        formula = build_formula(n)
    if cf_original:
        terms = []
        for term in formula.terms:
            sign = -1 if term.coefficient < 0 else 1
            original = sign * cf_original_coefficient(term.partition)
            terms.append(replace(term, coefficient=original))
        formula = replace(formula, terms=tuple(terms))
    formula_expr = formula_to_expr(formula)

    expansion = brute_force_expansion(n)
    expected = dict(expansion.terms())
    found = dict(formula_expr.terms())

    missing = []
    extra = []
    mismatches = []
    for powers in sorted(set(expected) | set(found)):
        want = expected.get(powers)
        have = found.get(powers)
        if want is None:
            extra.append((monomial_to_partition(powers), have))
        elif have is None:
            missing.append((monomial_to_partition(powers), want))
        elif want != have:
            mismatches.append(
                CoefficientMismatch(
                    partition=monomial_to_partition(powers), expected=want, found=have
                )
            )
    status = "equal" if not (missing or extra or mismatches) else "mismatch"
    return ComparisonReport(
        n=n,
        status=status,
        missing=tuple(missing),
        extra=tuple(extra),
        coefficient_mismatches=tuple(mismatches),
    )


def _chain_rule(symbol: Symbol) -> SymbolicExpr:
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
