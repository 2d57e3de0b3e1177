"""Counting the terms of the order-n expansion.

The number a(n) of formula partitions is the coefficient of t^n u^(n-1) in
the product over all admissible parts (i, j) of 1 / (1 - t^i u^(i+j-1)) -
note the combined exponent i + j - 1, which encodes the constraint that the
second coordinates sum to one less than the number of parts.  The count
Comtet and Fiolet published in 1974 takes u^j in place of u^(i+j-1) and is
wrong already at n = 2.  One routine multiplies out the product in exact
integers for both counts, given the u-exponent.

Writing the product as F(u, t) = sum p_n(t) u^n, the p_n also satisfy the
convolution recurrence n * p_n = sum over s of s * q_s * p_(n-s) against
the u-coefficients q_m(t) of log F, which have an explicit divisor-sum form
(`log_series`).  This rational derivation is kept as documentation and as
the test oracle for the integer expansion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .partitions import formula_partitions


class TruncatedSeries:
    """Polynomial in one variable with exact rational coefficients, truncated
    beyond a fixed degree bound.  Arithmetic never grows the bound."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Fraction | int], bound: int | None = None):
        coeffs = [Fraction(c) for c in coefficients]
        if bound is not None:
            if bound < 0:
                raise ValueError("degree bound must be non-negative")
            coeffs = coeffs[: bound + 1] + [Fraction(0)] * (bound + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, bound: int) -> "TruncatedSeries":
        return cls([0], bound=bound)

    @property
    def bound(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, degree: int) -> Fraction:
        if not 0 <= degree <= self.bound:
            raise IndexError(f"degree {degree} outside bound {self.bound}")
        return self._coeffs[degree]

    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bound = min(self.bound, other.bound)
        return TruncatedSeries(
            [self._coeffs[d] + other._coeffs[d] for d in range(bound + 1)]
        )

    def __mul__(self, other: "TruncatedSeries | Fraction | int") -> "TruncatedSeries":
        if isinstance(other, (Fraction, int)):
            return TruncatedSeries([c * other for c in self._coeffs])
        bound = min(self.bound, other.bound)
        coeffs = [Fraction(0)] * (bound + 1)
        for d, a in enumerate(self._coeffs[: bound + 1]):
            if a == 0:
                continue
            for e in range(bound + 1 - d):
                b = other._coeffs[e]
                if b != 0:
                    coeffs[d + e] += a * b
        return TruncatedSeries(coeffs)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self._coeffs]})"


def log_series(m: int, bound: int) -> TruncatedSeries:
    """Coefficient of u^m in the logarithm of the counting product, as a
    t-series: the divisor sum over d | m of t^(i*d) / d for i = 0 .. m/d + 1,
    truncated to the degree bound."""
    if m < 1:
        raise ValueError("index must be >= 1")
    coeffs = [Fraction(0)] * (bound + 1)
    for d in range(1, m + 1):
        if m % d:
            continue
        share = Fraction(1, d)
        for i in range(m // d + 2):
            if i * d > bound:
                break
            coeffs[i * d] += share
    return TruncatedSeries(coeffs)


def _corrected_exponent(i: int, j: int) -> int:
    return i + j - 1


def _product_grid(
    t_top: int, u_top: int, u_exponent: Callable[[int, int], int]
) -> list[list[int]]:
    """grid[y][x] is the coefficient of t^x u^y, for x <= t_top and
    y <= u_top, in the product over parts (i, j) other than (0, 0) and (0, 1)
    of 1 / (1 - t^i u^e), with e = u_exponent(i, j).

    Factors with i > t_top or e > u_top cannot reach the kept degrees, so the
    product is finite; u_exponent(i, j) >= j - 1 bounds j by u_top + 1.
    """
    grid = [[0] * (t_top + 1) for _ in range(u_top + 1)]
    grid[0][0] = 1
    for i in range(t_top + 1):
        for j in range(u_top + 2):
            e = u_exponent(i, j)
            if (i, j) in ((0, 0), (0, 1)) or e > u_top:
                continue
            # Multiply by the geometric series in t^i u^e: cumulative update.
            for y in range(e, u_top + 1):
                row, past = grid[y], grid[y - e]
                for x in range(i, t_top + 1):
                    row[x] += past[x - i]
    return grid


def series_table(max_index: int, bound: int) -> list[list[int]]:
    """u-coefficients p_0 .. p_max_index of the counting product, each given
    as its integer t-coefficients of degree 0 .. bound: table[m][d] is the
    coefficient of t^d u^m.

    p_0 is the truncation of 1/(1 - t).  Requires bound >= max_index, since
    extracting a(n) needs degree n in p_(n-1)."""
    if max_index < 0:
        raise ValueError("max index must be non-negative")
    if bound < max_index:
        raise ValueError(
            f"degree bound {bound} too small for table index {max_index}: "
            "the term count at order n reads degree n of the entry n - 1"
        )
    return _product_grid(bound, max_index, _corrected_exponent)


def _order_n_count(n: int, u_exponent: Callable[[int, int], int]) -> int:
    # Coefficient of t^n u^(n-1) in the product with the given u-exponent.
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    return _product_grid(n, n - 1, u_exponent)[n - 1][n]


def term_count_gf(n: int) -> int:
    """a(n) extracted from the generating function: the degree-n coefficient
    of p_(n-1)."""
    return _order_n_count(n, _corrected_exponent)


def term_count_enum(n: int) -> int:
    """a(n) by direct enumeration of the formula partitions."""
    return len(formula_partitions(n))


def cf_term_count(n: int) -> int:
    """Coefficient of t^n u^(n-1) in the product over parts (i, j) of
    1 / (1 - t^i u^j): the count published in 1974.  Disagrees with a(n)
    already at n = 2."""
    return _order_n_count(n, lambda i, j: j)
