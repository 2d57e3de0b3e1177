"""Counting the terms of the order-n expansion.

The number a(n) of formula partitions is the coefficient of t^n u^(n-1) in
the product over all admissible parts (i, j) of 1 / (1 - t^i u^(i+j-1)) -
note the combined exponent i + j - 1, which encodes the constraint that the
second coordinates sum to one less than the number of parts.  The count
Comtet and Fiolet published in 1974 takes u^j in place of u^(i+j-1) and is
wrong already at n = 2.  One routine multiplies out the product in exact
integers for both counts, given the u-exponent; `term_count_enum` counts
the partition walk instead, as a cross-check: head by head, each head's
tails by their number, so it never builds a partition.
"""

from __future__ import annotations

from collections.abc import Callable

# formula_partitions is unused here; it stays bound because
# bench/trace_child.py wraps it under this name.
from .partitions import formula_heads, formula_partitions  # noqa: F401


# The highest order `count --max` and `compare-cf --count` accept.  The
# product grid of order N holds about N^2 integers and takes time growing as
# about N^4: at this cap, compare-cf --count (two grids, the 1974 one with
# twice the factors) takes 3-4 s and count about 1 s on a 2 GHz core.
MAX_COUNT_ORDER = 100


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


def series_table(max_index: int) -> list[list[int]]:
    """u-coefficients p_0 .. p_max_index of the counting product, each given
    as its integer t-coefficients of degree 0 .. max_index + 1: table[m][d]
    is the coefficient of t^d u^m, and a(n) = table[n - 1][n].

    p_0 is the truncation of 1/(1 - t)."""
    if max_index < 0:
        raise ValueError("max index must be non-negative")
    return _product_grid(max_index + 1, max_index, _corrected_exponent)


def term_count_gf(n: int) -> int:
    """a(n) extracted from the generating function: the degree-n coefficient
    of p_(n-1)."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    return _product_grid(n, n - 1, _corrected_exponent)[n - 1][n]


def term_count_enum(n: int) -> int:
    """a(n) by direct enumeration of the formula partitions: the number of
    tails of each head of the partition walk (`formula_heads`), summed."""
    return sum(len(tails) for _, _, tails in formula_heads(n))


def cf_term_count(n: int) -> int:
    """Coefficient of t^n u^(n-1) in the product over parts (i, j) of
    1 / (1 - t^i u^j): the count published in 1974.  Disagrees with a(n)
    already at n = 2."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    return _product_grid(n, n - 1, lambda i, j: j)[n - 1][n]
