"""Counting the terms of the order-n expansion.

The number a(n) of formula partitions is the coefficient of t^n u^(n-1) in
the product over all admissible parts (i, j) of 1 / (1 - t^i u^(i+j-1)) -
note the combined exponent i + j - 1, which encodes the constraint that the
second coordinates sum to one less than the number of parts.  The count
Comtet and Fiolet published in 1974 takes u^j in place of u^(i+j-1) and is
wrong already at n = 2.  One routine multiplies out the product in exact
integers for both counts, given the u-exponent; `term_count_enum` counts
the partition walk instead, as a cross-check: head by head, each head's
tails by their number, so it never builds a partition, with each head's
coordinates checked against the order and its tails.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter

from . import _forwarding

__getattr__ = _forwarding(__name__, "formula_partitions")

# The highest order `count --max` and `compare-cf --count` accept.  The
# product grid of order N is N rows, each one integer of about 2 N^2 bits,
# multiplied out in about N^3 / 2 shift-and-adds of rows for the 1974 count
# and a third as many for the corrected one: at this cap, count takes about
# 0.6 s and compare-cf --count (both grids) about 1.7 s in a fresh process
# (2 vCPUs, Python 3.11.7).
MAX_COUNT_ORDER = 100


def _corrected_exponent(i: int, j: int) -> int:
    return i + j - 1


def _product_grid(
    t_top: int, u_top: int, u_exponent: Callable[[int, int], int]
) -> list[list[int]]:
    """grid[y][x] is the coefficient of t^x u^y, for x <= t_top and
    y <= u_top, in the product over parts (i, j) other than (0, 0) and (0, 1)
    of 1 / (1 - t^i u^e), with e = u_exponent(i, j) >= max(j - 1, 0).

    Factors with i > t_top or e > u_top cannot reach the kept degrees, so the
    product is finite; e >= j - 1 bounds j by u_top + 1.

    Each row y is one integer that holds its t-coefficients in slots of
    `width` bits, coefficient x at bit width * x (Kronecker substitution), so
    a factor costs a shift and an add per row, done by big-int arithmetic.
    No slot carries into the next.  Every factor's series has nonnegative
    coefficients and constant term 1, so no partial product, nor any step of
    the doubling below, exceeds the final c(x, y) anywhere.  At t = u = 1/2
    the product gives c(x, y) <= G * 2^(x + y), with G the product of
    1 / (1 - 2^-(i + e)) over the factors.  Each of these falls as e grows,
    so G is largest at e = max(j - 1, 0), where log2 G < 6.92 (below 4.2
    for both counts in use).  So c(x, y) < 2^(t_top + u_top + 7), and the
    width below leaves five bits to spare.
    """
    width = t_top + u_top + 12
    row_bits = width * (t_top + 1)
    mask = (1 << row_bits) - 1
    rows = [0] * (u_top + 1)
    rows[0] = 1
    for i in range(t_top + 1):
        shift = width * i
        low = mask >> shift
        for j in range(u_top + 2):
            e = u_exponent(i, j)
            if (i, j) in ((0, 0), (0, 1)) or e > u_top:
                continue
            if e:
                # The geometric series in t^i u^e: cumulative update, y rising.
                for y in range(e, u_top + 1):
                    rows[y] += (rows[y - e] & low) << shift
                continue
            # The series in t^i alone, a prefix sum of stride i within each
            # row: multiply by (1 + t^i)(1 + t^2i)(1 + t^4i)... to degree t_top.
            for y in range(u_top + 1):
                row = rows[y]
                s = shift
                while s < row_bits:
                    row += (row & mask >> s) << s
                    s += s
                rows[y] = row
    slot = (1 << width) - 1
    return [[row >> width * x & slot for x in range(t_top + 1)] for row in rows]


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
    return series_table(n - 1)[n - 1][n]


def term_count_enum(n: int) -> int:
    """a(n) by direct enumeration of the formula partitions: the number of
    tails of each head of the partition walk (`formula_heads`), summed.
    Each head is checked as it is counted: its first coordinates sum to n,
    the order's, and its tails make up its deficit, the sum of j - 1 that
    a tail's parts must make, read off the head's own parts as `_weigh`
    reads it.  A head's tails are made for one deficit, so the first
    tail's excess stands for them all here; `_weigh` checks each term.  On
    any other head this raises TermCheckError."""
    from .partitions import TermCheckError, formula_heads, parts_label

    first, second = itemgetter(0), itemgetter(1)
    count = 0
    for head, _, tails in formula_heads(n):
        x_sum = sum(map(first, head))
        if x_sum != n:
            raise TermCheckError(
                f"head {parts_label(head)} has first coordinates summing to {x_sum}, not {n}"
            )
        # None when the head holds (0, 1), which no tail can mend.
        deficit = None if (0, 1) in head else len(head) - 1 - sum(map(second, head))
        if tails and (deficit is None or tails[0][3] != deficit):
            raise TermCheckError(
                f"the tails of head {parts_label(head)} do not complete its second coordinates"
            )
        count += len(tails)
    return count


def cf_term_count(n: int) -> int:
    """Coefficient of t^n u^(n-1) in the product over parts (i, j) of
    1 / (1 - t^i u^j): the count published in 1974.  Disagrees with a(n)
    already at n = 2."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    return _product_grid(n, n - 1, lambda i, j: j)[n - 1][n]
