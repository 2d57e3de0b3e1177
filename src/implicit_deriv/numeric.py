"""Numeric evaluation of implicit derivatives at a point.

Given a parsed F(x, y), a point on (or near) the curve F = 0, and an order n,
this module tabulates the mixed partials the expansion reads, evaluates the
closed form in double precision, solves F(x, .) = 0 by Newton iteration, and
offers a central finite-difference cross-check of a computed value.

The table is a plain dict from (i, j) to F_ij at the point.  It comes from
one truncated Taylor pass over the expression
(`expressions.taylor_coefficients`), which yields every partial of total
order up to n at once; the Newton solve reads F and F_y from an order-1
pass in y alone.
Points with |F_y| at or below SINGULAR_TOLERANCE are rejected (vertical
tangent: the expansion does not apply there).  The tolerances, the Newton
iteration cap and the finite-difference step are fixed module constants.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import ceil, factorial
from typing import NamedTuple

# evaluate and mixed_partial are unused here; they stay bound
# because bench/trace_child.py wraps them under these names.
from .expressions import Expression, evaluate, mixed_partial, taylor_coefficients  # noqa: F401
from .formula import build_formula, required_derivatives
from .partitions import Part

_ON_CURVE_WARN_THRESHOLD = 1e-8

# |F_y| at or below this is a vertical tangent (also a Newton breakdown).
SINGULAR_TOLERANCE = 1e-12
NEWTON_TOLERANCE = 1e-13
NEWTON_MAX_ITER = 64
FD_STEP = 1e-3


class SingularPointError(ArithmeticError):
    """|F_y| too small at the point: the expansion's precondition fails."""


class ConvergenceError(ArithmeticError):
    """Newton iteration failed to reach the residual tolerance."""


def derivative_table(e: Expression, x0: float, y0: float, n: int) -> dict[Part, float]:
    """Evaluate every mixed partial the order-n expansion needs at (x0, y0),
    all from one Taylor pass truncated at total degree n, keyed by (i, j).

    Domain violations (log or sqrt of a non-positive value, a zero divisor)
    raise ValueError or ZeroDivisionError, overflow raises OverflowError.
    Warns (does not fail) when |F(x0, y0)| exceeds 1e-8, so near-curve points
    may be probed deliberately.  Raises SingularPointError when |F_y| is at or
    below SINGULAR_TOLERANCE.
    """
    coefficients = taylor_coefficients(e, x0, y0, n)
    residual = abs(coefficients[0][0])
    if residual > _ON_CURVE_WARN_THRESHOLD:
        warnings.warn(
            f"|F(x0, y0)| = {residual:.3e}: point is not on the curve",
            stacklevel=2,
        )
    table = {
        (i, j): factorial(i) * factorial(j) * coefficients[i + j][j]
        for i, j in sorted(required_derivatives(n))
    }
    fy = table[(0, 1)]
    if abs(fy) <= SINGULAR_TOLERANCE:
        raise SingularPointError(
            f"|F_y| = {abs(fy):.3e} at ({x0}, {y0}): vertical tangent"
        )
    return table


def evaluate_formula(n: int, table: dict[Part, float]) -> float:
    """Evaluate the order-n expansion on a derivative table.

    Terms are summed in canonical order, each being the signed coefficient
    times the product of tabulated partials over the tabulated F_y power.
    Equal parts are adjacent in canonical order, so each run of them becomes
    one power, taken in order of first appearance.  A table without an
    entry the expansion reads raises KeyError.
    """
    fy = table[(0, 1)]
    if abs(fy) <= SINGULAR_TOLERANCE:
        raise SingularPointError(f"|F_y| = {abs(fy):.3e}: vertical tangent")
    total = 0.0
    for term in build_formula(n).terms:
        product = float(term.coefficient)
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


def implicit_solve(e: Expression, x: float, y_guess: float) -> float:
    """Solve F(x, y) = 0 for y by Newton iteration from y_guess.

    Returns y with |F(x, y)| within NEWTON_TOLERANCE (one extra polishing
    step is taken after the tolerance is met, so the returned root is
    accurate to roughly machine precision).  Raises ConvergenceError on
    iteration breakdown or when the y-derivative underflows.
    """
    y = y_guess
    for _ in range(NEWTON_MAX_ITER):
        # expand in y only: F_x is not needed and may not exist at x
        (residual,), (_, slope) = taylor_coefficients(e, x, y, 1, variables="y")
        if abs(slope) <= SINGULAR_TOLERANCE:
            raise ConvergenceError(
                f"derivative underflow at y = {y}: |F_y| = {abs(slope):.3e}"
            )
        step = residual / slope
        if abs(residual) <= NEWTON_TOLERANCE:
            return y - step
        y -= step
    raise ConvergenceError(
        f"no root within {NEWTON_MAX_ITER} iterations from guess {y_guess}"
    )


def _central_weights(n: int) -> tuple[list[Fraction], int]:
    """Weights of the symmetric central difference for the n-th derivative on
    offsets -m .. m with m = ceil(n / 2): the unique solution of the moment
    conditions sum w_k k^j = n! [j == n] for j = 0 .. 2m."""
    m = ceil(n / 2)
    size = 2 * m + 1
    offsets = list(range(-m, m + 1))
    # Exact Gaussian elimination on the Vandermonde moment system.
    rows = [
        [Fraction(k**j) for k in offsets] + [Fraction(factorial(n) if j == n else 0)]
        for j in range(size)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                scale = rows[r][col] / rows[col][col]
                rows[r] = [a - scale * b for a, b in zip(rows[r], rows[col])]
    weights = [rows[k][size] / rows[k][k] for k in range(size)]
    return weights, m


class FiniteDifferenceCheck(NamedTuple):
    formula_value: float
    fd_value: float
    abs_diff: float


def finite_difference_check(
    e: Expression, x0: float, y0: float, n: int, formula_value: float
) -> FiniteDifferenceCheck:
    """Cross-check formula_value, the order-n expansion evaluated at
    (x0, y0), against a central finite difference.

    The curve is traced by Newton-solving F(x, .) = 0 at the stencil abscissae
    (warm-starting each solve from the neighbouring point), and the n-th
    central difference with step FD_STEP is compared with formula_value.
    This is a sanity check, not a precision instrument; beyond n = 4 the
    difference quotient is dominated by cancellation noise.
    """
    weights, m = _central_weights(n)
    h = FD_STEP
    samples = {0: implicit_solve(e, x0, y0)}
    for k in range(1, m + 1):
        samples[k] = implicit_solve(e, x0 + k * h, samples[k - 1])
        samples[-k] = implicit_solve(e, x0 - k * h, samples[-(k - 1)])
    fd_value = sum(
        float(w) * samples[k] for w, k in zip(weights, range(-m, m + 1)) if w != 0
    ) / h**n
    return FiniteDifferenceCheck(formula_value, fd_value, abs(formula_value - fd_value))
