"""Numeric evaluation of implicit derivatives at a point.

Given a parsed F(x, y), a point on (or near) the curve F = 0, and an order n,
this module tabulates the mixed partials the expansion reads, evaluates the
closed form in double precision, solves F(x, .) = 0 by Newton iteration, and
offers a central finite-difference cross-check of the result.

The table comes from one truncated Taylor pass over the expression
(`expressions.taylor_coefficients`), which yields every partial of total
order up to n at once; the Newton solve reads F and F_y from an order-1
pass in y alone.
Points with |F_y| at or below the singular tolerance are rejected (vertical
tangent: the expansion does not apply there).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, factorial
from typing import NamedTuple

# evaluate and mixed_partial are unused here; they stay bound
# because bench/trace_child.py wraps them under these names.
from .expressions import Expression, evaluate, mixed_partial, taylor_coefficients  # noqa: F401
from .formula import build_formula, required_derivatives
from .partitions import Part

_ON_CURVE_WARN_THRESHOLD = 1e-8


class SingularPointError(ArithmeticError):
    """|F_y| too small at the point: the expansion's precondition fails."""


class ConvergenceError(ArithmeticError):
    """Newton iteration failed to reach the residual tolerance."""


@dataclass(frozen=True)
class EvalConfig:
    singular_tolerance: float = 1e-12
    newton_tolerance: float = 1e-13
    newton_max_iter: int = 64
    fd_step: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("singular_tolerance", "newton_tolerance", "newton_max_iter", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class DerivativeTable:
    """Mixed partials of F evaluated at a point, keyed by (i, j)."""

    x: float
    y: float
    entries: dict[Part, float] = field(compare=False)

    def __getitem__(self, part: Part) -> float:
        try:
            return self.entries[part]
        except KeyError:
            raise KeyError(f"derivative table has no entry for {part}") from None

    def __contains__(self, part: Part) -> bool:
        return part in self.entries


def derivative_table(
    e: Expression, x0: float, y0: float, n: int, config: EvalConfig | None = None
) -> DerivativeTable:
    """Evaluate every mixed partial the order-n expansion needs at (x0, y0),
    all from one Taylor pass truncated at total degree n.

    Domain violations (log or sqrt of a non-positive value, a zero divisor)
    raise ValueError or ZeroDivisionError, overflow raises OverflowError.
    Warns (does not fail) when |F(x0, y0)| exceeds 1e-8, so near-curve points
    may be probed deliberately.  Raises SingularPointError when |F_y| is at or
    below the singular tolerance.
    """
    config = config or EvalConfig()
    coefficients = taylor_coefficients(e, x0, y0, n)
    residual = abs(coefficients[0][0])
    if residual > _ON_CURVE_WARN_THRESHOLD:
        warnings.warn(
            f"|F(x0, y0)| = {residual:.3e}: point is not on the curve",
            stacklevel=2,
        )
    entries = {
        (i, j): factorial(i) * factorial(j) * coefficients[i + j][j]
        for i, j in sorted(required_derivatives(n))
    }
    fy = entries[(0, 1)]
    if abs(fy) <= config.singular_tolerance:
        raise SingularPointError(
            f"|F_y| = {abs(fy):.3e} at ({x0}, {y0}): vertical tangent"
        )
    return DerivativeTable(x=x0, y=y0, entries=entries)


def evaluate_formula(
    n: int, table: DerivativeTable, config: EvalConfig | None = None
) -> float:
    """Evaluate the order-n expansion on a derivative table.

    Terms are summed in canonical order, each being the signed coefficient
    times the product of tabulated partials over the tabulated F_y power.
    """
    config = config or EvalConfig()
    fy = table[(0, 1)]
    if abs(fy) <= config.singular_tolerance:
        raise SingularPointError(f"|F_y| = {abs(fy):.3e}: vertical tangent")
    total = 0.0
    for term in build_formula(n).terms:
        product = float(term.coefficient)
        for part, multiplicity in term.partition.multiplicities().items():
            product *= table[part] ** multiplicity
        total += product / fy**term.fy_exponent
    return total


def implicit_solve(
    e: Expression, x: float, y_guess: float, config: EvalConfig | None = None
) -> float:
    """Solve F(x, y) = 0 for y by Newton iteration from y_guess.

    Returns y with |F(x, y)| within the Newton tolerance (one extra polishing
    step is taken after the tolerance is met, so the returned root is
    accurate to roughly machine precision).  Raises ConvergenceError on
    iteration breakdown or when the y-derivative underflows.
    """
    config = config or EvalConfig()
    y = y_guess
    for _ in range(config.newton_max_iter):
        # expand in y only: F_x is not needed and may not exist at x
        (residual,), (_, slope) = taylor_coefficients(e, x, y, 1, variables="y")
        if abs(slope) <= config.singular_tolerance:
            raise ConvergenceError(
                f"derivative underflow at y = {y}: |F_y| = {abs(slope):.3e}"
            )
        step = residual / slope
        if abs(residual) <= config.newton_tolerance:
            return y - step
        y -= step
    raise ConvergenceError(
        f"no root within {config.newton_max_iter} iterations from guess {y_guess}"
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
    e: Expression, x0: float, y0: float, n: int, config: EvalConfig | None = None
) -> FiniteDifferenceCheck:
    """Cross-check the expansion against a central finite difference.

    The curve is traced by Newton-solving F(x, .) = 0 at the stencil abscissae
    (warm-starting each solve from the neighbouring point), and the n-th
    central difference with step fd_step is compared with evaluate_formula.
    This is a sanity check, not a precision instrument; beyond n = 4 the
    difference quotient is dominated by cancellation noise.
    """
    config = config or EvalConfig()
    table = derivative_table(e, x0, y0, n, config)
    formula_value = evaluate_formula(n, table, config)

    weights, m = _central_weights(n)
    h = config.fd_step
    samples = {0: implicit_solve(e, x0, y0, config)}
    for k in range(1, m + 1):
        samples[k] = implicit_solve(e, x0 + k * h, samples[k - 1], config)
        samples[-k] = implicit_solve(e, x0 - k * h, samples[-(k - 1)], config)
    fd_value = sum(
        float(w) * samples[k] for w, k in zip(weights, range(-m, m + 1)) if w != 0
    ) / h**n
    return FiniteDifferenceCheck(formula_value, fd_value, abs(formula_value - fd_value))
