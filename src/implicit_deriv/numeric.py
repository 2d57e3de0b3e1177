"""Numeric evaluation of implicit derivatives at a point.

Given a parsed F(x, y), a point on (or near) the curve F = 0, and an order n,
this module tabulates the mixed partials the expansion reads, evaluates the
closed form, solves F(x, .) = 0 by Newton iteration, and estimates the
same derivative by a central finite difference, to cross-check a value.

The table is a plain dict from (i, j) to F_ij at the point.  It comes from
one truncated Taylor pass over the expression
(`expressions.taylor_coefficients`), which yields every partial of total
order up to n at once; the Newton solve reads F and F_y from an order-1
pass in y alone.

The closed form is evaluated by Lagrange inversion, the paper's first
derivation, not term by term: d^n y/dx^n = n! [t^n w^-1] -log(1 - K) with
K = sum of -F_ij/F_y t^i w^(j-1)/(i! j!) over (i, j) other than (0, 0) and
(0, 1).  Expanding -log(1 - K) as the sum of K^k/k, each multiset of k
parts is one term of the expansion with its weight, so the extraction is the
same sum.  With t = u w a part becomes u^i w^(i+j-1), of grade
i + j - 1 >= 0, and the target u^n w^(n-1); so only grades up to n - 1 are
kept (a formula partition's grades sum to n - 1, so none of its parts has a
higher grade), and the coefficient comes from a recurrence on an n x n grid
in O(n^4) steps, where the term count a(n) grows exponentially.  A float
result is checked against the same extraction on |F_ij|, which is the sum of
the terms' absolute values: when that sum times the unit roundoff exceeds
1e-3 of the value, the terms cancel and `evaluate_formula` warns.

Points with |F_y| at or below SINGULAR_TOLERANCE are rejected (vertical
tangent: the expansion does not apply there).  The tolerances, the Newton
iteration cap, the finite-difference step and the highest order `eval`
accepts (MAX_EVAL_ORDER) are fixed module constants.
"""

from __future__ import annotations

import sys
import warnings
from math import ceil, comb, factorial, fsum

from . import _forwarding
from .expressions import Expression, taylor_coefficients

# Unused here: bench/trace_child.py wraps these names on this module.
__getattr__ = _forwarding(__name__, "build_formula", "evaluate", "mixed_partial")

# A mixed partial F_ij, keyed by its orders (i, j), as in partitions.
Part = tuple[int, int]

_ON_CURVE_WARN_THRESHOLD = 1e-8
# A float result warns when u * (sum of |terms|) exceeds this share of |value|.
_CANCELLATION_WARN_THRESHOLD = 1e-3
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2

# |F_y| at or below this is a vertical tangent (also a Newton breakdown).
SINGULAR_TOLERANCE = 1e-12
NEWTON_TOLERANCE = 1e-13
NEWTON_MAX_ITER = 64
FD_STEP = 1e-3
# Highest order `eval` accepts.  evaluate_formula costs O(n^4): 3.2 s at
# n = 100 on a dense table (x-exp(y)+sin(x*y)/(1+y^2), 2 vCPUs at 2.0 GHz),
# and a float result near n = 150 overflows on such curves.
MAX_EVAL_ORDER = 100


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

    The sum over the a(n) terms is taken by coefficient extraction,
    d^n y/dx^n = n! [t^n w^-1] -log(1 - K) (see the module docstring), in
    the table's scalar type: float, or an exact type such as Fraction, for
    which the result is exact.  A table without an entry the expansion
    reads raises KeyError; |F_y| at or below SINGULAR_TOLERANCE raises
    SingularPointError.

    A float result warns (does not fail) when the terms cancel: when the
    unit roundoff times the sum of the terms' absolute values exceeds 1e-3
    of |value|, including a value of exactly 0 from terms that are not all 0.
    That bounds the error of a term-by-term sum; the recurrence, which never
    forms the terms, is often far more accurate, so at high orders the
    warning can be pessimistic.
    """
    fy = table[(0, 1)]
    if abs(fy) <= SINGULAR_TOLERANCE:
        raise SingularPointError(f"|F_y| = {abs(fy):.3e}: vertical tangent")
    # scaled[i][g] = i! [u^i w^g] K = -F_ij/(F_y j!) with g = i + j - 1
    scaled = [[type(fy)(0)] * n for _ in range(n + 1)]
    for i, j in required_derivatives(n) - {(0, 1)}:
        scaled[i][i + j - 1] = -table[(i, j)] / fy / factorial(j)
    value = _lagrange_coefficient(n, scaled)
    if isinstance(value, float):
        bound = _UNIT_ROUNDOFF * _lagrange_coefficient(
            n, [[abs(c) for c in row] for row in scaled]
        )
        if bound > _CANCELLATION_WARN_THRESHOLD * abs(value):
            warnings.warn(
                f"d^{n}y/dx^{n} = {value!r} has a rounding error bound of "
                f"{bound:.3e} from cancelling terms: fewer than 3 digits may be "
                "correct",
                stacklevel=2,
            )
    return value


def _lagrange_coefficient(n: int, scaled: list[list]) -> float:
    """n! [u^n w^(n-1)] -log(1 - K), where scaled[i][g] = i! [u^i w^g] K.

    With L = -log(1 - K), n [u^n] L = [u^(n-1)] L_u, and M = L_u solves
    M = K_u + K M, because (1 - K) L_u = K_u.  K has no constant term, so
    each coefficient of M reads only earlier ones, and the grid a, g < n is
    filled in order in O(n^4) steps.  Coefficients carry the factor a! of
    their u-power, so a product multiplies by the integer binomial C(a, i)
    and the result is (n-1)! [u^(n-1) w^(n-1)] M, the grid's last entry.
    """
    zero = scaled[0][0]  # u^0 w^0: K has no constant term
    nonzero = [[(g, c) for g, c in enumerate(row) if c] for row in scaled]
    binomial = [[comb(a, i) for i in range(a + 1)] for a in range(n)]
    m = [[zero] * n for _ in range(n)]
    for a in range(n):
        for g in range(n):
            total = zero + scaled[a + 1][g]  # a sum of zeros of either sign is +0
            for i in range(a + 1):
                scale = binomial[a][i]
                row = m[a - i]
                for q, c in nonzero[i]:
                    if q > g:
                        break
                    total += scale * c * row[g - q]
            m[a][g] = total
    return m[n - 1][n - 1]


def implicit_solve(e: Expression, x: float, y_guess: float) -> float:
    """Solve F(x, y) = 0 for y by Newton iteration from y_guess.

    Returns y with |F(x, y)| within NEWTON_TOLERANCE and a Newton step of
    at most sqrt(eps) * max(1, |y|), about 1.5e-8, there: where F_y is
    small, a small |F| alone holds far from the root.  One extra polishing
    step is taken after both are met, so the returned root is accurate to
    roughly machine precision.  Raises ConvergenceError on iteration
    breakdown or when the y-derivative underflows.
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
        near = abs(step) <= sys.float_info.epsilon ** 0.5 * max(1.0, abs(y))
        if abs(residual) <= NEWTON_TOLERANCE and near:
            return y - step
        y -= step
    raise ConvergenceError(
        f"no root within {NEWTON_MAX_ITER} iterations from guess {y_guess}"
    )


def _central_weights(n: int) -> tuple[list[int], int]:
    """Twice the weights of the symmetric central difference for the n-th
    derivative on offsets -m .. m with m = ceil(n / 2): the weights are
    half-integers, kept exact as these integers over 2.  For even n this is
    the binomial central difference, weight (-1)^k C(n, k) at offset
    n/2 - k; for odd n, the mean of the two such differences centred half a
    step either side.  Both satisfy the moment conditions
    sum w_k k^j = n! [j == n] for j = 0 .. 2m, which have no other
    solution."""
    m = ceil(n / 2)

    def signed_binomial(k: int) -> int:  # (-1)^k C(n, k), 0 outside 0 .. n
        return (-1) ** k * comb(n, k) if k >= 0 else 0

    shift = n % 2  # 0 for even n: the two differences coincide
    doubled = [
        signed_binomial(m - offset) + signed_binomial(m - shift - offset)
        for offset in range(-m, m + 1)
    ]
    return doubled, m


def finite_difference_check(e: Expression, x0: float, y0: float, n: int) -> float:
    """A central finite-difference estimate of d^n y/dx^n at (x0, y0), to
    set beside the expansion's value there.

    The curve is traced by Newton-solving F(x, .) = 0 at the stencil abscissae
    (warm-starting each solve from the neighbouring point), and the n-th
    central difference with step FD_STEP is returned.  This is a sanity
    check, not a precision instrument; beyond n = 4 the difference quotient
    is dominated by cancellation noise.
    """
    doubled, m = _central_weights(n)
    h = FD_STEP
    samples = {0: implicit_solve(e, x0, y0)}
    for k in range(1, m + 1):
        samples[k] = implicit_solve(e, x0 + k * h, samples[k - 1])
        samples[-k] = implicit_solve(e, x0 - k * h, samples[-(k - 1)])
    # Each weight w / 2 is the float nearest the exact half-integer (int true
    # division rounds once).  fsum rounds the sum once, so the estimate is
    # the same on every Python (sum() compensates its rounding from 3.12 on).
    return fsum(
        w / 2 * samples[k] for w, k in zip(doubled, range(-m, m + 1)) if w != 0
    ) / h**n
