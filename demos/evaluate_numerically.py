"""Evaluate implicit derivatives on concrete curves.

The pipeline: parse F(x, y), expand it once as a Taylor polynomial truncated
at total degree n to fill the table of mixed partials at a point, then
evaluate the closed-form expansion.  The result can be cross-checked two
independent ways: against known analytic derivatives, and against a central
finite difference of the curve traced by Newton iteration.
"""

import math

from implicit_deriv import (
    derivative_table,
    evaluate_formula,
    finite_difference_check,
    implicit_solve,
    parse_expression,
)

# x - e^y = 0 is y = log(x); at x = 1 the n-th derivative is (-1)^(n-1)(n-1)!
log_curve = parse_expression("x-exp(y)")
print("y = log(x) at x = 1:")
for n in range(1, 7):
    table = derivative_table(log_curve, 1.0, 0.0, n)
    value = evaluate_formula(n, table)
    expected = (-1) ** (n - 1) * math.factorial(n - 1)
    print(f"  d^{n}y/dx^{n} = {value:+.12f}   (analytic {expected:+d})")

# the unit circle at its north pole: y'' = -1 and y'''' = -3
circle = parse_expression("x^2+y^2-1")
table = derivative_table(circle, 0.0, 1.0, 4)
print("\nunit circle at (0, 1):")
print("  y''   =", evaluate_formula(2, table))
print("  y'''' =", evaluate_formula(4, table))

# points on the curve can be found by Newton iteration from a guess
x = 0.1
y = implicit_solve(circle, x, 1.0)
print(f"\nNewton: circle point at x={x}: y={y!r} (exact {math.sqrt(1 - x*x)!r})")

# an end-to-end sanity check: trace the curve and difference it numerically
value = evaluate_formula(3, derivative_table(circle, 0.0, 1.0, 3))
stencil = finite_difference_check(circle, 0.0, 1.0, 3)
print("\nfinite-difference check of y''' at (0, 1):")
print(f"  formula {value:+.12f}")
print(f"  stencil {stencil:+.12f}")
print(f"  |diff|  {abs(value - stencil):.3e}")
