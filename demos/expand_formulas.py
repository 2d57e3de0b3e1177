"""Build and render the closed-form expansions of d^n y/dx^n.

For y(x) defined implicitly by F(x, y) = 0 (with F_y != 0), each derivative
of y is a finite sum over two-dimensional partitions: the order-n expansion
has one term per partition whose first coordinates sum to n, whose second
coordinates sum to one less than the number of parts, and which avoids the
part (0, 1).  Run this script to see the expansions grow.
"""

from implicit_deriv import (
    render_chunks,
    required_derivatives,
    term_count_gf,
    weighted_formula_heads,
)


def expansion(n: int, fmt: str = "text") -> str:
    # the terms stream from the weighted walk, one chunk each; the JSON
    # header's term count comes from the generating function
    return "".join(render_chunks(n, weighted_formula_heads(n), fmt, term_count_gf(n)))


# the first well-known case: dy/dx = -F_x / F_y
print("n=1:", expansion(1))

# the classical second derivative, three terms
print("n=2:", expansion(2))

# from here the term count grows quickly: 9, 24, 61, ...
for n in (3, 4):
    print(f"\nn={n} has {term_count_gf(n)} terms:")
    print(" ", expansion(n))

# every term is a product of mixed partials F_(i,j); this is the full list
# of partials a numeric evaluation of the order-4 expansion touches
print("\npartials read at n=4:", sorted(required_derivatives(4)))

# the same data is available as LaTeX or as a stable JSON document
print("\nLaTeX at n=2:", expansion(2, "latex"))
print("\nJSON at n=2:", expansion(2, "json"))
